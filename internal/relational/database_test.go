package relational

import (
	"fmt"
	"testing"
)

// testDB builds the paper's running example: Gene and Protein tables plus a
// Publication table, with the paper's FK topology.
func testDB(t testing.TB) *Database {
	t.Helper()
	db := NewDatabase()
	gene := &Schema{
		Name: "Gene",
		Columns: []Column{
			{Name: "GID", Type: TypeString},
			{Name: "Name", Type: TypeString, Indexed: true},
			{Name: "Length", Type: TypeInt},
			{Name: "Seq", Type: TypeString},
			{Name: "Family", Type: TypeString, Indexed: true},
		},
		PrimaryKey: "GID",
	}
	protein := &Schema{
		Name: "Protein",
		Columns: []Column{
			{Name: "PID", Type: TypeString},
			{Name: "PName", Type: TypeString, Indexed: true},
			{Name: "PType", Type: TypeString},
			{Name: "GeneID", Type: TypeString, Indexed: true},
		},
		PrimaryKey:  "PID",
		ForeignKeys: []ForeignKey{{Column: "GeneID", RefTable: "Gene", RefColumn: "GID"}},
	}
	pub := &Schema{
		Name: "Publication",
		Columns: []Column{
			{Name: "PubID", Type: TypeString},
			{Name: "Title", Type: TypeString, FullText: true},
			{Name: "Abstract", Type: TypeString, FullText: true},
		},
		PrimaryKey: "PubID",
	}
	for _, s := range []*Schema{gene, protein, pub} {
		if _, err := db.CreateTable(s); err != nil {
			t.Fatalf("CreateTable(%s): %v", s.Name, err)
		}
	}
	if err := db.ValidateForeignKeys(); err != nil {
		t.Fatalf("ValidateForeignKeys: %v", err)
	}

	genes := [][]Value{
		{String("JW0013"), String("grpC"), Int(1130), String("TGCT"), String("F1")},
		{String("JW0014"), String("groP"), Int(1916), String("GGTT"), String("F6")},
		{String("JW0015"), String("insL"), Int(1112), String("GGCT"), String("F1")},
		{String("JW0018"), String("nhaA"), Int(1166), String("CGTT"), String("F1")},
		{String("JW0019"), String("yaaB"), Int(905), String("TGTG"), String("F3")},
		{String("JW0012"), String("yaaI"), Int(404), String("TTCG"), String("F1")},
		{String("JW0027"), String("namE"), Int(658), String("GTTT"), String("F4")},
	}
	gt := db.MustTable("Gene")
	for _, g := range genes {
		if _, err := gt.Insert(g); err != nil {
			t.Fatal(err)
		}
	}
	pt := db.MustTable("Protein")
	proteins := [][]Value{
		{String("P00001"), String("G-Actin"), String("structural"), String("JW0013")},
		{String("P00002"), String("Myosin"), String("motor"), String("JW0014")},
	}
	for _, p := range proteins {
		if _, err := pt.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	pubT := db.MustTable("Publication")
	if _, err := pubT.Insert([]Value{
		String("PUB1"),
		String("A study of gene yaaB"),
		String("The article references gene names yaaB and yaaI and protein G-Actin."),
	}); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestCreateTableErrors(t *testing.T) {
	db := NewDatabase()
	if _, err := db.CreateTable(&Schema{Name: "T"}); err == nil {
		t.Error("no columns should fail")
	}
	if _, err := db.CreateTable(&Schema{
		Name:    "T",
		Columns: []Column{{Name: "A", Type: TypeString}},
	}); err == nil {
		t.Error("missing PK should fail")
	}
	if _, err := db.CreateTable(&Schema{
		Name:       "T",
		Columns:    []Column{{Name: "A", Type: TypeString}, {Name: "a", Type: TypeInt}},
		PrimaryKey: "A",
	}); err == nil {
		t.Error("duplicate (case-insensitive) column should fail")
	}
	if _, err := db.CreateTable(&Schema{
		Name:       "T",
		Columns:    []Column{{Name: "A", Type: TypeInt, FullText: true}},
		PrimaryKey: "A",
	}); err == nil {
		t.Error("full-text on int column should fail")
	}
	ok := &Schema{
		Name:       "T",
		Columns:    []Column{{Name: "A", Type: TypeString}},
		PrimaryKey: "A",
	}
	if _, err := db.CreateTable(ok); err != nil {
		t.Fatalf("valid schema rejected: %v", err)
	}
	if _, err := db.CreateTable(&Schema{
		Name:       "t",
		Columns:    []Column{{Name: "A", Type: TypeString}},
		PrimaryKey: "A",
	}); err == nil {
		t.Error("duplicate table (case-insensitive) should fail")
	}
}

func TestForeignKeyValidation(t *testing.T) {
	db := NewDatabase()
	_, err := db.CreateTable(&Schema{
		Name:        "Child",
		Columns:     []Column{{Name: "ID", Type: TypeString}, {Name: "Ref", Type: TypeString}},
		PrimaryKey:  "ID",
		ForeignKeys: []ForeignKey{{Column: "Ref", RefTable: "Missing", RefColumn: "X"}},
	})
	if err != nil {
		t.Fatalf("forward FK reference should be allowed at create time: %v", err)
	}
	if err := db.ValidateForeignKeys(); err == nil {
		t.Error("dangling FK should fail validation")
	}
}

func TestInsertAndLookup(t *testing.T) {
	db := testDB(t)
	gt := db.MustTable("Gene")
	if gt.Len() != 7 {
		t.Fatalf("gene count = %d", gt.Len())
	}
	r, ok := gt.GetByPK(String("JW0013"))
	if !ok || r.MustGet("Name").Str() != "grpC" {
		t.Fatalf("GetByPK failed: %v %v", r, ok)
	}
	// case-insensitive PK lookup
	if _, ok := gt.GetByPK(String("jw0013")); !ok {
		t.Error("PK lookup should be case-insensitive")
	}
	if _, err := gt.Insert([]Value{String("JW0013"), String("x"), Int(1), String("A"), String("F9")}); err == nil {
		t.Error("duplicate PK should fail")
	}
	if _, err := gt.Insert([]Value{String("JW9999"), String("x"), String("oops"), String("A"), String("F9")}); err == nil {
		t.Error("type mismatch should fail")
	}
	if _, err := gt.Insert([]Value{String("JW9999")}); err == nil {
		t.Error("arity mismatch should fail")
	}
}

func TestDelete(t *testing.T) {
	db := testDB(t)
	gt := db.MustTable("Gene")
	if !gt.DeleteByKey(String("JW0027").Key()) {
		t.Fatal("delete existing failed")
	}
	if gt.DeleteByKey(String("JW0027").Key()) {
		t.Fatal("double delete succeeded")
	}
	if gt.Len() != 6 {
		t.Fatalf("len after delete = %d", gt.Len())
	}
	rows, _ := gt.LookupEqual("Name", String("namE"))
	if len(rows) != 0 {
		t.Error("index not cleaned after delete")
	}
}

func TestLookupEqualWithAndWithoutIndex(t *testing.T) {
	db := testDB(t)
	gt := db.MustTable("Gene")
	rows, indexed := gt.LookupEqual("Family", String("F1"))
	if !indexed || len(rows) != 4 {
		t.Fatalf("indexed Family=F1: %d rows indexed=%v", len(rows), indexed)
	}
	rows, indexed = gt.LookupEqual("Seq", String("TGCT"))
	if indexed || len(rows) != 1 {
		t.Fatalf("scan Seq=TGCT: %d rows indexed=%v", len(rows), indexed)
	}
	// case-insensitivity of equality
	rows, _ = gt.LookupEqual("Name", String("GRPC"))
	if len(rows) != 1 {
		t.Errorf("case-insensitive lookup failed: %d", len(rows))
	}
}

func TestLookupToken(t *testing.T) {
	db := testDB(t)
	pt := db.MustTable("Publication")
	rows := pt.LookupToken("Abstract", "yaaB")
	if len(rows) != 1 {
		t.Fatalf("token yaaB: %d rows", len(rows))
	}
	rows = pt.LookupToken("Abstract", "yaa")
	if len(rows) != 0 {
		t.Error("partial token must not match")
	}
	// fallback scan path on a non-indexed column
	gt := db.MustTable("Gene")
	rows = gt.LookupToken("Seq", "TGCT")
	if len(rows) != 1 {
		t.Errorf("scan token: %d rows", len(rows))
	}
}

func TestSelect(t *testing.T) {
	db := testDB(t)
	rows, stats, err := db.Select(Query{
		Table:      "Gene",
		Predicates: []Predicate{{Column: "Family", Op: OpEq, Operand: String("F1")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 || !stats.IndexUsed {
		t.Fatalf("rows=%d stats=%+v", len(rows), stats)
	}
	// Conjunction filtering
	rows, _, err = db.Select(Query{
		Table: "Gene",
		Predicates: []Predicate{
			{Column: "Family", Op: OpEq, Operand: String("F1")},
			{Column: "Name", Op: OpEq, Operand: String("grpC")},
		},
	})
	if err != nil || len(rows) != 1 {
		t.Fatalf("conjunction: rows=%d err=%v", len(rows), err)
	}
	// Unknown table / column errors
	if _, _, err = db.Select(Query{Table: "Nope"}); err == nil {
		t.Error("unknown table should fail")
	}
	if _, _, err = db.Select(Query{Table: "Gene",
		Predicates: []Predicate{{Column: "Nope", Op: OpEq, Operand: String("x")}}}); err == nil {
		t.Error("unknown column should fail")
	}
	// Full scan path
	rows, stats, err = db.Select(Query{
		Table:      "Gene",
		Predicates: []Predicate{{Column: "Seq", Op: OpPrefix, Operand: String("TG")}},
	})
	if err != nil || stats.IndexUsed {
		t.Fatalf("prefix should scan: %+v err=%v", stats, err)
	}
	if len(rows) != 2 { // TGCT, TGTG
		t.Fatalf("prefix rows=%d", len(rows))
	}
}

func TestSelectStatsAdd(t *testing.T) {
	a := SelectStats{TuplesScanned: 3, TuplesReturned: 1}
	a.Add(SelectStats{TuplesScanned: 5, TuplesReturned: 2, IndexUsed: true})
	if a.TuplesScanned != 8 || a.TuplesReturned != 3 || !a.IndexUsed {
		t.Errorf("Add: %+v", a)
	}
}

func TestRelated(t *testing.T) {
	db := testDB(t)
	pt := db.MustTable("Protein")
	actin, _ := pt.GetByPK(String("P00001"))
	related := db.Related(actin)
	if len(related) != 1 || related[0].ID.Table != "Gene" {
		t.Fatalf("protein->gene related: %v", related)
	}
	gt := db.MustTable("Gene")
	grpC, _ := gt.GetByPK(String("JW0013"))
	related = db.Related(grpC)
	if len(related) != 1 || related[0].ID.Table != "Protein" {
		t.Fatalf("gene->protein related: %v", related)
	}
}

func TestLookupByTupleID(t *testing.T) {
	db := testDB(t)
	gt := db.MustTable("Gene")
	r, _ := gt.GetByPK(String("JW0019"))
	got, ok := db.Lookup(r.ID)
	if !ok || got != r {
		t.Fatal("Lookup by TupleID failed")
	}
	if _, ok := db.Lookup(TupleID{Table: "Gene", Key: "s:nope"}); ok {
		t.Error("lookup of missing key should fail")
	}
	if _, ok := db.Lookup(TupleID{Table: "Nope", Key: "s:x"}); ok {
		t.Error("lookup of missing table should fail")
	}
}

func TestSubset(t *testing.T) {
	db := testDB(t)
	gt := db.MustTable("Gene")
	pt := db.MustTable("Protein")
	g1, _ := gt.GetByPK(String("JW0013"))
	g2, _ := gt.GetByPK(String("JW0019"))
	p1, _ := pt.GetByPK(String("P00001"))
	mini, err := db.Subset([]TupleID{g1.ID, g2.ID, p1.ID, g1.ID /* dup */, {Table: "Gene", Key: "s:missing"}})
	if err != nil {
		t.Fatal(err)
	}
	if mini.TotalRows() != 3 {
		t.Fatalf("mini rows = %d, want 3", mini.TotalRows())
	}
	mg := mini.MustTable("Gene")
	if mg.Len() != 2 {
		t.Fatalf("mini genes = %d", mg.Len())
	}
	// The mini table keeps its own schema and indexes work.
	rows, _ := mg.LookupEqual("Name", String("grpC"))
	if len(rows) != 1 {
		t.Error("mini index lookup failed")
	}
	// Mutating the mini DB must not affect the original.
	mg.DeleteByKey(String("JW0013").Key())
	if _, ok := gt.GetByPK(String("JW0013")); !ok {
		t.Error("subset deletion leaked to original")
	}
}

func TestDistinctCount(t *testing.T) {
	db := testDB(t)
	gt := db.MustTable("Gene")
	if got := gt.DistinctCount("Family"); got != 4 { // F1 F6 F3 F4
		t.Errorf("DistinctCount(Family) = %d, want 4", got)
	}
	if got := gt.DistinctCount("Seq"); got != 7 { // scan path
		t.Errorf("DistinctCount(Seq) = %d, want 7", got)
	}
	if got := gt.DistinctCount("Nope"); got != 0 {
		t.Errorf("DistinctCount(unknown) = %d, want 0", got)
	}
}

func TestQueryFingerprint(t *testing.T) {
	q1 := Query{Table: "Gene", Predicates: []Predicate{
		{Column: "Name", Op: OpEq, Operand: String("yaaB")},
		{Column: "Family", Op: OpEq, Operand: String("F3")},
	}}
	q2 := Query{Table: "gene", Predicates: []Predicate{
		{Column: "family", Op: OpEq, Operand: String("f3")},
		{Column: "name", Op: OpEq, Operand: String("YAAB")},
	}}
	if q1.Fingerprint() != q2.Fingerprint() {
		t.Error("fingerprints should be order- and case-insensitive")
	}
	q3 := Query{Table: "Gene", Predicates: []Predicate{
		{Column: "Name", Op: OpEq, Operand: String("yaaI")},
	}}
	if q1.Fingerprint() == q3.Fingerprint() {
		t.Error("different queries must differ")
	}
}

func TestPredicateString(t *testing.T) {
	p := Predicate{Column: "Name", Op: OpEq, Operand: String("yaaB")}
	if p.String() != `Name = "yaaB"` {
		t.Errorf("Predicate.String() = %q", p.String())
	}
	q := Query{Table: "Gene", Predicates: []Predicate{p}}
	want := `SELECT * FROM Gene WHERE Name = "yaaB"`
	if q.String() != want {
		t.Errorf("Query.String() = %q", q.String())
	}
	if (Query{Table: "Gene"}).String() != "SELECT * FROM Gene" {
		t.Error("empty-predicate query string wrong")
	}
}

func TestTableNamesOrderDeterministic(t *testing.T) {
	db := testDB(t)
	names := db.TableNames()
	want := []string{"Gene", "Protein", "Publication"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("TableNames = %v", names)
	}
}

func TestUpdate(t *testing.T) {
	db := testDB(t)
	gt := db.MustTable("Gene")
	// Update an indexed column: the index follows.
	if err := gt.UpdateByKey(String("JW0013").Key(), "Family", String("F9")); err != nil {
		t.Fatal(err)
	}
	rows, _ := gt.LookupEqual("Family", String("F9"))
	if len(rows) != 1 || rows[0].MustGet("GID").Str() != "JW0013" {
		t.Fatalf("index not updated: %v", rows)
	}
	rows, _ = gt.LookupEqual("Family", String("F1"))
	for _, r := range rows {
		if r.MustGet("GID").Str() == "JW0013" {
			t.Error("stale index entry for old value")
		}
	}
	// Update a full-text column: inverted index follows.
	pt := db.MustTable("Publication")
	if err := pt.UpdateByKey(String("PUB1").Key(), "Abstract", String("completely new words here")); err != nil {
		t.Fatal(err)
	}
	if rows := pt.LookupToken("Abstract", "yaaB"); len(rows) != 0 {
		t.Error("stale inverted entry")
	}
	if rows := pt.LookupToken("Abstract", "completely"); len(rows) != 1 {
		t.Error("new inverted entry missing")
	}
	// No-op update is accepted.
	if err := gt.UpdateByKey(String("JW0013").Key(), "Family", String("F9")); err != nil {
		t.Fatal(err)
	}
	// Errors: missing tuple, missing column, PK update, type mismatch.
	if err := gt.UpdateByKey(String("NOPE").Key(), "Family", String("F1")); err == nil {
		t.Error("missing tuple accepted")
	}
	if err := gt.UpdateByKey(String("JW0013").Key(), "Nope", String("x")); err == nil {
		t.Error("missing column accepted")
	}
	if err := gt.UpdateByKey(String("JW0013").Key(), "GID", String("JW9999")); err == nil {
		t.Error("PK update accepted")
	}
	if err := gt.UpdateByKey(String("JW0013").Key(), "Length", String("notanint")); err == nil {
		t.Error("type mismatch accepted")
	}
}

func TestUpdateDoesNotLeakIntoSubset(t *testing.T) {
	db := testDB(t)
	gt := db.MustTable("Gene")
	r, _ := gt.GetByPK(String("JW0013"))
	mini, err := db.Subset([]TupleID{r.ID})
	if err != nil {
		t.Fatal(err)
	}
	if err := gt.UpdateByKey(String("JW0013").Key(), "Family", String("F8")); err != nil {
		t.Fatal(err)
	}
	mr, _ := mini.MustTable("Gene").GetByPK(String("JW0013"))
	if mr.MustGet("Family").Str() != "F1" {
		t.Errorf("update leaked into materialized subset: %v", mr)
	}
}

func TestJoin(t *testing.T) {
	db := testDB(t)
	// Protein has FK -> Gene: protein side left.
	out, stats, err := db.Join(
		Query{Table: "Protein"},
		Query{Table: "Gene"},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("joined rows = %d, want 2", len(out))
	}
	for _, jr := range out {
		fk := jr.Left.MustGet("GeneID").Str()
		pk := jr.Right.MustGet("GID").Str()
		if fk != pk {
			t.Errorf("join mismatch: %s vs %s", fk, pk)
		}
	}
	if stats.TuplesReturned != 2 {
		t.Errorf("stats = %+v", stats)
	}
	// Reverse order: the FK is on the right side now.
	out, _, err = db.Join(Query{Table: "Gene"}, Query{Table: "Protein"})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("reversed join rows = %d", len(out))
	}
	for _, jr := range out {
		if jr.Left.ID.Table != "Gene" || jr.Right.ID.Table != "Protein" {
			t.Errorf("sides swapped: %v / %v", jr.Left.ID, jr.Right.ID)
		}
	}
	// Predicates restrict both sides.
	out, _, err = db.Join(
		Query{Table: "Protein", Predicates: []Predicate{{Column: "PType", Op: OpEq, Operand: String("motor")}}},
		Query{Table: "Gene", Predicates: []Predicate{{Column: "Family", Op: OpEq, Operand: String("F6")}}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Left.MustGet("PName").Str() != "Myosin" {
		t.Fatalf("filtered join = %v", out)
	}
	// Errors.
	if _, _, err := db.Join(Query{Table: "Gene"}, Query{Table: "Publication"}); err == nil {
		t.Error("unrelated tables should fail")
	}
	if _, _, err := db.Join(Query{Table: "Nope"}, Query{Table: "Gene"}); err == nil {
		t.Error("unknown left table should fail")
	}
	if _, _, err := db.Join(Query{Table: "Gene"}, Query{Table: "Nope"}); err == nil {
		t.Error("unknown right table should fail")
	}
}

// TestCatalogLookupSpellings: names resolve case-insensitively, and the
// catalog's own spelling resolves without folding case (no allocation).
func TestCatalogLookupSpellings(t *testing.T) {
	db := testDB(t)
	gene := db.MustTable("Gene")
	for _, name := range []string{"Gene", "gene", "GENE", "gEnE"} {
		if got, ok := db.Table(name); !ok || got != gene {
			t.Errorf("Table(%q) = %v, %v; want the Gene table", name, got, ok)
		}
	}
	if _, ok := db.Table("Genes"); ok {
		t.Error("Table(Genes) should not resolve")
	}
	for _, name := range []string{"Family", "family", "FAMILY", "fAmIlY"} {
		if i, ok := gene.Schema().ColumnIndex(name); !ok || i != 4 {
			t.Errorf("ColumnIndex(%q) = %d, %v; want 4", name, i, ok)
		}
		if rows, indexed := gene.LookupEqual(name, String("f1")); !indexed || len(rows) != 4 {
			t.Errorf("LookupEqual(%q) = %d rows, indexed=%v; want 4 through the index", name, len(rows), indexed)
		}
	}
	if _, ok := gene.Schema().ColumnIndex("Famil"); ok {
		t.Error("ColumnIndex(Famil) should not resolve")
	}
	if got := db.TableNames(); len(got) != 3 {
		t.Errorf("TableNames = %v; registering both spellings must not add tables", got)
	}
	row := gene.Rows()[0]
	if allocs := testing.AllocsPerRun(100, func() {
		if _, ok := db.Table("Gene"); !ok {
			t.Fatal("Gene missing")
		}
		if _, ok := row.Get("Family"); !ok {
			t.Fatal("Family missing")
		}
	}); allocs != 0 {
		t.Errorf("lookups by the declared spelling allocated %v times", allocs)
	}
}

// TestInvertedIndexPostings: a token repeated within a cell is posted once,
// postings stay in insertion order, and an update moves the row to the end
// of its new tokens' lists.
func TestInvertedIndexPostings(t *testing.T) {
	db := NewDatabase()
	tbl, err := db.CreateTable(&Schema{
		Name:       "Doc",
		Columns:    []Column{{Name: "ID", Type: TypeString}, {Name: "Body", Type: TypeString, FullText: true}},
		PrimaryKey: "ID",
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, body := range []string{"gene gene GENE locus", "locus gene", "protein"} {
		if _, err := tbl.Insert([]Value{String(fmt.Sprint("d", i)), String(body)}); err != nil {
			t.Fatal(err)
		}
	}
	ids := func(token string) string {
		var out []string
		for _, r := range tbl.LookupToken("Body", token) {
			out = append(out, r.ID.Key)
		}
		return fmt.Sprint(out)
	}
	if got := ids("gene"); got != "[s:d0 s:d1]" {
		t.Errorf("postings(gene) = %s", got)
	}
	if got := ids("locus"); got != "[s:d0 s:d1]" {
		t.Errorf("postings(locus) = %s", got)
	}
	if err := tbl.UpdateByKey(String("d0").Key(), "Body", String("protein protein locus")); err != nil {
		t.Fatal(err)
	}
	if got := ids("gene"); got != "[s:d1]" {
		t.Errorf("after update postings(gene) = %s", got)
	}
	if got := ids("locus"); got != "[s:d1 s:d0]" {
		t.Errorf("after update postings(locus) = %s", got)
	}
	if got := ids("protein"); got != "[s:d2 s:d0]" {
		t.Errorf("after update postings(protein) = %s", got)
	}
	if !tbl.DeleteByKey(String("d0").Key()) || ids("protein") != "[s:d2]" || ids("locus") != "[s:d1]" {
		t.Errorf("after delete postings: protein=%s locus=%s", ids("protein"), ids("locus"))
	}
}
