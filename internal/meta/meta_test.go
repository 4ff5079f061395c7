package meta

import (
	"math/rand"
	"testing"

	"nebula/internal/relational"
)

// fixture builds the paper's Gene/Protein catalog plus a populated
// NebulaMeta repository.
func fixture(t testing.TB) (*relational.Database, *Repository) {
	t.Helper()
	db := relational.NewDatabase()
	gene := &relational.Schema{
		Name: "Gene",
		Columns: []relational.Column{
			{Name: "GID", Type: relational.TypeString, Indexed: true},
			{Name: "Name", Type: relational.TypeString, Indexed: true},
			{Name: "Length", Type: relational.TypeInt},
			{Name: "Family", Type: relational.TypeString, Indexed: true},
		},
		PrimaryKey: "GID",
	}
	protein := &relational.Schema{
		Name: "Protein",
		Columns: []relational.Column{
			{Name: "PID", Type: relational.TypeString, Indexed: true},
			{Name: "PName", Type: relational.TypeString, Indexed: true},
			{Name: "PType", Type: relational.TypeString},
		},
		PrimaryKey: "PID",
	}
	for _, s := range []*relational.Schema{gene, protein} {
		if _, err := db.CreateTable(s); err != nil {
			t.Fatal(err)
		}
	}
	gt := db.MustTable("Gene")
	for _, g := range [][]relational.Value{
		{relational.String("JW0013"), relational.String("grpC"), relational.Int(1130), relational.String("F1")},
		{relational.String("JW0014"), relational.String("groP"), relational.Int(1916), relational.String("F6")},
		{relational.String("JW0019"), relational.String("yaaB"), relational.Int(905), relational.String("F3")},
	} {
		if _, err := gt.Insert(g); err != nil {
			t.Fatal(err)
		}
	}
	pt := db.MustTable("Protein")
	if _, err := pt.Insert([]relational.Value{
		relational.String("P00001"), relational.String("G-Actin"), relational.String("structural"),
	}); err != nil {
		t.Fatal(err)
	}

	r := NewRepository(db, nil)
	if err := r.AddConcept(&Concept{
		Name: "Gene", Table: "Gene",
		ReferencedBy: [][]string{{"GID"}, {"Name"}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := r.AddConcept(&Concept{
		Name: "Protein", Table: "Protein",
		ReferencedBy: [][]string{{"PID"}, {"PName", "PType"}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := r.AddConcept(&Concept{
		Name: "Gene Family", Table: "Gene",
		ReferencedBy: [][]string{{"Family"}},
	}); err != nil {
		t.Fatal(err)
	}
	r.AddEquivalentNames("GID", "Gene ID")
	if err := r.SetPattern(ColumnRef{Table: "Gene", Column: "GID"}, `JW[0-9]{4}`); err != nil {
		t.Fatal(err)
	}
	if err := r.SetPattern(ColumnRef{Table: "Gene", Column: "Name"}, `[a-z]{3}[A-Z]`); err != nil {
		t.Fatal(err)
	}
	r.SetOntology(ColumnRef{Table: "Gene", Column: "Family"}, []string{"F1", "F2", "F3", "F4", "F6"})
	return db, r
}

func TestAddConceptValidation(t *testing.T) {
	_, r := fixture(t)
	if err := r.AddConcept(&Concept{Name: "X", Table: "Missing", ReferencedBy: [][]string{{"A"}}}); err == nil {
		t.Error("unknown table should fail")
	}
	if err := r.AddConcept(&Concept{Name: "X", Table: "Gene", ReferencedBy: [][]string{{"Nope"}}}); err == nil {
		t.Error("unknown column should fail")
	}
	if err := r.AddConcept(&Concept{Name: "", Table: "Gene", ReferencedBy: [][]string{{"GID"}}}); err == nil {
		t.Error("empty name should fail")
	}
	if err := r.AddConcept(&Concept{Name: "X", Table: "Gene", ReferencedBy: nil}); err == nil {
		t.Error("no referencing columns should fail")
	}
	if err := r.AddConcept(&Concept{Name: "X", Table: "Gene", ReferencedBy: [][]string{{}}}); err == nil {
		t.Error("empty alternative should fail")
	}
}

func TestTargetColumnsDeduplicated(t *testing.T) {
	_, r := fixture(t)
	cols := r.TargetColumns()
	// GID, Name, PID, PName, PType, Family
	if len(cols) != 6 {
		t.Fatalf("target columns = %v", cols)
	}
}

func TestConceptMatchesExact(t *testing.T) {
	_, r := fixture(t)
	ms := r.ConceptMatches("gene")
	foundTable := false
	for _, m := range ms {
		if m.Element.Kind == TableElement && m.Element.Table == "Gene" {
			foundTable = true
			if m.Weight != WeightExactName {
				t.Errorf("exact table match weight = %f", m.Weight)
			}
		}
	}
	if !foundTable {
		t.Fatalf("no table match for 'gene': %v", ms)
	}
	// Plural matches too.
	if len(r.ConceptMatches("genes")) == 0 {
		t.Error("plural 'genes' should match")
	}
}

func TestConceptMatchesColumnAndEquivalent(t *testing.T) {
	_, r := fixture(t)
	ms := r.ConceptMatches("name")
	foundCol := false
	for _, m := range ms {
		if m.Element.Kind == ColumnElement && m.Element.Column == "Name" {
			foundCol = true
			if m.Weight != WeightExactName {
				t.Errorf("column match weight = %f", m.Weight)
			}
		}
	}
	if !foundCol {
		t.Fatalf("no column match for 'name': %v", ms)
	}
	// Expert equivalent: "id" is a component of "Gene ID" ⇔ GID.
	ms = r.ConceptMatches("id")
	found := false
	for _, m := range ms {
		if m.Element.Kind == ColumnElement && m.Element.Column == "GID" && m.Weight == WeightEquivalentName {
			found = true
		}
	}
	if !found {
		t.Errorf("equivalent-name match missing: %v", ms)
	}
}

func TestConceptMatchesSynonym(t *testing.T) {
	_, r := fixture(t)
	// "locus" is a DefaultLexicon synonym of "gene".
	ms := r.ConceptMatches("locus")
	found := false
	for _, m := range ms {
		if m.Element.Kind == TableElement && m.Element.Table == "Gene" {
			found = true
			if m.Weight != WeightSynonym {
				t.Errorf("synonym weight = %f, want %f", m.Weight, WeightSynonym)
			}
		}
	}
	if !found {
		t.Errorf("synonym match missing: %v", ms)
	}
}

func TestConceptMatchesMultiWordConceptName(t *testing.T) {
	_, r := fixture(t)
	// "family" matches the Family column exactly and the "Gene Family"
	// concept by component.
	ms := r.ConceptMatches("family")
	col := false
	for _, m := range ms {
		if m.Element.Kind == ColumnElement && m.Element.Column == "Family" {
			col = true
		}
	}
	if !col {
		t.Errorf("family column match missing: %v", ms)
	}
}

func TestConceptMatchesNoise(t *testing.T) {
	_, r := fixture(t)
	if ms := r.ConceptMatches("correlated"); len(ms) != 0 {
		t.Errorf("noise word matched: %v", ms)
	}
}

func TestValueMatchesPattern(t *testing.T) {
	_, r := fixture(t)
	ms := r.ValueMatches("JW0014")
	var gid float64
	for _, m := range ms {
		if m.Column.Column == "GID" {
			gid = m.Weight
		}
	}
	if gid < 0.9 {
		t.Errorf("pattern-conforming word scored %f for GID", gid)
	}
	// A non-conforming identifier gets the weak shape-only score on GID:
	// above the loose 0.4 cutoff, below 0.6.
	ms = r.ValueMatches("XX99")
	for _, m := range ms {
		if m.Column.Column == "GID" && (m.Weight != valueShapeOnly) {
			t.Errorf("non-conforming identifier scored %f for GID, want %f", m.Weight, valueShapeOnly)
		}
	}
}

func TestValueMatchesOntology(t *testing.T) {
	_, r := fixture(t)
	ms := r.ValueMatches("F3")
	var fam float64
	for _, m := range ms {
		if m.Column.Column == "Family" {
			fam = m.Weight
		}
	}
	if fam < 0.9 {
		t.Errorf("ontology member scored %f", fam)
	}
	ms = r.ValueMatches("F99")
	for _, m := range ms {
		if m.Column.Column == "Family" && m.Weight > valueBase {
			t.Errorf("ontology non-member scored %f", m.Weight)
		}
	}
}

func TestValueMatchesTypeGate(t *testing.T) {
	_, r := fixture(t)
	// Also register the int column as a target via a new concept.
	if err := r.AddConcept(&Concept{Name: "Gene Length", Table: "Gene", ReferencedBy: [][]string{{"Length"}}}); err != nil {
		t.Fatal(err)
	}
	// "yaaB" cannot be an int.
	for _, m := range r.ValueMatches("yaaB") {
		if m.Column.Column == "Length" {
			t.Errorf("non-numeric word matched int column: %+v", m)
		}
	}
	// "1130" can.
	found := false
	for _, m := range r.ValueMatches("1130") {
		if m.Column.Column == "Length" {
			found = true
		}
	}
	if !found {
		t.Error("numeric word should type-match int column")
	}
}

func TestValueMatchesSampleFallback(t *testing.T) {
	_, r := fixture(t)
	// PName has no ontology/pattern; draw a sample and match against it.
	col := ColumnRef{Table: "Protein", Column: "PName"}
	if err := r.DrawSample(col, 10, rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	ms := r.ValueMatches("G-Actin")
	var w float64
	for _, m := range ms {
		if m.Column == col {
			w = m.Weight
		}
	}
	if w < 0.9 {
		t.Errorf("exact sample hit scored %f", w)
	}
	// A close-but-not-exact identifier still scores usefully.
	ms = r.ValueMatches("G-Actine")
	for _, m := range ms {
		if m.Column == col && m.Weight <= valueBase {
			t.Errorf("near sample hit scored %f", m.Weight)
		}
	}
}

func TestValueMatchesPlainWordStaysLow(t *testing.T) {
	_, r := fixture(t)
	for _, m := range r.ValueMatches("correlated") {
		if m.Weight >= 0.4 {
			t.Errorf("plain word scored %f on %s", m.Weight, m.Column)
		}
	}
}

func TestDrawSampleDeterminism(t *testing.T) {
	_, r := fixture(t)
	col := ColumnRef{Table: "Gene", Column: "Name"}
	if err := r.DrawSample(col, 2, rand.New(rand.NewSource(7))); err != nil {
		t.Fatal(err)
	}
	s1, _ := r.Sample(col)
	if err := r.DrawSample(col, 2, rand.New(rand.NewSource(7))); err != nil {
		t.Fatal(err)
	}
	s2, _ := r.Sample(col)
	if len(s1) != 2 || len(s2) != 2 || s1[0] != s2[0] || s1[1] != s2[1] {
		t.Errorf("sampling not deterministic: %v vs %v", s1, s2)
	}
	if err := r.DrawSample(ColumnRef{Table: "Nope", Column: "X"}, 2, rand.New(rand.NewSource(1))); err == nil {
		t.Error("unknown table should fail")
	}
	if err := r.DrawSample(ColumnRef{Table: "Gene", Column: "Nope"}, 2, rand.New(rand.NewSource(1))); err == nil {
		t.Error("unknown column should fail")
	}
}

func TestSetPatternInvalid(t *testing.T) {
	_, r := fixture(t)
	if err := r.SetPattern(ColumnRef{Table: "Gene", Column: "GID"}, `[unclosed`); err == nil {
		t.Error("invalid regexp should fail")
	}
}

func TestLexicon(t *testing.T) {
	l := DefaultLexicon()
	if !l.AreSynonyms("gene", "locus") || !l.AreSynonyms("LOCUS", "Gene") {
		t.Error("synonym lookup failed")
	}
	if l.AreSynonyms("gene", "gene") {
		t.Error("identical words are not synonyms")
	}
	if l.AreSynonyms("gene", "protein") {
		t.Error("unrelated words matched")
	}
	syns := l.Synonyms("gene")
	if len(syns) != 2 {
		t.Errorf("Synonyms(gene) = %v", syns)
	}
	if l.Synonyms("notaword") != nil {
		t.Error("unknown word should have no synonyms")
	}
	l.AddGroup("alpha", "beta")
	if !l.AreSynonyms("alpha", "beta") {
		t.Error("AddGroup failed")
	}
}

func TestElementKindAndColumnRefStrings(t *testing.T) {
	if TableElement.String() != "table" || ColumnElement.String() != "column" {
		t.Error("ElementKind.String wrong")
	}
	e := SchemaElement{Kind: ColumnElement, Table: "Gene", Column: "GID"}
	if e.String() != "Gene.GID" {
		t.Errorf("SchemaElement.String = %q", e.String())
	}
	e2 := SchemaElement{Kind: TableElement, Table: "Gene"}
	if e2.String() != "Gene" {
		t.Errorf("table element String = %q", e2.String())
	}
	if (ColumnRef{Table: "Gene", Column: "GID"}).String() != "Gene.GID" {
		t.Error("ColumnRef.String wrong")
	}
}

func TestRepositoryAccessors(t *testing.T) {
	db, r := fixture(t)
	if r.Database() != db {
		t.Error("Database() wrong")
	}
	if r.Lexicon() == nil {
		t.Error("Lexicon() nil")
	}
	if len(r.Concepts()) != 3 {
		t.Errorf("Concepts = %d", len(r.Concepts()))
	}
	r.SetSample(ColumnRef{Table: "Protein", Column: "PName"}, []string{"G-Actin"})
	if s, ok := r.Sample(ColumnRef{Table: "Protein", Column: "PName"}); !ok || len(s) != 1 {
		t.Error("SetSample/Sample round trip failed")
	}
}

func TestCombinationSiblings(t *testing.T) {
	_, r := fixture(t)
	// Protein is referenced by {PID} or {PName, PType}.
	sibs := r.CombinationSiblings(ColumnRef{Table: "Protein", Column: "PName"})
	if len(sibs) != 1 || sibs[0].Column != "PType" {
		t.Fatalf("siblings of PName = %v", sibs)
	}
	sibs = r.CombinationSiblings(ColumnRef{Table: "Protein", Column: "PType"})
	if len(sibs) != 1 || sibs[0].Column != "PName" {
		t.Fatalf("siblings of PType = %v", sibs)
	}
	// Single-column alternatives have no siblings.
	if sibs := r.CombinationSiblings(ColumnRef{Table: "Protein", Column: "PID"}); len(sibs) != 0 {
		t.Errorf("siblings of PID = %v", sibs)
	}
	if sibs := r.CombinationSiblings(ColumnRef{Table: "Gene", Column: "GID"}); len(sibs) != 0 {
		t.Errorf("siblings of GID = %v", sibs)
	}
	// Unknown table.
	if sibs := r.CombinationSiblings(ColumnRef{Table: "Nope", Column: "X"}); len(sibs) != 0 {
		t.Errorf("siblings of unknown = %v", sibs)
	}
}

func TestColumnSelectivity(t *testing.T) {
	_, r := fixture(t)
	// Gene.GID is unique: selectivity 1.
	if s := r.ColumnSelectivity(ColumnRef{Table: "Gene", Column: "GID"}); s != 1 {
		t.Errorf("GID selectivity = %f", s)
	}
	// Cached value stays stable even after data changes...
	gt := r.Database().MustTable("Gene")
	if _, err := gt.Insert([]relational.Value{
		relational.String("JW0099"), relational.String("aaaZ"),
		relational.Int(1), relational.String("F1"),
	}); err != nil {
		t.Fatal(err)
	}
	if s := r.ColumnSelectivity(ColumnRef{Table: "Gene", Column: "GID"}); s != 1 {
		t.Errorf("cached selectivity changed: %f", s)
	}
	// Family is not unique, so its ratio is a fraction. Its cached
	// value also survives a later insert, and every spelling of the column
	// reads the one entry.
	family := r.ColumnSelectivity(ColumnRef{Table: "Gene", Column: "Family"})
	if family <= 0 || family >= 1 {
		t.Fatalf("Family selectivity = %f, want a fraction", family)
	}
	if _, err := gt.Insert([]relational.Value{
		relational.String("JW0098"), relational.String("aaaY"),
		relational.Int(1), relational.String("F-new"),
	}); err != nil {
		t.Fatal(err)
	}
	for _, spelling := range []ColumnRef{{Table: "Gene", Column: "Family"}, {Table: "gene", Column: "FAMILY"}} {
		if s := r.ColumnSelectivity(spelling); s != family {
			t.Errorf("%v selectivity = %f, want the cached %f", spelling, s, family)
		}
	}
	// A repository built over the changed data computes afresh.
	fresh := NewRepository(r.Database(), nil)
	want := float64(gt.DistinctCount("Family")) / float64(gt.Len())
	if s := fresh.ColumnSelectivity(ColumnRef{Table: "Gene", Column: "Family"}); s != want || s == family {
		t.Errorf("fresh Family selectivity = %f, want %f (cached %f)", s, want, family)
	}
	// Unknown column: zero.
	if s := r.ColumnSelectivity(ColumnRef{Table: "Nope", Column: "X"}); s != 0 {
		t.Errorf("unknown selectivity = %f", s)
	}
}
