package relational

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"nebula/internal/raceflag"
)

// kernelCells are the string cells the differential suites plant: mixed
// case, the empty string, cells of 64 bytes and more, and non-ASCII text
// whose ToLower changes byte length ("İ" → "i", "K" (Kelvin sign) → "k")
// or does not fold the way ASCII intuition says ("ß", "ſ").
var kernelCells = []string{
	"", "abc", "ABC", "aBc", "abcd", "k", "K", "i", "I", "ss", "SS", "s",
	"İ", "K", "ß", "ſ", "straße", "STRASSE", "é", "É", "İstanbul", "istanbul",
	"\xff", "a\xffb", "tgct", "TGCT", "TgCt word", "word tgct", "x-TGCT-y",
	strings.Repeat("Ab", 32), strings.Repeat("ab", 32), strings.Repeat("ab", 40),
	strings.Repeat("é", 32),
}

// kernelSchema is kernelDB's table: two unindexed string columns, which
// keep hash columns, and a full-text one, an int and a float, which the
// kernel folds in place.
func kernelSchema() *Schema {
	return &Schema{
		Name: "T",
		Columns: []Column{
			{Name: "ID", Type: TypeString, Indexed: true},
			{Name: "Cell", Type: TypeString},
			{Name: "Other", Type: TypeString},
			{Name: "Text", Type: TypeString, FullText: true},
			{Name: "N", Type: TypeInt},
			{Name: "F", Type: TypeFloat},
		},
		PrimaryKey: "ID",
	}
}

// kernelDB holds every cell of cells in the string columns of kernelSchema,
// beside an int and a float column, over enough rows that a parallel pass
// splits into several segments.
func kernelDB(t testing.TB, cells []string, rows int) *Database {
	t.Helper()
	db := NewDatabase()
	tbl, err := db.CreateTable(kernelSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if _, err := tbl.Insert([]Value{
			String(fmt.Sprintf("r%05d", i)),
			String(cells[i%len(cells)]),
			String(cells[(i/3)%len(cells)]),
			String(cells[(i/7)%len(cells)]),
			Int(int64(i % 7)),
			Float(float64(i%5) / 2),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// kernelQueries probes the three string columns with every operand, adds
// int and float probes (one of a kind the column never holds), and
// residuals of each operator.
func kernelQueries(operands []string) []Query {
	var qs []Query
	for _, o := range operands {
		qs = append(qs,
			Query{Table: "T", Predicates: []Predicate{{Column: "Cell", Op: OpEq, Operand: String(o)}}},
			Query{Table: "t", Predicates: []Predicate{{Column: "OTHER", Op: OpEq, Operand: String(o)}}},
			Query{Table: "T", Predicates: []Predicate{{Column: "Text", Op: OpEq, Operand: String(o)}}},
			Query{Table: "T", Predicates: []Predicate{{Column: "Cell", Op: OpPrefix, Operand: String(o)}}},
			Query{Table: "T", Predicates: []Predicate{{Column: "cell", Op: OpContainsToken, Operand: String(o)}}},
			Query{Table: "T", Predicates: []Predicate{
				{Column: "Cell", Op: OpEq, Operand: String(o)},
				{Column: "N", Op: OpEq, Operand: Int(3)},
			}},
		)
	}
	qs = append(qs,
		Query{Table: "T", Predicates: []Predicate{{Column: "N", Op: OpEq, Operand: Int(3)}}},
		Query{Table: "T", Predicates: []Predicate{{Column: "N", Op: OpEq, Operand: String("3")}}},
		Query{Table: "T", Predicates: []Predicate{{Column: "F", Op: OpEq, Operand: Float(1.5)}}},
		Query{Table: "T", Predicates: []Predicate{{Column: "Cell", Op: OpEq, Operand: Int(3)}}},
		Query{Table: "T", Predicates: []Predicate{{Column: "ID", Op: OpEq, Operand: String("R00004")}}},
		Query{Table: "T"},
	)
	return qs
}

type scanOutcome struct {
	IDs   [][]TupleID
	Stats SelectStats
}

func runScan(t testing.TB, db *Database, qs []Query, workers int, mode scanMode) scanOutcome {
	t.Helper()
	sets, stats, err := db.selectMultiWorkers(qs, workers, mode)
	if err != nil {
		t.Fatal(err)
	}
	out := scanOutcome{IDs: make([][]TupleID, len(sets)), Stats: stats}
	for i, rows := range sets {
		for _, r := range rows {
			out.IDs[i] = append(out.IDs[i], r.ID)
		}
	}
	return out
}

// TestSharedPassMatchesReference holds the folded-hash kernel against the
// Key()-per-row pass it replaced: same rows, same order, same stats, at
// every worker count.
func TestSharedPassMatchesReference(t *testing.T) {
	db := kernelDB(t, kernelCells, 1500)
	qs := kernelQueries(kernelCells)
	want := runScan(t, db, qs, 1, scanReference)
	matched := 0
	for _, ids := range want.IDs {
		matched += len(ids)
	}
	if matched == 0 {
		t.Fatal("reference matched nothing: the suite proves nothing")
	}
	for _, workers := range []int{1, 2, 4} {
		for _, mode := range []scanMode{scanFolded, scanCollide, scanReference} {
			got := runScan(t, db, qs, workers, mode)
			if !reflect.DeepEqual(got, want) {
				for i := range qs {
					if !reflect.DeepEqual(got.IDs[i], want.IDs[i]) {
						t.Errorf("workers=%d mode=%d: %s: got %d rows, want %d", workers, mode, qs[i], len(got.IDs[i]), len(want.IDs[i]))
					}
				}
				t.Fatalf("workers=%d mode=%d: stats %+v, want %+v", workers, mode, got.Stats, want.Stats)
			}
		}
	}
}

// TestSharedPassLengthChangingFolds pins the cases a byte-wise fold gets
// wrong if it trusts lengths: a non-ASCII cell matching a shorter ASCII
// operand and the reverse.
func TestSharedPassLengthChangingFolds(t *testing.T) {
	db := kernelDB(t, kernelCells, len(kernelCells))
	for _, tc := range []struct {
		operand string
		cells   []string
	}{
		{"k", []string{"k", "K", "K"}},
		{"K", []string{"k", "K", "K"}},
		{"i", []string{"i", "I", "İ"}},
		{"İ", []string{"i", "I", "İ"}},
		{"ß", []string{"ß"}},
		{"ss", []string{"ss", "SS"}},
		{"", []string{""}},
	} {
		q := []Query{{Table: "T", Predicates: []Predicate{{Column: "Cell", Op: OpEq, Operand: String(tc.operand)}}}}
		sets, _, err := db.SelectMultiWorkers(q, 1)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, r := range sets[0] {
			got = append(got, r.Values[1].Str())
		}
		want := map[string]bool{}
		for _, c := range tc.cells {
			want[c] = true
		}
		if len(got) != len(tc.cells) {
			t.Errorf("operand %q matched cells %q, want %q", tc.operand, got, tc.cells)
		}
		for _, c := range got {
			if !want[c] {
				t.Errorf("operand %q matched cell %q", tc.operand, c)
			}
		}
	}
}

// TestSharedPassHashCollision forces every operand of a probe onto one hash
// and checks that only the fold-compare's verdict reaches the results.
func TestSharedPassHashCollision(t *testing.T) {
	db := kernelDB(t, []string{"alpha", "ALPHA", "alphb", "bravo", "charl"}, 500)
	var qs []Query
	for _, o := range []string{"alpha", "bravo", "delta", "alphb", "Bravo"} {
		qs = append(qs, Query{Table: "T", Predicates: []Predicate{{Column: "Cell", Op: OpEq, Operand: String(o)}}})
	}
	// The probe really is degenerate under scanCollide.
	pass := &tablePass{t: db.MustTable("T")}
	for i, q := range qs {
		pass.add(i, q)
	}
	pass.probes[0].seal(scanCollide)
	if n := len(pass.probes[0].ops); n != 4 {
		t.Fatalf("probe holds %d operands, want 4 distinct keys", n)
	}
	for _, op := range pass.probes[0].ops {
		if op.hash != 0 {
			t.Fatalf("operand %q kept hash %x under scanCollide", op.lower, op.hash)
		}
	}
	got := runScan(t, db, qs, 2, scanCollide)
	want := runScan(t, db, qs, 1, scanReference)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("colliding hashes changed the result:\n got %+v\nwant %+v", got.Stats, want.Stats)
	}
	if len(got.IDs[0]) != 200 || len(got.IDs[2]) != 0 || len(got.IDs[3]) != 100 {
		t.Fatalf("alpha/delta/alphb matched %d/%d/%d rows, want 200/0/100", len(got.IDs[0]), len(got.IDs[2]), len(got.IDs[3]))
	}
	if !reflect.DeepEqual(got.IDs[1], got.IDs[4]) {
		t.Fatal("bravo and Bravo share a key and must share their rows")
	}
}

// FuzzSharedPassProbe plants a fuzzed cell among the fixed ones and probes
// with a fuzzed operand through all three operators; the kernel must agree
// with the reference pass.
func FuzzSharedPassProbe(f *testing.F) {
	for _, c := range kernelCells {
		f.Add(c, c)
		f.Add(c, strings.ToUpper(c))
		f.Add(strings.ToLower(c), c)
	}
	f.Add("K", "k")
	f.Add("k", "K")
	f.Add("İ", "i")
	f.Add("i̇", "İ")
	f.Add("tgct", "x tgct y")
	f.Fuzz(func(t *testing.T, operand, cell string) {
		cells := append([]string{cell, strings.ToUpper(cell), strings.ToLower(cell)}, kernelCells...)
		db := kernelDB(t, cells, 2*len(cells))
		qs := kernelQueries([]string{operand, strings.ToLower(operand), cell})
		want := runScan(t, db, qs, 1, scanReference)
		for _, mode := range []scanMode{scanFolded, scanCollide} {
			if got := runScan(t, db, qs, 1, mode); !reflect.DeepEqual(got, want) {
				t.Fatalf("mode %d diverged from the reference for operand %q, cell %q", mode, operand, cell)
			}
		}
	})
}

// TestFoldHelpersMatchToLower holds the in-place folds against the
// strings.ToLower formulations they replace, over every pair of the corpus.
func TestFoldHelpersMatchToLower(t *testing.T) {
	for _, text := range kernelCells {
		lt := strings.ToLower(text)
		if h, ascii := foldHashASCII(text); ascii {
			if hl, _ := foldHashASCII(lt); h != hl {
				t.Errorf("foldHashASCII(%q) != foldHashASCII(%q)", text, lt)
			}
			if !foldEqualASCII(text, lt) {
				t.Errorf("foldEqualASCII(%q, %q) = false", text, lt)
			}
		} else if isASCII(text) {
			t.Errorf("foldHashASCII and isASCII disagree on %q", text)
		}
		for _, operand := range kernelCells {
			lo := strings.ToLower(operand)
			if got, want := hasPrefixFold(text, lo), strings.HasPrefix(lt, lo); got != want {
				t.Errorf("hasPrefixFold(%q, %q) = %v, want %v", text, lo, got, want)
			}
			if got, want := containsToken(text, lo), containsTokenLowered(lt, lo); got != want {
				t.Errorf("containsToken(%q, %q) = %v, want %v", text, lo, got, want)
			}
		}
	}
}

// asciiScanDB is an all-ASCII table of the given size with mixed-case cells
// and eight same-column probes, one per distinct operand length class.
func asciiScanDB(t testing.TB, rows int) (*Database, []Query) {
	t.Helper()
	cells := make([]string, 97)
	for i := range cells {
		cells[i] = fmt.Sprintf("Gene%cName%03d", 'A'+i%26, i)
	}
	db := kernelDB(t, cells, rows)
	qs := make([]Query, 8)
	for i := range qs {
		qs[i] = Query{Table: "T", Predicates: []Predicate{{Column: "Cell", Op: OpEq, Operand: String(strings.ToLower(cells[i*11]))}}}
	}
	return db, qs
}

// TestSharedPassAllocsIndependentOfRows is the allocation guard: on an
// ASCII table the pass allocates for its set-up and its results, never per
// row scanned. The operands match nothing here so that result growth does
// not blur the count.
func TestSharedPassAllocsIndependentOfRows(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	allocs := func(rows int) float64 {
		db, qs := asciiScanDB(t, rows)
		for i := range qs {
			qs[i].Predicates[0].Operand = String(qs[i].Predicates[0].Operand.Str() + "x")
		}
		return testing.AllocsPerRun(20, func() {
			if _, _, err := db.SelectMultiWorkers(qs, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1000), allocs(8000)
	if small != large {
		t.Errorf("allocations grow with the table: %v at 1k rows, %v at 8k rows", small, large)
	}
	db, qs := asciiScanDB(t, 1000)
	ref := testing.AllocsPerRun(5, func() {
		if _, _, err := db.SelectMultiReference(qs, 1); err != nil {
			t.Fatal(err)
		}
	})
	if ref < 1000 {
		t.Errorf("reference pass allocated %v times over 1k mixed-case rows; the guard above compares nothing", ref)
	}
}

// BenchmarkSharedPassProbe measures one 8-query shared pass through the
// folded-hash kernel at 1 and 2 workers over tables of the D_mid sizes
// (4 500 proteins, 7 500 genes, 15 000 publications), and through the
// reference pass over 8k rows. Two workers against one at each size is
// what minSegmentRows is weighed on.
func BenchmarkSharedPassProbe(b *testing.B) {
	run := func(b *testing.B, rows, workers int, mode scanMode) {
		db, qs := asciiScanDB(b, rows)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := db.selectMultiWorkers(qs, workers, mode); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, rows := range []int{4500, 7500, 15000} {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("folded/rows=%d/workers=%d", rows, workers), func(b *testing.B) {
				run(b, rows, workers, scanFolded)
			})
		}
	}
	b.Run("reference/rows=8192/workers=1", func(b *testing.B) { run(b, 8192, 1, scanReference) })
}

// BenchmarkSharedPassSegment times the kernel alone over one segment of
// each candidate size for minSegmentRows; ns/op divided by the size is the
// per-row cost the constant is weighed against.
func BenchmarkSharedPassSegment(b *testing.B) {
	db, qs := asciiScanDB(b, 8192)
	pass := &tablePass{t: db.MustTable("T")}
	for i, q := range qs {
		pass.add(i, q)
	}
	pass.probes[0].seal(scanFolded)
	for _, size := range []int{64, 256, 1024, 8192} {
		b.Run(fmt.Sprint(size), func(b *testing.B) {
			hits := make([]hit, 0, 512)
			for i := 0; i < b.N; i++ {
				hits = pass.scan(0, size, hits[:0])
			}
		})
	}
}
