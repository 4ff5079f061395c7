package meta

import (
	"fmt"
	"math/rand"
	"testing"

	"nebula/internal/relational"
)

// estimatorFixture builds one 40-row table with an indexed category
// column (4 distinct values), an unindexed name column, and a full-text
// description column, plus a drawn sample for the description.
func estimatorFixture(t *testing.T) (*Repository, *Estimator) {
	t.Helper()
	db := relational.NewDatabase()
	tab, err := db.CreateTable(&relational.Schema{
		Name: "Item",
		Columns: []relational.Column{
			{Name: "IID", Type: relational.TypeString},
			{Name: "Cat", Type: relational.TypeString, Indexed: true},
			{Name: "Label", Type: relational.TypeString},
			{Name: "Desc", Type: relational.TypeString, FullText: true},
		},
		PrimaryKey: "IID",
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		desc := "common filler"
		if i%4 == 0 {
			desc = "rare marker token"
		}
		if _, err := tab.Insert([]relational.Value{
			relational.String(fmt.Sprintf("I%02d", i)),
			relational.String(fmt.Sprintf("C%d", i%4)),
			relational.String(fmt.Sprintf("label%d", i)),
			relational.String(desc),
		}); err != nil {
			t.Fatal(err)
		}
	}
	repo := NewRepository(db, nil)
	if err := repo.DrawSample(ColumnRef{Table: "Item", Column: "Desc"}, 40, rand.New(rand.NewSource(7))); err != nil {
		t.Fatal(err)
	}
	return repo, NewEstimator(repo)
}

// TestEstimateSelectIndexedEq: an equality on an indexed 4-distinct-value
// column costs one expected bucket (40/4 = 10 rows), not the full table.
func TestEstimateSelectIndexedEq(t *testing.T) {
	_, est := estimatorFixture(t)
	got := est.EstimateSelect(relational.Query{Table: "Item", Predicates: []relational.Predicate{
		{Column: "Cat", Op: relational.OpEq, Operand: relational.String("C1")},
	}})
	if !got.Indexed {
		t.Fatalf("indexed eq not recognized: %+v", got)
	}
	if got.Cost != 10 || got.Rows != 10 {
		t.Fatalf("Cost=%v Rows=%v, want bucket estimate 10 (40 rows / 4 distinct)", got.Cost, got.Rows)
	}
}

// TestEstimateSelectPrimaryKeyEq: a primary-key equality is index-driven
// even without an explicit index flag and estimates a single row.
func TestEstimateSelectPrimaryKeyEq(t *testing.T) {
	_, est := estimatorFixture(t)
	got := est.EstimateSelect(relational.Query{Table: "Item", Predicates: []relational.Predicate{
		{Column: "IID", Op: relational.OpEq, Operand: relational.String("I07")},
	}})
	if !got.Indexed {
		t.Fatalf("pk eq not recognized as indexed: %+v", got)
	}
	if got.Cost != 1 || got.Rows != 1 {
		t.Fatalf("Cost=%v Rows=%v, want 1 (40 rows / 40 distinct keys)", got.Cost, got.Rows)
	}
}

// TestEstimateSelectUnindexedEq: an equality on an unindexed column still
// narrows the result estimate but pays the full scan cost.
func TestEstimateSelectUnindexedEq(t *testing.T) {
	_, est := estimatorFixture(t)
	got := est.EstimateSelect(relational.Query{Table: "Item", Predicates: []relational.Predicate{
		{Column: "Label", Op: relational.OpEq, Operand: relational.String("label3")},
	}})
	if got.Indexed {
		t.Fatalf("unindexed eq reported indexed: %+v", got)
	}
	if got.Cost != 40 {
		t.Fatalf("Cost=%v, want full scan 40", got.Cost)
	}
	if got.Rows != 1 {
		t.Fatalf("Rows=%v, want 1 (40 rows / 40 distinct labels)", got.Rows)
	}
}

// TestEstimateSelectTokenFromSample: token selectivity comes from the drawn
// sample — "marker" appears in a quarter of the rows, "filler" in the rest;
// a token absent from the sample floors at one expected row instead of
// rounding to zero.
func TestEstimateSelectTokenFromSample(t *testing.T) {
	_, est := estimatorFixture(t)
	marker := est.EstimateSelect(relational.Query{Table: "Item", Predicates: []relational.Predicate{
		{Column: "Desc", Op: relational.OpContainsToken, Operand: relational.String("marker")},
	}})
	filler := est.EstimateSelect(relational.Query{Table: "Item", Predicates: []relational.Predicate{
		{Column: "Desc", Op: relational.OpContainsToken, Operand: relational.String("filler")},
	}})
	absent := est.EstimateSelect(relational.Query{Table: "Item", Predicates: []relational.Predicate{
		{Column: "Desc", Op: relational.OpContainsToken, Operand: relational.String("unicorn")},
	}})
	if !marker.Indexed || !filler.Indexed || !absent.Indexed {
		t.Fatalf("full-text token not recognized as indexed: %+v %+v %+v", marker, filler, absent)
	}
	if marker.Rows != 10 {
		t.Fatalf("marker Rows=%v, want 10 (token in 10 of 40 sampled values)", marker.Rows)
	}
	if filler.Rows != 30 {
		t.Fatalf("filler Rows=%v, want 30", filler.Rows)
	}
	if absent.Rows != 1 || absent.Cost != 1 {
		t.Fatalf("absent token Rows=%v Cost=%v, want the one-row floor", absent.Rows, absent.Cost)
	}
	if marker.Cost >= filler.Cost {
		t.Fatalf("cost ordering lost: rare token %v !< common token %v", marker.Cost, filler.Cost)
	}
}

// TestEstimateSelectPrefixAssumesHalf: prefix predicates have no statistic
// and assume a half-table match at full scan cost.
func TestEstimateSelectPrefixAssumesHalf(t *testing.T) {
	_, est := estimatorFixture(t)
	got := est.EstimateSelect(relational.Query{Table: "Item", Predicates: []relational.Predicate{
		{Column: "Label", Op: relational.OpPrefix, Operand: relational.String("lab")},
	}})
	if got.Indexed || got.Cost != 40 || got.Rows != 20 {
		t.Fatalf("got %+v, want unindexed half-table estimate (Cost=40 Rows=20)", got)
	}
}

// TestEstimateSelectUnknownTable: unknown tables estimate to zero — the
// executor rejects them before scanning anything.
func TestEstimateSelectUnknownTable(t *testing.T) {
	_, est := estimatorFixture(t)
	if got := est.EstimateSelect(relational.Query{Table: "Nope"}); got != (SelectEstimate{}) {
		t.Fatalf("unknown table estimated %+v, want zero", got)
	}
}

// TestEstimateSelectDeterministic: estimates read only catalog state, so
// repeated calls agree exactly, whatever the worker count or cache state
// of the caller.
func TestEstimateSelectDeterministic(t *testing.T) {
	_, est := estimatorFixture(t)
	q := relational.Query{Table: "Item", Predicates: []relational.Predicate{
		{Column: "Cat", Op: relational.OpEq, Operand: relational.String("C2")},
		{Column: "Desc", Op: relational.OpContainsToken, Operand: relational.String("marker")},
	}}
	first := est.EstimateSelect(q)
	for i := 0; i < 5; i++ {
		if got := est.EstimateSelect(q); got != first {
			t.Fatalf("estimate drifted on call %d: %+v != %+v", i, got, first)
		}
	}
}
