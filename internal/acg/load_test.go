package acg

import (
	"fmt"
	"reflect"
	"testing"

	"nebula/internal/annotation"
	"nebula/internal/relational"
)

// loadLists builds annotations over a small tuple pool so that edges repeat
// across annotations; some list a tuple twice and some list none.
func loadLists(n int) []AnnotationTuples {
	var out []AnnotationTuples
	for i := 0; i < n; i++ {
		a := AnnotationTuples{ID: annotation.ID(fmt.Sprintf("ann-%03d", i))}
		for k := 0; k < (i*5)%7; k++ {
			table := "Gene"
			if (i+k)%4 == 0 {
				table = "Protein"
			}
			a.Tuples = append(a.Tuples, relational.TupleID{Table: table, Key: fmt.Sprintf("s:%03d", (i*i+k*3)%29)})
		}
		if i%6 == 5 && len(a.Tuples) > 0 {
			a.Tuples = append(a.Tuples, a.Tuples[0])
		}
		out = append(out, a)
	}
	return out
}

func addSequentially(lists []AnnotationTuples) *Graph {
	g := New(4, 0.3)
	for _, l := range lists {
		g.AddAnnotation(l.ID, l.Tuples)
	}
	return g
}

func requireSameGraph(t *testing.T, got, want *Graph) {
	t.Helper()
	for _, c := range []struct {
		name      string
		got, want any
	}{
		{"annotation sets per tuple", got.anns, want.anns},
		{"tuple lists per annotation", got.byAnn, want.byAnn},
		{"adjacency", got.adj, want.adj},
		{"stability", got.stability, want.stability},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Fatalf("%s differ", c.name)
		}
	}
}

func TestLoadMatchesSequentialAddAnnotation(t *testing.T) {
	for _, n := range []int{0, 1, 3, 60} {
		lists := loadLists(n)
		want := addSequentially(lists)
		got, err := Load(4, 0.3, lists)
		if err != nil {
			t.Fatal(err)
		}
		// Load leaves the tracker to the caller, as a restore does.
		got.RestoreStabilityState(want.StabilityState())
		requireSameGraph(t, got, want)
		if n < 3 {
			continue
		}

		// The loaded graph is live: the same mutations leave the same
		// state as on the sequential one.
		for _, g := range []*Graph{got, want} {
			g.AddAttachment(lists[1].ID, relational.TupleID{Table: "Gene", Key: "s:new"})
			g.AddAnnotation("late", []relational.TupleID{lists[2].Tuples[0], {Table: "Gene", Key: "s:new"}})
			g.RemoveTuple(lists[2].Tuples[0])
		}
		requireSameGraph(t, got, want)
	}
}

func TestLoadRejectsAnAnnotationListedTwice(t *testing.T) {
	lists := loadLists(10)
	lists = append(lists, lists[3])
	if _, err := Load(4, 0.3, lists); err == nil {
		t.Error("accepted")
	}
}
