package acg

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"nebula/internal/annotation"
	"nebula/internal/raceflag"
	"nebula/internal/relational"
)

// heapPerEdgeBudget bounds the bytes a graph retains per edge: the two
// neighbor-list entries plus its share of the node and annotation records,
// ≈ 216 B on amd64 with go1.24. Keeping a membership set per node beside
// its neighbor list measured ≈ 373 B.
const heapPerEdgeBudget = 270

// TestGraphHeapPerEdge is the resident-size guard: it grows a graph of
// ≥ 20 000 edges through AddAnnotation from identities allocated
// beforehand, and divides the heap the graph keeps live by its edges.
func TestGraphHeapPerEdge(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("heap sizes are not meaningful under the race detector")
	}
	rng := rand.New(rand.NewSource(41))
	pool := make([]relational.TupleID, 6000)
	for i := range pool {
		pool[i] = relational.TupleID{Table: "Gene", Key: fmt.Sprintf("s:jw%05d", i)}
	}
	lists := make([]AnnotationTuples, 3500)
	for i := range lists {
		lists[i].ID = annotation.ID(fmt.Sprintf("ann-%05d", i))
		for k := 2 + rng.Intn(5); k > 0; k-- {
			lists[i].Tuples = append(lists[i].Tuples, pool[rng.Intn(len(pool))])
		}
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	g := New(0, 0)
	for _, l := range lists {
		g.AddAnnotation(l.ID, l.Tuples)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	edges := g.Edges()
	runtime.KeepAlive(lists)

	if edges < 20000 {
		t.Fatalf("only %d edges; the guard needs ≥ 20 000", edges)
	}
	perEdge := float64(after.HeapAlloc-before.HeapAlloc) / float64(edges)
	t.Logf("%d nodes, %d edges: %.0f B retained per edge", g.Nodes(), edges, perEdge)
	if perEdge > heapPerEdgeBudget {
		t.Errorf("%.0f B retained per edge, budget %d B", perEdge, heapPerEdgeBudget)
	}
}
