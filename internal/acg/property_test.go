package acg

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"nebula/internal/annotation"
	"nebula/internal/relational"
)

// TestGraphRandomInvariants grows and shrinks a graph with random
// annotations, attachments, retractions (RemoveAttachment) and tuple
// deletions (RemoveTuple), and after every step checks it against a model
// built from the attachment lists alone:
//
//  1. an edge exists exactly when two tuples share an annotation;
//  2. neighbor lists are symmetric and hold no duplicates;
//  3. Weight equals the model's Jaccard of the two annotation sets;
//  4. HopsToAny equals a BFS over the model's edges;
//  5. Load(Dump()) has the same nodes, edges and weights.
func TestGraphRandomInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	g := New(0, 0)
	const nTup = 12
	attached := map[annotation.ID]map[relational.TupleID]struct{}{}
	existing := func() []annotation.ID {
		var ids []annotation.ID
		for id := range attached {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		return ids
	}

	for step := 0; step < 600; step++ {
		ids := existing()
		switch op := rng.Intn(6); {
		case op < 2 || len(ids) == 0:
			id := annotation.ID(fmt.Sprintf("a%d", step))
			n := 1 + rng.Intn(4)
			var tuples []relational.TupleID
			set := map[relational.TupleID]struct{}{}
			for len(set) < n {
				tu := modelTuple(rng.Intn(nTup))
				if _, dup := set[tu]; !dup {
					set[tu] = struct{}{}
					tuples = append(tuples, tu)
				}
			}
			g.AddAnnotation(id, tuples)
			attached[id] = set
		case op < 4:
			id := ids[rng.Intn(len(ids))]
			tu := modelTuple(rng.Intn(nTup))
			g.AddAttachment(id, tu)
			attached[id][tu] = struct{}{}
		case op < 5:
			id := ids[rng.Intn(len(ids))]
			tu := modelTuple(rng.Intn(nTup))
			_, had := attached[id][tu]
			if got := g.RemoveAttachment(id, tu); got != had {
				t.Fatalf("step %d: RemoveAttachment(%s, %v) = %v, model says %v", step, id, tu, got, had)
			}
			delete(attached[id], tu)
		default:
			tu := modelTuple(rng.Intn(nTup))
			g.RemoveTuple(tu)
			for _, set := range attached {
				delete(set, tu)
			}
		}
		checkGraphInvariants(t, g, attached, nTup, step)
		loaded, err := Load(0, 0, g.Dump())
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		checkGraphInvariants(t, loaded, attached, nTup, step)
	}
}

func modelTuple(i int) relational.TupleID {
	return relational.TupleID{Table: "T", Key: fmt.Sprintf("s:%d", i)}
}

// checkGraphInvariants compares g with the graph the attachment lists
// define, over the tuple pool modelTuple(0..nTup-1).
func checkGraphInvariants(t *testing.T, g *Graph, attached map[annotation.ID]map[relational.TupleID]struct{}, nTup, step int) {
	t.Helper()
	annsOf := make([]map[annotation.ID]bool, nTup)
	nodes := 0
	for i := range annsOf {
		annsOf[i] = map[annotation.ID]bool{}
		for id, set := range attached {
			if _, ok := set[modelTuple(i)]; ok {
				annsOf[i][id] = true
			}
		}
		if len(annsOf[i]) > 0 {
			nodes++
		}
		if got := g.Contains(modelTuple(i)); got != (len(annsOf[i]) > 0) {
			t.Fatalf("step %d: Contains(%v) = %v with %d annotations", step, modelTuple(i), got, len(annsOf[i]))
		}
		if g.AnnotationsOf(modelTuple(i)) != len(annsOf[i]) {
			t.Fatalf("step %d: AnnotationsOf(%v) = %d, model %d", step, modelTuple(i), g.AnnotationsOf(modelTuple(i)), len(annsOf[i]))
		}
	}
	if g.Nodes() != nodes {
		t.Fatalf("step %d: Nodes() = %d, model %d", step, g.Nodes(), nodes)
	}

	// The model's edges and weights.
	adjacent := make([][]bool, nTup)
	degree := make([]int, nTup)
	edges := 0
	for i := range adjacent {
		adjacent[i] = make([]bool, nTup)
		for j := 0; j < nTup; j++ {
			common := 0
			for id := range annsOf[i] {
				if annsOf[j][id] {
					common++
				}
			}
			want := 0.0
			if i != j && common > 0 {
				adjacent[i][j] = true
				degree[i]++
				want = float64(common) / float64(len(annsOf[i])+len(annsOf[j])-common)
				if i < j {
					edges++
				}
			}
			if w := g.Weight(modelTuple(i), modelTuple(j)); w != want {
				t.Fatalf("step %d: Weight(%d, %d) = %v, model %v", step, i, j, w, want)
			}
		}
	}
	if g.Edges() != edges {
		t.Fatalf("step %d: Edges() = %d, model %d", step, g.Edges(), edges)
	}

	for i := 0; i < nTup; i++ {
		nb := g.Neighbors(modelTuple(i))
		seen := map[relational.TupleID]bool{}
		for _, n := range nb {
			if seen[n] {
				t.Fatalf("step %d: %v listed twice among the neighbors of %d", step, n, i)
			}
			seen[n] = true
			if !slices.Contains(g.Neighbors(n), modelTuple(i)) {
				t.Fatalf("step %d: %v neighbors %d but not the other way", step, n, i)
			}
		}
		for j := 0; j < nTup; j++ {
			if seen[modelTuple(j)] != adjacent[i][j] {
				t.Fatalf("step %d: edge %d-%d is %v, model %v", step, i, j, seen[modelTuple(j)], adjacent[i][j])
			}
		}
		if len(nb) != degree[i] {
			t.Fatalf("step %d: %d has neighbors outside the pool: %v", step, i, nb)
		}
	}

	// HopsToAny against a BFS over the model, from every single focal
	// tuple and from every adjacent pair of them.
	for f := 0; f < nTup; f++ {
		for _, focal := range [][]int{{f}, {f, (f + 1) % nTup}} {
			dist := map[int]int{}
			queue := []int{}
			var focalIDs []relational.TupleID
			for _, s := range focal {
				dist[s] = 0
				queue = append(queue, s)
				focalIDs = append(focalIDs, modelTuple(s))
			}
			for len(queue) > 0 {
				cur := queue[0]
				queue = queue[1:]
				for nb := 0; nb < nTup; nb++ {
					if _, seen := dist[nb]; adjacent[cur][nb] && !seen {
						dist[nb] = dist[cur] + 1
						queue = append(queue, nb)
					}
				}
			}
			for i := 0; i < nTup; i++ {
				want, reachable := dist[i]
				if got, ok := g.HopsToAny(modelTuple(i), focalIDs); ok != reachable || got != want {
					t.Fatalf("step %d: HopsToAny(%d, %v) = %d,%v; model %d,%v", step, i, focal, got, ok, want, reachable)
				}
			}
		}
	}
}

// TestNeighborhoodSubsetProperty: Neighborhood(f, k) ⊆ Neighborhood(f, k+1),
// and every member's HopsToAny distance is ≤ k.
func TestNeighborhoodSubsetProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := New(0, 0)
	tup := func(i int) relational.TupleID {
		return relational.TupleID{Table: "T", Key: fmt.Sprintf("s:%d", i)}
	}
	for i := 0; i < 60; i++ {
		g.AddAnnotation(annotation.ID(fmt.Sprintf("a%d", i)),
			[]relational.TupleID{tup(rng.Intn(30)), tup(rng.Intn(30))})
	}
	focal := []relational.TupleID{tup(0), tup(17)}
	prev := map[relational.TupleID]bool{}
	for k := 0; k <= 5; k++ {
		cur := g.Neighborhood(focal, k)
		curSet := map[relational.TupleID]bool{}
		for _, tu := range cur {
			curSet[tu] = true
			if d, ok := g.HopsToAny(tu, focal); !ok || d > k {
				t.Fatalf("K=%d contains tuple at distance %d (ok=%v)", k, d, ok)
			}
		}
		for tu := range prev {
			if !curSet[tu] {
				t.Fatalf("K=%d lost tuple %v from K-1", k, tu)
			}
		}
		prev = curSet
	}
}
