package acg

import (
	"fmt"
	"sort"

	"nebula/internal/annotation"
	"nebula/internal/relational"
)

// AnnotationTuples is one annotation with the tuples it is attached to, in
// attachment order.
type AnnotationTuples struct {
	ID     annotation.ID
	Tuples []relational.TupleID
}

// Load builds the graph that AddAnnotation for every entry of anns, in that
// order, would leave on New(batchSize, mu): the same nodes and edges, the
// same tuple order per annotation and the same neighbor order per node. An
// annotation may be listed once only.
//
// AddAnnotation pays for every attachment in hashes: the node's annotation
// set, then for each earlier tuple of the annotation a shared-annotation
// test and both adjacency records. Load numbers the tuples once, finds the
// edges over those numbers in the order AddAnnotation would add them, and
// only then builds the maps, each at its final size with one insert per
// entry; tuple and neighbor lists are cut out of two slabs. It
// takes no lock and makes no stability observation: the graph is not shared
// yet, and a caller restoring a dump sets the tracker with
// RestoreStabilityState.
func Load(batchSize int, mu float64, anns []AnnotationTuples) (*Graph, error) {
	attachments := 0
	for _, a := range anns {
		attachments += len(a.Tuples)
	}

	// Number the tuples. flat holds every annotation's nodes end to end,
	// a tuple listed twice by one annotation counted once, as attach does.
	index := make(map[relational.TupleID]int32, attachments/2)
	var nodes []relational.TupleID
	var annotations []int32 // node -> annotations attached to it
	var listed []int        // node -> 1 + the last annotation that listed it
	flat := make([]int32, 0, attachments)
	ends := make([]int, len(anns))
	for ai, a := range anns {
		for _, t := range a.Tuples {
			n, ok := index[t]
			if !ok {
				n = int32(len(nodes))
				index[t] = n
				nodes = append(nodes, t)
				annotations = append(annotations, 0)
				listed = append(listed, 0)
			}
			if listed[n] == ai+1 {
				continue
			}
			listed[n] = ai + 1
			annotations[n]++
			flat = append(flat, n)
		}
		ends[ai] = len(flat)
	}

	// Find the edges: each tuple of an annotation against the ones listed
	// before it, which is the order attach adds them in.
	// Sized by the attachments, not by the pairs tried: a thousand
	// annotations over the same ten tuples try 45 000 pairs for 45 edges.
	type edge struct{ a, b int32 }
	edges := make([]edge, 0, len(flat))
	known := make(map[uint64]struct{}, len(flat))
	degree := make([]int32, len(nodes))
	start := 0
	for _, end := range ends {
		list := flat[start:end]
		start = end
		for j := 1; j < len(list); j++ {
			for _, b := range list[:j] {
				a := list[j]
				key := uint64(a)<<32 | uint64(b)
				if a > b {
					key = uint64(b)<<32 | uint64(a)
				}
				known[key] = struct{}{}
				if len(known) == len(edges) {
					continue // an earlier annotation made this edge
				}
				edges = append(edges, edge{a, b})
				degree[a]++
				degree[b]++
			}
		}
	}

	g := &Graph{
		anns:      make(map[relational.TupleID]map[annotation.ID]struct{}, len(nodes)),
		byAnn:     make(map[annotation.ID][]relational.TupleID, len(anns)),
		adj:       make(map[relational.TupleID]*adjacency, len(nodes)),
		stability: stabilityTracker{batchSize: batchSize, mu: mu},
	}

	sets := make([]map[annotation.ID]struct{}, len(nodes))
	for n, t := range nodes {
		sets[n] = make(map[annotation.ID]struct{}, annotations[n])
		g.anns[t] = sets[n]
	}
	tuples := make([]relational.TupleID, len(flat))
	for k, n := range flat {
		tuples[k] = nodes[n]
	}
	start, filled := 0, 0
	for ai, end := range ends {
		if end == start {
			continue
		}
		for _, n := range flat[start:end] {
			sets[n][anns[ai].ID] = struct{}{}
		}
		// Capped, so a later attachment can never reach the next list.
		g.byAnn[anns[ai].ID] = tuples[start:end:end]
		start = end
		if filled++; len(g.byAnn) != filled {
			return nil, fmt.Errorf("acg: annotation %q listed twice", anns[ai].ID)
		}
	}

	// next[n] is where node n's next neighbor goes; after the fill it is
	// the end of the node's list.
	next := make([]int32, len(nodes))
	connected, off := 0, int32(0)
	for n, d := range degree {
		next[n] = off
		off += d
		if d > 0 {
			connected++
		}
	}
	neighbors := make([]relational.TupleID, 2*len(edges))
	for _, e := range edges {
		neighbors[next[e.a]] = nodes[e.b]
		next[e.a]++
		neighbors[next[e.b]] = nodes[e.a]
		next[e.b]++
	}
	records := make([]adjacency, connected)
	for n, d := range degree {
		if d == 0 {
			continue
		}
		adj := &records[0]
		records = records[1:]
		adj.list = neighbors[next[n]-d : next[n] : next[n]]
		g.adj[nodes[n]] = adj
	}
	return g, nil
}

// Dump lists every annotation with its tuples, sorted by annotation ID: the
// input Load rebuilds the graph from. The tuple lists are the graph's own;
// they are valid until the next mutation and must not be modified.
func (g *Graph) Dump() []AnnotationTuples {
	out := make([]AnnotationTuples, 0, len(g.byAnn))
	for id, tuples := range g.byAnn {
		out = append(out, AnnotationTuples{ID: id, Tuples: tuples})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
