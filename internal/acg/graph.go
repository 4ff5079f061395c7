// Package acg implements the Annotations Connectivity Graph of §6.2
// (Figure 6) and the machinery built on it: edge weights derived from
// shared annotations, the stability criterion of Definition 6.1, the
// hop-distance metadata profile of Figure 7 that guides the selection of
// the spreading radius K, and K-hop neighborhood extraction for the
// focal-based approximate search of §6.3.
package acg

import (
	"sort"
	"sync"

	"nebula/internal/annotation"
	"nebula/internal/relational"
)

// Graph is the ACG: one node per annotated tuple, an edge between two
// tuples iff they share at least one annotation. The edge weight α is the
// ratio between the common annotations and the total annotations attached
// to the two tuples (Jaccard of their annotation sets), recomputed from the
// node sets on demand so it stays exact as annotations accumulate. The
// annotation sets are the one record of which tuples share what; the
// neighbor lists only order the edges they imply for traversal.
//
// Synchronization contract: the engine's sharded lock group is the Graph's
// primary guard. The only mutations reachable while holding a single shard
// lock are AddAnnotation and AddAttachment (the annotation-insert path) —
// those serialize on mu below. Every other method (readers included) is
// called only under contexts holding every shard, which excludes the
// single-shard mutators, so it takes no internal lock.
type Graph struct {
	// mu serializes AddAnnotation/AddAttachment (and their stability
	// observations) against each other across shard-locked callers.
	mu sync.Mutex
	// anns maps each tuple to the set of annotations attached to it.
	anns map[relational.TupleID]map[annotation.ID]struct{}
	// byAnn maps each annotation to the tuples it is attached to.
	byAnn map[annotation.ID][]relational.TupleID
	// adj holds each connected node's neighbor list (unweighted; weights
	// on demand), iterated by the BFS-heavy spreading search. Whether two
	// tuples are adjacent is answered from anns, not from here.
	adj map[relational.TupleID]*adjacency

	stability stabilityTracker
}

// New returns an empty ACG with the given stability parameters: batches of
// batchSize annotations are stable when newEdges/attachments < mu
// (Definition 6.1).
func New(batchSize int, mu float64) *Graph {
	return &Graph{
		anns:  make(map[relational.TupleID]map[annotation.ID]struct{}),
		byAnn: make(map[annotation.ID][]relational.TupleID),
		adj:   make(map[relational.TupleID]*adjacency),
		stability: stabilityTracker{
			batchSize: batchSize,
			mu:        mu,
		},
	}
}

// Nodes returns the number of annotated tuples in the graph.
func (g *Graph) Nodes() int { return len(g.anns) }

// Edges returns the number of edges.
func (g *Graph) Edges() int {
	n := 0
	for _, nb := range g.adj {
		n += len(nb.list)
	}
	return n / 2
}

// Contains reports whether the tuple is a node of the graph.
func (g *Graph) Contains(t relational.TupleID) bool {
	_, ok := g.anns[t]
	return ok
}

// AddAnnotation records a (new) annotation together with all of its
// attached tuples, adding the implied edges. It also advances the stability
// tracker: the annotation contributes 1 to the batch, len(tuples) to M, and
// each genuinely new edge to N.
func (g *Graph) AddAnnotation(id annotation.ID, tuples []relational.TupleID) {
	g.mu.Lock()
	defer g.mu.Unlock()
	newEdges := 0
	for _, t := range tuples {
		newEdges += g.attach(id, t)
	}
	g.stability.observe(1, len(tuples), newEdges)
}

// AddAttachment records one additional attachment of an existing (or new)
// annotation — the post-verification update path: accepting a prediction
// adds edges between the tuple and the annotation's focal. The stability
// tracker counts the attachment but not a new annotation.
func (g *Graph) AddAttachment(id annotation.ID, t relational.TupleID) {
	g.mu.Lock()
	defer g.mu.Unlock()
	newEdges := g.attach(id, t)
	g.stability.observe(0, 1, newEdges)
}

// attach wires one (annotation, tuple) pair and returns the number of new
// edges created. An edge t–other is new exactly when the two shared no
// annotation before id joins t's set.
func (g *Graph) attach(id annotation.ID, t relational.TupleID) int {
	set, ok := g.anns[t]
	if !ok {
		set = make(map[annotation.ID]struct{})
		g.anns[t] = set
	}
	if _, dup := set[id]; dup {
		return 0
	}
	newEdges := 0
	for _, other := range g.byAnn[id] {
		if other == t || g.shareAnnotation(t, other) {
			continue
		}
		g.addEdge(t, other)
		newEdges++
	}
	set[id] = struct{}{}
	g.byAnn[id] = append(g.byAnn[id], t)
	return newEdges
}

// adjacency is one node's neighbor list, in the order the edges were made.
// It holds each neighbor once: an edge is added only when its two tuples
// start to share an annotation, and removed when they stop.
type adjacency struct {
	list []relational.TupleID
}

func (a *adjacency) remove(t relational.TupleID) {
	for i, x := range a.list {
		if x == t {
			a.list = append(a.list[:i:i], a.list[i+1:]...)
			break
		}
	}
}

// addEdge appends the new undirected edge a–b to both neighbor lists.
func (g *Graph) addEdge(a, b relational.TupleID) {
	for _, end := range [2][2]relational.TupleID{{a, b}, {b, a}} {
		from, to := end[0], end[1]
		n, ok := g.adj[from]
		if !ok {
			n = &adjacency{}
			g.adj[from] = n
		}
		n.list = append(n.list, to)
	}
}

// Weight returns the edge weight α between two tuples: |common| / |union|
// of their annotation sets, or 0 when they share none (no edge).
func (g *Graph) Weight(a, b relational.TupleID) float64 {
	if a == b {
		return 0
	}
	sa, sb := g.anns[a], g.anns[b]
	if len(sb) < len(sa) {
		sa, sb = sb, sa
	}
	common := 0
	for id := range sa {
		if _, ok := sb[id]; ok {
			common++
		}
	}
	if common == 0 {
		return 0
	}
	return float64(common) / float64(len(sa)+len(sb)-common)
}

// Neighbors returns the direct neighbors of a tuple, sorted for
// determinism.
func (g *Graph) Neighbors(t relational.TupleID) []relational.TupleID {
	nb, ok := g.adj[t]
	if !ok {
		return nil
	}
	out := make([]relational.TupleID, len(nb.list))
	copy(out, nb.list)
	sortTuples(out)
	return out
}

// AnnotationsOf returns how many annotations are attached to a tuple.
func (g *Graph) AnnotationsOf(t relational.TupleID) int { return len(g.anns[t]) }

// RemoveTuple deletes a tuple's node: its annotation memberships, its
// edges, and its entries in other nodes' adjacency. Called when the data
// tuple is deleted from the database. Stability counters are not rewound —
// the batch history already happened.
func (g *Graph) RemoveTuple(t relational.TupleID) {
	for id := range g.anns[t] {
		g.RemoveAttachment(id, t)
	}
}

// AttachmentList exports the graph's (annotation → tuples) mapping. Tuple
// order within an annotation follows attachment order; the map is a copy.
// Together with StabilityState this is everything needed to reconstruct
// the graph (see internal/snapshot).
func (g *Graph) AttachmentList() map[annotation.ID][]relational.TupleID {
	out := make(map[annotation.ID][]relational.TupleID, len(g.byAnn))
	for id, tuples := range g.byAnn {
		cp := make([]relational.TupleID, len(tuples))
		copy(cp, tuples)
		out[id] = cp
	}
	return out
}

// StabilityState exports the stability tracker's configuration and
// counters for snapshotting.
func (g *Graph) StabilityState() (batchSize int, mu float64, batchAnnotations, batchAttachments, batchNewEdges, batchesClosed int, stable bool) {
	s := g.stability
	return s.batchSize, s.mu, s.batchAnnotations, s.batchAttachments, s.batchNewEdges, s.batchesClosed, s.stable
}

// RestoreStabilityState reinstates a snapshotted stability tracker.
func (g *Graph) RestoreStabilityState(batchSize int, mu float64, batchAnnotations, batchAttachments, batchNewEdges, batchesClosed int, stable bool) {
	g.stability = stabilityTracker{
		batchSize:        batchSize,
		mu:               mu,
		batchAnnotations: batchAnnotations,
		batchAttachments: batchAttachments,
		batchNewEdges:    batchNewEdges,
		batchesClosed:    batchesClosed,
		stable:           stable,
	}
}

func sortTuples(ts []relational.TupleID) {
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].Table != ts[j].Table {
			return ts[i].Table < ts[j].Table
		}
		return ts[i].Key < ts[j].Key
	})
}
