package nebula

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"nebula/internal/annotation"
	"nebula/internal/relational"
)

// IntegrityReport lists cross-structure inconsistencies found by
// CheckIntegrity. An empty Problems slice means the engine state is
// coherent.
type IntegrityReport struct {
	// Problems describes each violation found.
	Problems []string
	// Attachments, GraphNodes, PendingTasks are the checked cardinalities.
	Attachments  int
	GraphNodes   int
	PendingTasks int
}

// OK reports whether no problems were found.
func (r *IntegrityReport) OK() bool { return len(r.Problems) == 0 }

// CheckIntegrity audits the invariants that tie the engine's structures
// together:
//
//  1. every attachment's tuple exists in the database and its annotation in
//     the store;
//  2. every ACG node is a tuple with at least one attachment (and exists in
//     the database): each (annotation, tuple) pair of the graph is a true
//     attachment in the store, and every neighbor-list entry is unique,
//     symmetric and joins two tuples that share an annotation;
//  3. every pending verification task references a live annotation and a
//     live tuple, with confidence inside the pending band;
//  4. true attachments carry confidence 1 and predictions stay below 1.
//
// A healthy engine maintains these automatically (DeleteTuple cleans up all
// four structures); CheckIntegrity exists for state restored from external
// snapshots or mutated through the raw accessors. It only reads, under the
// read lock.
func (e *Engine) CheckIntegrity() *IntegrityReport {
	e.mu.RLock()
	defer e.mu.RUnlock()
	report := &IntegrityReport{}
	add := func(format string, args ...interface{}) {
		report.Problems = append(report.Problems, fmt.Sprintf(format, args...))
	}

	// 1 + 4 — attachments.
	for _, id := range e.store.IDs() {
		for _, att := range e.store.Attachments(id, -1) {
			report.Attachments++
			if _, ok := e.db.Lookup(att.Tuple); !ok {
				add("attachment %s -> %s: tuple not in database", att.Annotation, att.Tuple)
			}
			switch att.Type {
			case annotation.TrueAttachment:
				if att.Confidence != 1 {
					add("true attachment %s -> %s has confidence %f", att.Annotation, att.Tuple, att.Confidence)
				}
			default:
				if att.Confidence < 0 || att.Confidence >= 1 {
					add("prediction %s -> %s has confidence %f", att.Annotation, att.Tuple, att.Confidence)
				}
			}
		}
	}

	// 2 — ACG nodes and edges.
	neighbors := make(map[relational.TupleID][]relational.TupleID)
	for id, tuples := range e.graph.AttachmentList() {
		if _, ok := e.store.Get(id); !ok {
			add("ACG annotation %s not in store", id)
		}
		for _, t := range tuples {
			report.GraphNodes++
			if _, ok := e.db.Lookup(t); !ok {
				add("ACG node %s not in database", t)
			}
			if att, ok := e.store.Edge(id, t); !ok || att.Type != annotation.TrueAttachment {
				add("ACG attachment %s -> %s is not a true attachment in the store", id, t)
			}
			if _, ok := neighbors[t]; !ok {
				neighbors[t] = e.graph.Neighbors(t) // sorted
			}
		}
	}
	for t, list := range neighbors {
		for i, nb := range list {
			if i > 0 && nb == list[i-1] {
				add("ACG node %s lists neighbor %s twice", t, nb)
			}
			if e.graph.Weight(t, nb) == 0 {
				add("ACG edge %s - %s joins tuples that share no annotation", t, nb)
			}
			// Neighbors sorts by table, then key.
			if _, found := slices.BinarySearchFunc(neighbors[nb], t, func(a, b relational.TupleID) int {
				return cmp.Or(strings.Compare(a.Table, b.Table), strings.Compare(a.Key, b.Key))
			}); !found {
				add("ACG edge %s - %s is missing from %s's neighbors", t, nb, nb)
			}
		}
	}

	// 3 — pending tasks.
	bounds := e.manager.Bounds()
	for _, task := range e.manager.PendingTasks() {
		report.PendingTasks++
		if _, ok := e.store.Get(task.Annotation); !ok {
			add("pending task v%d references unknown annotation %s", task.VID, task.Annotation)
		}
		if _, ok := e.db.Lookup(task.Tuple); !ok {
			add("pending task v%d references missing tuple %s", task.VID, task.Tuple)
		}
		if task.Confidence < bounds.Lower || task.Confidence > bounds.Upper {
			// Bounds may legitimately have been retuned after submission;
			// report it so operators can re-route the queue.
			add("pending task v%d confidence %.3f outside current bounds [%.2f, %.2f]",
				task.VID, task.Confidence, bounds.Lower, bounds.Upper)
		}
	}
	return report
}
