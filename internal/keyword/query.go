// Package keyword implements keyword search over the relational substrate,
// in the role the paper assigns to Bergamaschi et al.'s metadata approach
// (reference [7]): each keyword is mapped — using the NebulaMeta metadata —
// to schema elements or column value domains; consistent combinations of
// mappings form configurations; each configuration yields a structured
// query with a confidence weight; executing the queries produces candidate
// tuples that inherit their query's confidence.
//
// The package also provides the two execution-strategy extremes the paper
// evaluates: the Naive baseline of §4 (the entire annotation text as one
// keyword query) and the shared multi-query executor of §6 (common
// structured sub-queries across a batch are executed once).
package keyword

import (
	"fmt"
	"strings"

	"nebula/internal/relational"
)

// Role describes what a keyword inside a query was mapped to by the
// signature-map stage. The executor uses roles to decide which keywords
// carry predicates (values) and which only select the target concept
// (table/column names).
type Role int

const (
	// RoleValue marks a keyword believed to be a database value.
	RoleValue Role = iota
	// RoleTable marks a keyword believed to reference a table name.
	RoleTable
	// RoleColumn marks a keyword believed to reference a column name.
	RoleColumn
)

func (r Role) String() string {
	switch r {
	case RoleValue:
		return "value"
	case RoleTable:
		return "table"
	case RoleColumn:
		return "column"
	default:
		return fmt.Sprintf("Role(%d)", int(r))
	}
}

// Keyword is one keyword of a query together with its role hint. Hints are
// optional (the Naive baseline has none): the mapper falls back to deriving
// mappings from NebulaMeta when TargetTable/TargetColumn are empty.
type Keyword struct {
	// Text is the keyword as extracted from the annotation.
	Text string
	// Role is the mapped role.
	Role Role
	// TargetTable is the mapped table (when known).
	TargetTable string
	// TargetColumn is the mapped column (for RoleColumn and RoleValue when
	// the signature map pinned the value to a column domain).
	TargetColumn string
	// Weight is the mapping weight assigned upstream, in (0,1].
	Weight float64
}

// Query is a keyword search query: a small set of keywords that together
// identify database tuples (2–3 keywords for Type-1/2/3 matches of §5.2.2).
type Query struct {
	// ID distinguishes queries generated from the same annotation.
	ID string
	// Keywords of the query.
	Keywords []Keyword
	// Weight is the query's overall weight q.weight ∈ (0,1], the normalized
	// sum of its keywords' mapping weights (§5.2.3).
	Weight float64
}

func (q Query) String() string {
	parts := make([]string, len(q.Keywords))
	for i, k := range q.Keywords {
		parts[i] = k.Text
	}
	return fmt.Sprintf("%s{%s w=%.2f}", q.ID, strings.Join(parts, " "), q.Weight)
}

// Result is one candidate tuple produced by executing a keyword query.
type Result struct {
	// Tuple is the matched data tuple.
	Tuple *relational.Row
	// Confidence is the engine's internal confidence for this tuple in
	// [0,1] (the query's weight is applied later, by the discovery stage,
	// per Figure 5 lines 3–5).
	Confidence float64
	// Query is the ID of the keyword query that produced the tuple.
	Query string
}

// ExecStats aggregates execution cost counters. Wall-clock times are taken
// by callers; these counters are the machine-independent cost measures.
type ExecStats struct {
	// StructuredQueries is the number of structured queries executed
	// against the database.
	StructuredQueries int
	// SharedQueries is the number of structured queries whose execution
	// was avoided by the shared executor (duplicates of an executed one).
	SharedQueries int
	// TuplesScanned totals candidate tuples examined by the substrate.
	TuplesScanned int
	// TuplesReturned totals tuples produced (before deduplication).
	TuplesReturned int
	// Workers is the size of the worker pool the execution ran with
	// (1 = the sequential legacy path). A scheduling property, not a cost:
	// results are byte-identical whatever its value.
	Workers int
	// ParallelBatches counts the waves of concurrently executed work the
	// parallel path dispatched (0 on the sequential path). Like Workers it
	// describes scheduling, not results.
	ParallelBatches int
	// CacheHits counts discovery-cache hits: it is 1 on a discovery the
	// engine answered from its cache (which scanned nothing, so
	// TuplesScanned is 0) and 0 on every executed run. Stats account
	// actual work; the keyword executor itself never sets it.
	CacheHits int
	// Degraded lists human-readable reasons the execution deviated from
	// the full, unbounded run (budget truncations, cancelled scans).
	// Empty for a complete run.
	Degraded []string
}

// Add accumulates another stats record. The scheduling fields do not sum:
// Workers keeps the widest pool seen, ParallelBatches accumulates.
func (s *ExecStats) Add(o ExecStats) {
	s.StructuredQueries += o.StructuredQueries
	s.SharedQueries += o.SharedQueries
	s.TuplesScanned += o.TuplesScanned
	s.TuplesReturned += o.TuplesReturned
	if o.Workers > s.Workers {
		s.Workers = o.Workers
	}
	s.ParallelBatches += o.ParallelBatches
	s.CacheHits += o.CacheHits
	s.Degraded = append(s.Degraded, o.Degraded...)
}
