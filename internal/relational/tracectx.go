package relational

import (
	"context"

	"nebula/internal/trace"
)

// Context-carrying variants of the Select family. They exist for one
// reason: request-scoped tracing. When the context carries a trace span the
// scan is wrapped in a child span recording the table and the scan-cost
// counters; when it does not, each variant immediately delegates to its
// plain counterpart — the untraced hot path pays one nil comparison and
// zero allocations. The context is NOT consulted for cancellation here:
// cancellation granularity stays at the keyword layer's per-query /
// per-chunk checks, so traced and untraced runs interrupt at identical
// points.

// SelectContext is Select, wrapped in a "scan:<table>" span when ctx is
// being traced.
func (db *Database) SelectContext(ctx context.Context, q Query) ([]*Row, SelectStats, error) {
	parent := trace.FromContext(ctx)
	if parent == nil {
		return db.Select(q)
	}
	span := parent.StartChild("scan:" + q.Table)
	rows, st, err := db.Select(q)
	finishScanSpan(span, st)
	return rows, st, err
}

// SelectMultiWorkersContext is SelectMultiWorkers, wrapped in one
// "scan-multi" span covering the whole batch (the batch shares physical
// scans, so per-query attribution inside it would be fiction).
func (db *Database) SelectMultiWorkersContext(ctx context.Context, queries []Query, workers int) ([][]*Row, SelectStats, error) {
	parent := trace.FromContext(ctx)
	if parent == nil {
		return db.SelectMultiWorkers(queries, workers)
	}
	span := parent.StartChild("scan-multi")
	span.AddInt("queries", len(queries))
	sets, st, err := db.SelectMultiWorkers(queries, workers)
	finishScanSpan(span, st)
	return sets, st, err
}

func finishScanSpan(span *trace.Span, st SelectStats) {
	if !span.Enabled() {
		return
	}
	span.AddInt("tuples_scanned", st.TuplesScanned)
	span.AddInt("tuples_returned", st.TuplesReturned)
	if st.IndexUsed {
		span.Add("index_used", 1)
	}
	span.End()
}
