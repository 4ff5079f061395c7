package keyword

import (
	"context"
	"fmt"
	"runtime"
)

// Limits bound one batch execution. The zero value means "unlimited" and
// selects the exact legacy execution paths, so governance is free when off.
type Limits struct {
	// MaxScannedRows stops the executor once this many tuples have been
	// scanned; already-produced results are kept and the truncation is
	// recorded in ExecStats.Degraded. 0 means unlimited.
	MaxScannedRows int
	// MaxWorkers bounds the executor's worker pool. 0 and 1 select the
	// sequential legacy path; n > 1 fans independent structured queries
	// (and row segments of shared scans) across up to n goroutines.
	// Whatever the worker count, results are merged in the deterministic
	// sequential order, so parallel output is byte-identical to sequential
	// — including the truncation point when MaxScannedRows bites.
	MaxWorkers int
}

// Unlimited reports whether the limits impose no scan bound. Parallelism
// is not a bound: MaxWorkers alone does not make an execution governed.
func (l Limits) Unlimited() bool { return l.MaxScannedRows <= 0 }

// Workers resolves the executor's worker count: values below 2 select the
// sequential path. The count is clamped to GOMAXPROCS — a pool wider than
// the scheduler's parallelism only adds goroutine churn (unshared 2-worker
// runs measured 0.80x sequential under GOMAXPROCS=1),
// and results are byte-identical at any worker count anyway.
func (l Limits) Workers() int {
	w := l.MaxWorkers
	if g := runtime.GOMAXPROCS(0); w > g {
		w = g
	}
	if w > 1 {
		return w
	}
	return 1
}

// governed reports whether the executor must take the governed path: either
// a row budget is set or the context can actually be cancelled.
// context.Background() and context.TODO() return a nil Done channel, so an
// ungoverned call is detected exactly and keeps the legacy code path —
// byte-identical output, no extra checks per tuple.
func governed(ctx context.Context, l Limits) bool {
	return ctx.Done() != nil || !l.Unlimited()
}

// scanBatch is the granularity of cancellation checks inside row scans:
// the naive searcher polls ctx.Err() every scanBatch tuples.
const scanBatch = 256

// sharedChunk is the number of distinct structured queries a governed
// shared execution submits per SelectMultiWorkers call. Chunking trades a
// little scan sharing for per-tuple-batch cancellation and budget checks
// between chunks; ungoverned runs keep the single-call legacy path.
const sharedChunk = 16

// degradedScanBudget formats the ExecStats.Degraded reason recorded when
// MaxScannedRows truncates an execution.
func degradedScanBudget(scanned, limit int) string {
	return fmt.Sprintf("keyword: scan budget exhausted (%d tuples scanned, limit %d); remaining queries skipped", scanned, limit)
}
