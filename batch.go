package nebula

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// BatchResult is the outcome of one annotation inside a batch call. Every
// input ID yields exactly one BatchResult, at the same index; failures are
// per-annotation, never batch-wide.
type BatchResult struct {
	// ID is the annotation the result belongs to.
	ID AnnotationID
	// Discovery is the (possibly partial) discovery output; nil when the
	// annotation failed before discovery produced anything.
	Discovery *Discovery
	// Outcome is the Stage-3 verification routing (ProcessBatch only; zero
	// for DiscoverBatch and for annotations whose discovery errored).
	Outcome VerificationOutcome
	// Err is the annotation's error: typed ErrCancelled/ErrBudgetExceeded/
	// ErrSpamAnnotation with partial results attached, ErrInternal for a
	// recovered worker panic, or nil.
	Err error
}

// DiscoverBatch runs discovery for a set of stored annotations, fanning the
// independent runs across the engine's worker pool (Options.Parallelism).
// Results align with the input order and are byte-identical to calling
// Discover sequentially — parallelism changes scheduling, never output.
func (e *Engine) DiscoverBatch(ids []AnnotationID) []BatchResult {
	return e.DiscoverBatchContext(context.Background(), ids)
}

// DiscoverBatchContext is DiscoverBatch under governance. On cancellation
// the pool drains: in-flight annotations finish (returning their partial
// Discovery with ErrCancelled), not-yet-started ones report the context's
// error without running. A panic inside one worker poisons only that
// annotation's result (ErrInternal), never its batch-mates.
func (e *Engine) DiscoverBatchContext(ctx context.Context, ids []AnnotationID) []BatchResult {
	return e.DiscoverBatchRequest(ctx, ids, RequestOptions{})
}

// DiscoverBatchRequest is DiscoverBatchContext with per-request governance
// (see RequestOptions). The batch is read-only against engine state, so it
// holds the engine's read lock and runs concurrently with other discover
// requests and snapshot captures. An invalid request poisons every slot
// with the validation error rather than silently running unbounded.
func (e *Engine) DiscoverBatchRequest(ctx context.Context, ids []AnnotationID, req RequestOptions) []BatchResult {
	if err := req.Validate(); err != nil {
		return batchError(ids, err)
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.runBatch(ctx, ids, false, req.apply(e.opts))
}

// batchError fills one BatchResult per input with the same error.
func batchError(ids []AnnotationID, err error) []BatchResult {
	results := make([]BatchResult, len(ids))
	for i, id := range ids {
		results[i] = BatchResult{ID: id, Err: err}
	}
	return results
}

// ProcessBatch runs the full pipeline for a set of stored annotations:
// discovery fans out across the worker pool, then Stage-3 verification
// routing runs sequentially in input order — so VIDs, ACG updates, and
// pending-task order are identical to calling Process in a loop.
func (e *Engine) ProcessBatch(ids []AnnotationID) []BatchResult {
	return e.ProcessBatchContext(context.Background(), ids)
}

// ProcessBatchContext is ProcessBatch under governance; see
// DiscoverBatchContext for the cancellation and panic-isolation contract.
// An annotation whose discovery errors (cancellation, budget, spam, panic)
// is not submitted to verification, exactly as ProcessContext would.
func (e *Engine) ProcessBatchContext(ctx context.Context, ids []AnnotationID) []BatchResult {
	return e.ProcessBatchRequest(ctx, ids, RequestOptions{})
}

// ProcessBatchRequest is ProcessBatchContext with per-request governance.
// Stage 3 mutates engine state, so the whole batch holds the engine lock
// exclusively (unlike DiscoverBatchRequest).
func (e *Engine) ProcessBatchRequest(ctx context.Context, ids []AnnotationID, req RequestOptions) []BatchResult {
	if err := req.Validate(); err != nil {
		return batchError(ids, err)
	}
	var results []BatchResult
	err := e.write(allShards, func() error {
		results = e.runBatch(ctx, ids, true, req.apply(e.opts))
		return nil
	})
	if results == nil {
		// A panic in the Stage-3 fold: no slot's routing is known.
		return batchError(ids, err)
	}
	if err != nil {
		// The group fsync covering every logged submission failed; no slot
		// may acknowledge a durable routing.
		for i := range results {
			if results[i].Err == nil {
				results[i].Err = err
				results[i].Outcome = VerificationOutcome{}
			}
		}
	}
	return results
}

// runBatch is the shared batch core. Callers hold e.mu for the whole batch
// — in read mode for discover-only batches, exclusively when process is
// set: the discovery phase is read-only against the engine state
// (annotation lookups happen before fan-out, the symbol index is pre-built
// below), so the runs are safe to execute concurrently under the one lock;
// the verification phase mutates state and runs sequentially in input
// order.
func (e *Engine) runBatch(ctx context.Context, ids []AnnotationID, process bool, opts Options) []BatchResult {
	results := make([]BatchResult, len(ids))
	type input struct {
		a     *Annotation
		focal []TupleID
	}
	inputs := make([]input, len(ids))
	for i, id := range ids {
		results[i].ID = id
		a, ok := e.store.Get(id)
		if !ok {
			results[i].Err = fmt.Errorf("%w %q", ErrUnknownAnnotation, id)
			continue
		}
		inputs[i] = input{a: a, focal: e.store.Focal(id)}
	}
	// The symbol-table technique builds its full-database index lazily on
	// first use; build it before fan-out so workers only read it.
	if opts.SearcherFactory == nil && opts.SearchTechnique == TechniqueSymbolTable {
		e.symbolSearcher(e.db)
	}

	workers := resolveWorkers(opts.Parallelism)
	started := make([]bool, len(ids))
	batchPool(ctx, len(ids), workers, func(i int) {
		if inputs[i].a == nil {
			return
		}
		started[i] = true
		defer recoverPanic(&results[i].Err)
		results[i].Discovery, results[i].Err = e.discover(ctx, inputs[i].a, inputs[i].focal, opts)
	})
	for i := range results {
		if inputs[i].a != nil && !started[i] {
			// The pool drained on cancellation before this annotation ran.
			results[i].Err = wrapBatchCtxErr(ctx.Err())
		}
	}
	if !process {
		return results
	}
	// Stage 3, sequentially in input order: Submit mutates the store, the
	// ACG, and the hop profile, and assigns VIDs — input order keeps every
	// one of those deterministic whatever the discovery schedule was.
	for i := range results {
		if results[i].Err != nil || inputs[i].a == nil {
			continue
		}
		// An append failure poisons only this slot.
		outcome, err := e.submit(ids[i], results[i].Discovery)
		if err != nil {
			results[i].Err = err
			continue
		}
		results[i].Outcome = outcome
	}
	return results
}

// wrapBatchCtxErr types a context error for a batch slot that never ran.
func wrapBatchCtxErr(err error) error {
	switch err {
	case context.Canceled:
		return fmt.Errorf("%w: %v", ErrCancelled, err)
	case context.DeadlineExceeded:
		return fmt.Errorf("%w: %v", ErrBudgetExceeded, err)
	case nil:
		return fmt.Errorf("%w: batch slot skipped", ErrCancelled)
	default:
		return fmt.Errorf("%w: %v", ErrCancelled, err)
	}
}

// batchPool fans n independent tasks across up to workers goroutines,
// handing tasks out through an atomic counter. Once ctx is cancelled
// workers stop picking up new tasks and the pool drains. Tasks write only
// to their own result slots and recover their own panics, so the pool
// needs no locking and never re-raises.
func batchPool(ctx context.Context, n, workers int, task func(int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return
			}
			task(i)
		}
		return
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	next.Store(-1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1))
				if i >= n {
					return
				}
				task(i)
			}
		}()
	}
	wg.Wait()
}
