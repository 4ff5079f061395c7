package nebula

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"nebula/internal/annotation"
	"nebula/internal/ingest"
	"nebula/internal/relational"
	"nebula/internal/trace"
)

// This file is the engine layer of the streaming proactive pipeline
// (internal/ingest): asynchronous discovery submission, change-data-capture
// over MutateDB/DeleteTuple, and the drain loop that turns queued jobs into
// attachments. The invariant the whole subsystem maintains: draining the
// queue produces byte-identical annotation state to running the same
// discoveries synchronously over the same database state — async changes
// WHEN discovery happens, never WHAT it produces.
//
// A drained job runs in three phases under the engine's write lock:
// retract (drop the annotation's machine-derived attachments, ACG edges,
// and pending tasks — manual Stage-0 attachments survive), discover (the
// standard pipeline over the current state, fanned across the worker pool
// exactly like ProcessBatch), and submit (sequential Stage-3 fold in drain
// order). Retraction is what makes re-discovery idempotent: a job drained
// twice — or re-drained after a crash between phases — converges to the
// same state.

// Typed ingest errors for errors.Is matching; serving layers map
// ErrIngestQueueFull to 429 + Retry-After (backpressure, not failure).
var (
	// ErrIngestDisabled reports an async entry point on an engine whose
	// Options.Ingest.Enabled is false.
	ErrIngestDisabled = errors.New("nebula: ingest disabled")
	// ErrIngestQueueFull reports a live enqueue rejected by the queue's
	// capacity bound; retry after a drain frees room.
	ErrIngestQueueFull = errors.New("nebula: ingest queue full")
)

// IngestJob re-exports the queued-job shape.
type IngestJob = ingest.Job

// ingestState is the engine's ingest bookkeeping. The queue and counters
// are guarded by the engine's lock group (whole-group writes for drains and
// CDC, whole-group reads for stats), exactly like the annotation store. The
// two enqueue entry points reachable under a single shard lock
// (EnqueueDiscovery, AddAnnotationAsync) additionally serialize on mu, so
// admissions homed on different shards cannot race the queue.
type ingestState struct {
	// mu serializes single-shard enqueue paths against each other. Ordered
	// strictly after the shard lock in the hierarchy; whole-group paths
	// skip it (the group lock already excludes every shard holder).
	mu      sync.Mutex
	queue   *ingest.Queue
	cdcHops int

	// drain/freshness accumulators (write-locked updates, RLock reads).
	drains         uint64
	requeued       uint64
	skipped        uint64
	failed         uint64
	freshnessNanos int64
	freshnessJobs  uint64
}

// refreshRowHook installs the engine's row-mutation observer: MutateDB's
// capture (whose rows the WAL logs and ingest change-data-capture reads)
// and the disk-mode index share the database's single hook. Called
// whenever a consumer appears or disappears (construction, AttachWAL,
// CloseWAL); the caller holds e.mu in write mode or owns the engine
// exclusively.
func (e *Engine) refreshRowHook() {
	te := e.tiered
	if e.wal == nil && e.ingest == nil && te == nil {
		e.db.SetRowMutationHook(nil)
		return
	}
	e.db.SetRowMutationHook(func(m relational.RowMutation) {
		if e.captured != nil {
			e.captured = append(e.captured, m)
		}
		if te != nil {
			// Disk-mode search index: the mutated row is re-indexed into
			// the in-heap tail before the next probe. Fires on the WAL
			// replay path too, which is how rows replayed past the last
			// segment flush regain index coverage after a restart.
			te.MarkDirty(relational.TupleID{Table: m.Table, Key: m.Key})
		}
	})
}

// IngestEnabled reports whether the streaming ingest subsystem is on.
func (e *Engine) IngestEnabled() bool { return e.ingest != nil }

// IngestAdmission is what an accepted enqueue tells the caller about the
// queue, captured atomically with the admission itself (same critical
// section — never a post-hoc read another enqueue or drain could have
// moved). The embedded IngestJob carries the admitted shape.
type IngestAdmission struct {
	IngestJob
	// Position is the job's 1-based drain position at admission: 1 means
	// it drains next. Later enqueues and drains move it, but it was exact
	// when the admission was acknowledged — the 202 contract.
	Position int
	// Depth is the queue depth at admission, including this job.
	Depth int
	// Coalesced reports that the enqueue folded into an already-queued
	// job for the same annotation instead of admitting a new one.
	Coalesced bool
}

// EnqueueDiscovery queues an asynchronous Process run for a stored
// annotation — the submit-async path. The returned admission carries the
// job's sequence plus its queue position and depth as of the admission
// itself; the discovery happens on the next drain. A duplicate enqueue
// coalesces into the queued job (upgrading its priority); a full queue
// fails with ErrIngestQueueFull.
func (e *Engine) EnqueueDiscovery(id AnnotationID, priority int) (adm IngestAdmission, err error) {
	err = e.write(e.mu.Home(string(id)), func() (err error) {
		if e.ingest == nil {
			return ErrIngestDisabled
		}
		// Admission holds only the home shard plus the ingest mutex: the
		// queue mutation serializes against enqueues homed elsewhere, while
		// drains and CDC hold the whole group and so exclude this path.
		e.ingest.mu.Lock()
		defer e.ingest.mu.Unlock()
		if _, ok := e.store.Get(id); !ok {
			return fmt.Errorf("%w %q", ErrUnknownAnnotation, id)
		}
		adm, err = e.enqueueJobLocked(id, ingest.KindDiscover, priority)
		return err
	})
	return adm, err
}

// AddAnnotationAsync is AddAnnotation plus EnqueueDiscovery in one durable
// step: the annotation and its queued discovery become durable together,
// so a crash never leaves an acknowledged async submission without its
// job. With a full queue the whole call fails (nothing is stored) — the
// backpressure contract of the async path.
func (e *Engine) AddAnnotationAsync(a *Annotation, attachTo []TupleID, priority int) (adm IngestAdmission, err error) {
	err = e.write(e.mu.Home(string(a.ID)), func() (err error) {
		if e.ingest == nil {
			return ErrIngestDisabled
		}
		// The ingest mutex spans the capacity pre-check through the enqueue:
		// the reserve-then-admit sequence must be atomic against enqueues
		// homed on other shards, or two concurrent async adds could both
		// pass the check against one free slot.
		e.ingest.mu.Lock()
		defer e.ingest.mu.Unlock()
		// Reserve queue room before any state changes: a full queue must
		// reject the submission outright, not store an orphan annotation.
		if cap := e.ingest.queue.Cap(); cap > 0 && e.ingest.queue.Len() >= cap {
			e.ingest.queue.NoteDrop()
			return fmt.Errorf("%w (annotation %q)", ErrIngestQueueFull, a.ID)
		}
		if _, err := e.commit(recAddAnnotation(a, attachTo)); err != nil {
			return err
		}
		adm, err = e.enqueueJobLocked(a.ID, ingest.KindDiscover, priority)
		return err
	})
	return adm, err
}

// enqueueJobLocked admits one job and logs its WAL record, returning the
// admission view (position, depth, coalesced) computed inside the same
// critical section. The record is an effect record: only the queue knows
// whether the enqueue admits, upgrades or coalesces, so it logs the result
// after Enqueue made it. Caller holds either the whole lock group in write
// mode, or the job's home shard plus e.ingest.mu; ingest is enabled.
func (e *Engine) enqueueJobLocked(id AnnotationID, kind ingest.Kind, priority int) (IngestAdmission, error) {
	before := e.ingest.queue.Len()
	job, changed, err := e.ingest.queue.Enqueue(id, kind, priority, time.Now())
	if err != nil {
		return IngestAdmission{}, fmt.Errorf("%w (annotation %q)", ErrIngestQueueFull, id)
	}
	adm := IngestAdmission{
		IngestJob: job,
		Position:  e.ingest.queue.Position(id),
		Depth:     e.ingest.queue.Len(),
		Coalesced: e.ingest.queue.Len() == before,
	}
	// A no-op coalesce changes no durable state, so it logs nothing; an
	// upgrade re-logs the job's new shape under its original sequence.
	if changed {
		if err := e.walAppend(recIngestEnqueue(job)); err != nil {
			return adm, err
		}
	}
	return adm, nil
}

// enqueueAffectedLocked is the change-data-capture conversion: map the
// captured row mutations to seed tuples and re-queue the annotations whose
// discoveries the change can move. Two rules decide the radius:
//   - an inert update (see inertUpdate) rewrites a cell no keyword query
//     reads, so it seeds its own row at radius 0: only the annotations
//     attached to that row re-queue;
//   - every other mutation seeds the changed row (plus, for inserts, the
//     rows the new row references by FK — the new row has no ACG node
//     yet, but its FK targets anchor it to the graph) and re-queues every
//     annotation attached within CDCHops of a seed.
//
// A full queue drops the re-discovery (counted; freshness degrades,
// correctness doesn't — the next mutation or an operator flush re-queues
// it) rather than failing the mutation that triggered it.
func (e *Engine) enqueueAffectedLocked(changed []relational.RowMutation) (int, error) {
	seen := make(map[TupleID]struct{}, len(changed))
	seeds := make([]TupleID, 0, len(changed))
	var own []TupleID // the rows of inert updates, seeded at radius 0
	add := func(id TupleID) {
		if _, dup := seen[id]; !dup {
			seen[id] = struct{}{}
			seeds = append(seeds, id)
		}
	}
	for _, m := range changed {
		if e.inertUpdate(m) {
			own = append(own, TupleID{Table: m.Table, Key: m.Key})
			continue
		}
		add(TupleID{Table: m.Table, Key: m.Key})
		if m.Kind == relational.RowInsert {
			if row, ok := e.db.Lookup(TupleID{Table: m.Table, Key: m.Key}); ok {
				for _, rel := range e.db.Related(row) {
					add(rel.ID)
				}
			}
		}
	}
	affected := e.graph.AffectedAnnotations(seeds, e.ingest.cdcHops)
	if len(own) > 0 {
		affected = append(affected, e.graph.AffectedAnnotations(own, 0)...)
		slices.Sort(affected)
		affected = slices.Compact(affected)
	}
	for _, id := range affected {
		if _, err := e.enqueueJobLocked(id, ingest.KindRediscover, 0); err != nil {
			if errors.Is(err, ErrIngestQueueFull) {
				continue
			}
			return len(affected), err
		}
	}
	return len(affected), nil
}

// inertUpdate reports whether m is a cell update that no keyword query of
// the engine's search technique can read. The metadata technique puts only
// NebulaMeta's target columns in a predicate (the sigmap Value-Map, the
// matcher's value targets and alternateValueOptions all draw from
// TargetColumns), follows joins and related rows over PK/FK columns only,
// reads the focal by tuple ID, and ranks from confidences and the ACG, so
// rewriting any other column moves no discovery. The symbol-table
// technique indexes every column and an injected searcher is opaque: under
// either, no update is inert.
func (e *Engine) inertUpdate(m relational.RowMutation) bool {
	if m.Kind != relational.RowUpdate || e.opts.SearcherFactory != nil ||
		e.opts.SearchTechnique == TechniqueSymbolTable {
		return false
	}
	t, ok := e.db.Table(m.Table)
	if !ok {
		return false
	}
	s := t.Schema()
	if strings.EqualFold(m.Column, s.PrimaryKey) {
		return false
	}
	for _, fk := range s.ForeignKeys {
		if strings.EqualFold(m.Column, fk.Column) {
			return false
		}
	}
	for _, col := range e.meta.TargetColumns() {
		if strings.EqualFold(m.Table, col.Table) && strings.EqualFold(m.Column, col.Column) {
			return false
		}
	}
	return true
}

// retractAnnotation applies an OpIngestRetract record: it removes an
// annotation's machine-derived state — every attachment outside its manual
// Stage-0 focal, the ACG edges those attachments implied, and its pending
// verification tasks — returning it to the state a fresh AddAnnotation
// would have produced. Caller holds e.mu in write mode. Retracting an
// already-retracted annotation is a no-op, which is what makes
// crash-interrupted drains converge.
func (e *Engine) retractAnnotation(id AnnotationID) {
	manual := make(map[TupleID]struct{}, len(e.manualFocal[id]))
	for _, t := range e.manualFocal[id] {
		manual[t] = struct{}{}
	}
	atts := e.store.Attachments(id, -1)
	tuples := make([]TupleID, 0, len(atts))
	for _, att := range atts {
		if _, keep := manual[att.Tuple]; keep && att.Type == annotation.TrueAttachment {
			continue
		}
		tuples = append(tuples, att.Tuple)
	}
	for _, t := range tuples {
		e.store.Detach(id, t)
		e.graph.RemoveAttachment(id, t)
	}
	e.manager.CancelTasksForAnnotation(id)
}

// IngestDrainResult reports one DrainIngest call.
type IngestDrainResult struct {
	// Popped is how many jobs left the queue this drain.
	Popped int
	// Drained is how many completed (retract + discover + submit).
	Drained int
	// Requeued jobs were popped but put back (cancellation mid-drain).
	Requeued int
	// Skipped jobs referenced annotations deleted after enqueue.
	Skipped int
	// Failed jobs errored in discovery or submission (e.g. spam
	// quarantine); their retraction stands and they are not retried.
	Failed int
	// Trace is the drain's span tree when Options.Trace is on.
	Trace *TraceNode
}

// DrainIngest drains up to max queued jobs (max <= 0 drains everything
// currently queued) through the three-phase pipeline. Discovery fans out
// across Options.Parallelism workers over the post-retraction state, and
// Stage-3 submissions fold sequentially in drain order — the same
// deterministic schedule as ProcessBatch, so drained results are
// byte-identical whatever the worker count. On ctx cancellation, jobs
// whose discovery did not complete return to the queue with their original
// sequence numbers.
func (e *Engine) DrainIngest(ctx context.Context, max int) (res IngestDrainResult, err error) {
	err = e.write(allShards, func() (err error) {
		if e.ingest == nil {
			return ErrIngestDisabled
		}
		res, err = e.drainLocked(ctx, max)
		return err
	})
	return res, err
}

// FlushIngest drains until the queue is empty (or ctx is done) — the
// graceful-shutdown and `nebulactl ingest-flush` path. Each round is one
// DrainIngest batch, so writers interleaving with the flush extend it
// rather than block behind one giant batch.
func (e *Engine) FlushIngest(ctx context.Context) (IngestDrainResult, error) {
	var total IngestDrainResult
	for {
		res, err := e.DrainIngest(ctx, 0)
		total.Popped += res.Popped
		total.Drained += res.Drained
		total.Requeued += res.Requeued
		total.Skipped += res.Skipped
		total.Failed += res.Failed
		if err != nil {
			return total, err
		}
		if res.Popped == 0 || res.Requeued > 0 {
			return total, ctx.Err()
		}
		if ctx.Err() != nil {
			return total, ctx.Err()
		}
	}
}

// drainLocked is the drain core. Caller runs inside write, holding the
// whole group, with ingest enabled.
func (e *Engine) drainLocked(ctx context.Context, max int) (res IngestDrainResult, err error) {
	var root *trace.Span
	if e.opts.Trace {
		root = trace.New("ingest_drain")
		ctx = trace.WithSpan(ctx, root)
		defer func() {
			root.End()
			res.Trace = root.Snapshot()
		}()
	}
	jobs := e.ingest.queue.PopBatch(max)
	res.Popped = len(jobs)
	if len(jobs) == 0 {
		return res, nil
	}
	e.ingest.drains++

	// Phase 1 — retract, in drain order. Each retraction is committed on
	// its own; a crash after some retractions re-queues the jobs on replay
	// (no OpIngestDone yet) and the re-drain's retractions no-op. Jobs
	// complete through OpIngestDone's MarkDone, as in replay: PopBatch
	// already removed them, and nothing re-enqueues while the drain holds
	// the whole group, so it only counts the completion.
	type slot struct {
		job   IngestJob
		a     *Annotation
		focal []TupleID
		disc  *Discovery
		err   error
	}
	slots := make([]slot, 0, len(jobs))
	for _, job := range jobs {
		a, ok := e.store.Get(job.Annotation)
		if !ok {
			// Deleted after enqueue: nothing to do. Log completion so a
			// replayed queue does not resurrect the phantom job.
			if _, err := e.commit(recIngestDone(job.Annotation)); err != nil {
				return res, err
			}
			res.Skipped++
			e.ingest.skipped++
			continue
		}
		if _, err := e.commit(recIngestRetract(job.Annotation)); err != nil {
			return res, err
		}
		slots = append(slots, slot{job: job, a: a, focal: e.store.Focal(job.Annotation)})
	}

	// Phase 2 — discover over the post-retraction state, fanned across the
	// worker pool (the runBatch schedule: per-slot results, per-slot panic
	// recovery, atomic task handout).
	if e.opts.SearcherFactory == nil && e.opts.SearchTechnique == TechniqueSymbolTable {
		e.symbolSearcher(e.db)
	}
	workers := resolveWorkers(e.opts.Parallelism)
	started := make([]bool, len(slots))
	batchPool(ctx, len(slots), workers, func(i int) {
		started[i] = true
		defer recoverPanic(&slots[i].err)
		slots[i].disc, slots[i].err = e.discover(ctx, slots[i].a, slots[i].focal, e.opts)
	})

	// Phase 3 — submit sequentially in drain order; VIDs, ACG updates, and
	// task order follow the queue order deterministically. Cancelled or
	// never-started discoveries re-queue their jobs (the retraction stands;
	// the next drain redoes it as a no-op and re-discovers); other errors
	// (spam quarantine, internal) consume the job — retrying would fail
	// identically forever.
	var requeue []IngestJob
	// finish puts the jobs that did not fold back on the queue (their
	// retractions are logged, so a later drain redoes them as no-ops).
	finish := func(err error) (IngestDrainResult, error) {
		e.ingest.queue.Requeue(requeue)
		res.Requeued = len(requeue)
		e.ingest.requeued += uint64(len(requeue))
		return res, err
	}
	// fail aborts the fold: the jobs from slot from on go back too.
	fail := func(from int, err error) (IngestDrainResult, error) {
		for _, s := range slots[from:] {
			requeue = append(requeue, s.job)
		}
		return finish(err)
	}
	now := time.Now()
	for i := range slots {
		s := &slots[i]
		if !started[i] || errors.Is(s.err, ErrCancelled) || errors.Is(s.err, ErrBudgetExceeded) {
			requeue = append(requeue, s.job)
			continue
		}
		if s.err != nil {
			if _, err := e.commit(recIngestDone(s.job.Annotation)); err != nil {
				return fail(i, err)
			}
			res.Failed++
			e.ingest.failed++
			continue
		}
		if _, err := e.submit(s.job.Annotation, s.disc); err != nil {
			return fail(i, err)
		}
		if _, err := e.commit(recIngestDone(s.job.Annotation)); err != nil {
			return fail(i+1, err)
		}
		res.Drained++
		e.ingest.freshnessNanos += now.Sub(s.job.EnqueuedAt).Nanoseconds()
		e.ingest.freshnessJobs++
	}
	return finish(nil)
}

// IngestStats is the observability snapshot behind the nebula_ingest_*
// metrics and the queue-status endpoint.
type IngestStats struct {
	// Enabled mirrors Options.Ingest.Enabled.
	Enabled bool `json:"enabled"`
	// QueueDepth and QueueCap describe the queue right now.
	QueueDepth int `json:"queue_depth"`
	QueueCap   int `json:"queue_cap"`
	// NextSeq is the sequence number the next admitted job will get.
	NextSeq uint64 `json:"next_seq"`
	// OldestWaitMS is the age of the oldest queued job — the queue lag.
	OldestWaitMS int64 `json:"oldest_wait_ms"`
	// Lifetime counters.
	Enqueued      uint64 `json:"enqueued"`
	Coalesced     uint64 `json:"coalesced"`
	Dropped       uint64 `json:"dropped"`
	Rediscoveries uint64 `json:"rediscoveries"`
	Done          uint64 `json:"done"`
	Drains        uint64 `json:"drains"`
	Requeued      uint64 `json:"requeued"`
	Skipped       uint64 `json:"skipped"`
	Failed        uint64 `json:"failed"`
	// FreshnessJobs and MeanFreshnessMS aggregate the enqueue→attached
	// latency over completed jobs.
	FreshnessJobs   uint64  `json:"freshness_jobs"`
	MeanFreshnessMS float64 `json:"mean_freshness_ms"`
}

// IngestStats returns a point-in-time snapshot of the ingest subsystem;
// the zero value (Enabled=false) when ingest is off.
func (e *Engine) IngestStats() IngestStats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.ingest == nil {
		return IngestStats{}
	}
	q := e.ingest.queue
	c := q.Counters()
	s := IngestStats{
		Enabled:       true,
		QueueDepth:    q.Len(),
		QueueCap:      q.Cap(),
		NextSeq:       q.NextSeq(),
		Enqueued:      c.Enqueued,
		Coalesced:     c.Coalesced,
		Dropped:       c.Dropped,
		Rediscoveries: c.Rediscoveries,
		Done:          c.Done,
		Drains:        e.ingest.drains,
		Requeued:      e.ingest.requeued,
		Skipped:       e.ingest.skipped,
		Failed:        e.ingest.failed,
		FreshnessJobs: e.ingest.freshnessJobs,
	}
	if oldest, ok := q.OldestEnqueuedAt(); ok {
		s.OldestWaitMS = time.Since(oldest).Milliseconds()
	}
	if e.ingest.freshnessJobs > 0 {
		s.MeanFreshnessMS = float64(e.ingest.freshnessNanos) / float64(e.ingest.freshnessJobs) / 1e6
	}
	return s
}

// IngestJobs returns the queued jobs in drain order — the queue-status
// endpoint's listing.
func (e *Engine) IngestJobs() []IngestJob {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.ingest == nil {
		return nil
	}
	return e.ingest.queue.Jobs()
}
