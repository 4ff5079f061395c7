package nebula

import (
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"nebula/internal/annotation"
	"nebula/internal/ingest"
	"nebula/internal/relational"
	"nebula/internal/snapshot"
	"nebula/internal/verification"
	"nebula/internal/vfs"
	"nebula/internal/wal"
)

// This file binds the engine to its write-ahead log. Every mutation is a
// record, and there is one protocol for all of them:
//
//   - Every write entry point runs through write: it takes the lock scope
//     (the whole group, or the annotation's home shard), recovers a
//     pipeline panic as ErrInternal, and syncs the log (with group-commit
//     absorption) after releasing the lock — so concurrent writers share
//     flushes instead of serializing disk waits behind the state lock.
//   - Inside it, a mutator builds a logical wal.Record and calls commit,
//     which appends the record and then applies it through applyRecord —
//     the function replay runs. Live and replayed state cannot drift,
//     because there is one apply path; applyRecord also applies the
//     record's cache invalidation, through invalidate.
//   - Records are logical and replay deterministically: outcome-dependent
//     operations (discovery routing, oracle resolutions, bounds tuning,
//     hop distances of Stage-3 acceptances) log their computed result,
//     never the computation — replay runs no discovery and no ACG search.
//     Only a record logged before records carried hop distances is
//     measured again (ReplayStats.Searches).
//   - Two records are effects, logged after the change they describe:
//     MutateDB's row operations, which the caller's function applies, and
//     the ingest queue's admission (the coalesce result of Enqueue).
//   - Recovery is RestoreEngine (or a fresh engine) + ReplayWAL +
//     AttachWAL; Checkpoint folds the replayed state into a snapshot and
//     prunes the covered segments.
//
// AttachWAL must happen before the engine is shared across goroutines:
// the binding pointer is read without the lock on the sync path.

// walBinding carries the per-engine WAL state.
type walBinding struct {
	log *wal.Log
	fs  vfs.FS

	// ckptMu serializes checkpoints (Rotate is not safe to race with
	// itself).
	ckptMu      sync.Mutex
	checkpoints atomic.Int64

	// replay records the boot-time recovery pass for observability.
	replayMu sync.Mutex
	replay   wal.ReplayStats
}

// walLogf receives non-fatal WAL housekeeping failures (checkpoint prune
// errors). Replaceable for tests; defaults to the standard logger.
var walLogf = log.Printf

// AttachWAL binds an open write-ahead log to the engine: from this call on,
// every mutation is appended to l before it is applied, and acknowledged
// only once durable per l's sync mode. Attach after ReplayWAL (attaching
// first makes replay refuse to run — it would re-log history), and before
// the engine is shared across goroutines.
func (e *Engine) AttachWAL(l *wal.Log) {
	e.attachWAL(l, vfs.OS{})
}

// attachWAL is AttachWAL with an explicit filesystem seam for checkpoint
// writes — the hook the crash-fault tests use.
func (e *Engine) attachWAL(l *wal.Log, fsys vfs.FS) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.wal = &walBinding{log: l, fs: fsys}
	// Raw MutateDB row operations are captured at the relational layer
	// (see captureRows), so the row hook must be installed.
	e.refreshRowHook()
}

// WAL returns the attached log, or nil when the engine runs without one.
func (e *Engine) WAL() *wal.Log {
	if e.wal == nil {
		return nil
	}
	return e.wal.log
}

// allShards is the write scope of a whole-engine write; any other scope is
// the home shard (e.mu.Home) of a single-annotation write.
const allShards = -1

// write runs fn as one write: under the lock scope, with the WAL binding
// captured under that lock, and synced once the lock is released. A panic
// in fn unlocks and comes back as ErrInternal. Every write entry point runs
// through here; fn changes state only through commit (and the two effect
// records, see the file comment).
func (e *Engine) write(scope int, fn func() error) (err error) {
	defer recoverPanic(&err)
	var wb *walBinding
	err = func() error {
		if scope == allShards {
			e.mu.Lock()
			defer e.mu.Unlock()
		} else {
			e.mu.LockShard(scope)
			defer e.mu.UnlockShard(scope)
		}
		wb = e.wal
		return fn()
	}()
	return wb.sync(err)
}

// commit is the one live path of a logged write: append rec, then apply it
// through applyRecord, exactly as replay does. A failed append applies
// nothing. Caller runs inside write.
func (e *Engine) commit(rec *wal.Record) (applied, error) {
	if err := e.walAppend(rec); err != nil {
		return applied{}, err
	}
	return e.applyRecord(rec)
}

// walAppend logs one record; a nil binding (no WAL) appends nothing. It is
// called from commit, and directly only for the two effect records
// (MutateDB's rows, ingest admissions). Callers must hold at least one
// shard of e.mu in write mode (single-annotation paths hold their home
// shard; everything else holds the whole group); the log serializes
// concurrent appends from different shards internally. The record is
// buffered, not yet durable — write's sync finishes the job after the lock
// is released.
func (e *Engine) walAppend(rec *wal.Record) error {
	if e.wal == nil {
		return nil
	}
	if _, err := e.wal.log.Append(rec); err != nil {
		return fmt.Errorf("nebula: wal append: %w", err)
	}
	return nil
}

// sync makes every record appended so far durable. Called AFTER e.mu is
// released so concurrent writers group-commit: one fsync covers all of
// them. The receiver must be the binding captured UNDER e.mu by the write
// being synced (a nil receiver means no WAL was attached) — re-reading
// e.wal here would race CloseWAL and let a mutator whose record was logged
// ack success without awaiting durability. A failed operation
// (opErr != nil) is passed through without syncing — an error reply
// promises nothing about durability, and replay re-fails the logged intent
// deterministically.
func (b *walBinding) sync(opErr error) error {
	if b == nil || opErr != nil {
		return opErr
	}
	if err := b.log.SyncAll(); err != nil {
		return fmt.Errorf("nebula: wal sync: %w", err)
	}
	return nil
}

// --- record construction (engine types -> wal wire types) ---

func tupleRef(id TupleID) wal.TupleRef { return wal.TupleRef{Table: id.Table, Key: id.Key} }

func refTuple(r wal.TupleRef) TupleID { return TupleID{Table: r.Table, Key: r.Key} }

func tupleRefs(ids []TupleID) []wal.TupleRef {
	if len(ids) == 0 {
		return nil
	}
	out := make([]wal.TupleRef, len(ids))
	for i, id := range ids {
		out[i] = tupleRef(id)
	}
	return out
}

func refTuples(refs []wal.TupleRef) []TupleID {
	if len(refs) == 0 {
		return nil
	}
	out := make([]TupleID, len(refs))
	for i, r := range refs {
		out[i] = refTuple(r)
	}
	return out
}

func valueCell(v Value) wal.Cell {
	c := wal.Cell{Kind: int(v.Kind())}
	switch v.Kind() {
	case TypeInt:
		c.Int = v.AsInt()
	case TypeFloat:
		c.Flt = v.AsFloat()
	default:
		c.Str = v.Str()
	}
	return c
}

func cellValue(c wal.Cell) Value {
	switch relational.Type(c.Kind) {
	case TypeInt:
		return Int(c.Int)
	case TypeFloat:
		return Float(c.Flt)
	default:
		return String(c.Str)
	}
}

func recAddAnnotation(a *Annotation, attachTo []TupleID) *wal.Record {
	return &wal.Record{
		Op:       wal.OpAddAnnotation,
		Ann:      string(a.ID),
		Author:   a.Author,
		Body:     a.Body,
		Kind:     a.Kind,
		AttachTo: tupleRefs(attachTo),
	}
}

func recDeleteTuple(id TupleID) *wal.Record {
	return &wal.Record{Op: wal.OpDeleteTuple, Tuple: tupleRef(id)}
}

func rowMutationRecord(m relational.RowMutation) *wal.Record {
	switch m.Kind {
	case relational.RowInsert:
		cells := make([]wal.Cell, len(m.Values))
		for i, v := range m.Values {
			cells[i] = valueCell(v)
		}
		return &wal.Record{Op: wal.OpInsertRow, Table: m.Table, Values: cells}
	case relational.RowDelete:
		return &wal.Record{Op: wal.OpDeleteRow, Tuple: wal.TupleRef{Table: m.Table, Key: m.Key}}
	default: // relational.RowUpdate
		return &wal.Record{
			Op:     wal.OpUpdateRow,
			Tuple:  wal.TupleRef{Table: m.Table, Key: m.Key},
			Column: m.Column,
			Value:  valueCell(m.Value),
		}
	}
}

func recSubmit(id AnnotationID, disc *Discovery, degraded bool, firstVID int64, hops []byte) *wal.Record {
	cands := make([]wal.CandidateRef, len(disc.Candidates))
	for i, c := range disc.Candidates {
		cands[i] = wal.CandidateRef{
			Tuple:      tupleRef(c.Tuple.ID),
			Confidence: c.Confidence,
			Evidence:   c.Evidence,
		}
	}
	return &wal.Record{
		Op:         wal.OpSubmit,
		Ann:        string(id),
		Focal:      tupleRefs(disc.Focal),
		Candidates: cands,
		Degraded:   degraded,
		FirstVID:   firstVID,
		Hops:       hops,
	}
}

func recVerdict(t *VerificationTask, accept bool, hops []byte) *wal.Record {
	return &wal.Record{
		Op:     wal.OpVerdict,
		Ann:    string(t.Annotation),
		Tuple:  tupleRef(t.Tuple),
		VID:    t.VID,
		Accept: accept,
		Hops:   hops,
	}
}

func recBounds(b Bounds) *wal.Record {
	return &wal.Record{Op: wal.OpSetBounds, Lower: b.Lower, Upper: b.Upper}
}

func recIngestEnqueue(j ingest.Job) *wal.Record {
	return &wal.Record{
		Op:       wal.OpIngestEnqueue,
		Ann:      string(j.Annotation),
		JobKind:  uint8(j.Kind),
		Priority: j.Priority,
		Seq:      j.Seq,
	}
}

func recIngestRetract(id AnnotationID) *wal.Record {
	return &wal.Record{Op: wal.OpIngestRetract, Ann: string(id)}
}

func recIngestDone(id AnnotationID) *wal.Record {
	return &wal.Record{Op: wal.OpIngestDone, Ann: string(id)}
}

// --- replay (wal.Record -> engine mutation) ---

// ReplayWAL applies the durable records in dir onto the engine, skipping
// segments already folded into the snapshot the engine was restored from
// (the snapshot's recorded WALSegment boundary; a fresh engine replays
// everything). It must run BEFORE AttachWAL — replaying through an
// attached log would re-log history. Torn or corrupt trailing records are
// discarded by the CRC framing (see wal.Replay); apply errors are counted,
// not fatal, because they are deterministic re-executions of operations
// that also failed live.
func (e *Engine) ReplayWAL(dir string, fsys vfs.FS) (wal.ReplayStats, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.wal != nil {
		return wal.ReplayStats{}, fmt.Errorf("nebula: ReplayWAL must run before AttachWAL")
	}
	searches := 0
	stats, err := wal.Replay(dir, wal.ReplayConfig{FS: fsys, FromSegment: e.walBaseSegment},
		func(rec *wal.Record) error {
			// A Stage-3 record that logs no hop distances for its
			// acceptances was written before records carried them: it is
			// measured again, as the live engine did then.
			if rec.Hops == nil && (rec.Op == wal.OpSubmit || rec.Op == wal.OpVerdict && rec.Accept) {
				if rec.Hops = e.measureHops(rec); rec.Hops != nil {
					searches++
				}
			}
			_, err := e.applyRecord(rec)
			return err
		})
	stats.Searches = searches
	return stats, err
}

// measureHops is the live measure step of a Stage-3 record, for a record
// that predates logged hop distances.
func (e *Engine) measureHops(rec *wal.Record) []byte {
	if rec.Op == wal.OpVerdict {
		return e.manager.MeasureVerify(rec.VID)
	}
	cands, err := e.recordCandidates(rec)
	if err != nil {
		return nil // applyRecord reports the missing tuple
	}
	return e.manager.MeasureSubmit(refTuples(rec.Focal), cands, rec.Degraded)
}

// RecoverWAL is the boot sequence in one call: replay dir's durable suffix
// onto the engine, then open the log (always a fresh segment) and attach
// it. The replay stats are retained for WALStats. Callers that want the
// log truncated afterwards follow with Checkpoint.
func (e *Engine) RecoverWAL(dir string, opts wal.Options) (wal.ReplayStats, error) {
	stats, err := e.ReplayWAL(dir, opts.FS)
	if err != nil {
		return stats, err
	}
	l, err := wal.Open(dir, opts)
	if err != nil {
		return stats, err
	}
	fsys := opts.FS
	if fsys == nil {
		fsys = vfs.OS{}
	}
	e.attachWAL(l, fsys)
	e.wal.replayMu.Lock()
	e.wal.replay = stats
	e.wal.replayMu.Unlock()
	return stats, nil
}

// applied is what applying a record reports back to a live caller.
type applied struct {
	outcome             VerificationOutcome // OpSubmit
	detached, cancelled int                 // OpDeleteTuple
}

// applyRecord applies one logged mutation: the second half of commit, and
// all of replay. Caller holds e.mu in write mode (or, for an
// OpAddAnnotation, the annotation's home shard). It ends with the record's
// cache invalidation.
func (e *Engine) applyRecord(rec *wal.Record) (res applied, err error) {
	defer func() {
		// A refused record changed nothing and so outdates nothing; only a
		// Submit can fail after changing state (it attaches last).
		if err == nil || rec.Op == wal.OpSubmit {
			e.invalidate(rec)
		}
	}()
	switch rec.Op {
	case wal.OpAddAnnotation:
		a := &Annotation{
			ID:     AnnotationID(rec.Ann),
			Author: rec.Author,
			Body:   rec.Body,
			Kind:   rec.Kind,
		}
		return res, e.addAnnotation(a, refTuples(rec.AttachTo))

	case wal.OpDeleteTuple:
		res.detached, res.cancelled, err = e.deleteTuple(refTuple(rec.Tuple))
		return res, err

	case wal.OpInsertRow:
		t, ok := e.db.Table(rec.Table)
		if !ok {
			return res, fmt.Errorf("nebula: wal replay: unknown table %q", rec.Table)
		}
		values := make([]Value, len(rec.Values))
		for i, c := range rec.Values {
			values[i] = cellValue(c)
		}
		_, err := t.Insert(values)
		return res, err

	case wal.OpUpdateRow:
		t, ok := e.db.Table(rec.Tuple.Table)
		if !ok {
			return res, fmt.Errorf("nebula: wal replay: unknown table %q", rec.Tuple.Table)
		}
		return res, t.UpdateByKey(rec.Tuple.Key, rec.Column, cellValue(rec.Value))

	case wal.OpDeleteRow:
		t, ok := e.db.Table(rec.Tuple.Table)
		if !ok {
			return res, fmt.Errorf("nebula: wal replay: unknown table %q", rec.Tuple.Table)
		}
		if !t.DeleteByKey(rec.Tuple.Key) {
			return res, fmt.Errorf("nebula: wal replay: no tuple %s", refTuple(rec.Tuple))
		}
		return res, nil

	case wal.OpSubmit:
		// Pin the VID counter so replayed tasks get the identifiers the
		// recorded verdicts reference (live, it already holds FirstVID).
		e.manager.SetNextVID(rec.FirstVID)
		cands, err := e.recordCandidates(rec)
		if err != nil {
			return res, err
		}
		res.outcome, err = e.manager.Submit(AnnotationID(rec.Ann), cands, rec.Degraded, rec.Hops)
		return res, err

	case wal.OpVerdict:
		if rec.Accept {
			return res, e.manager.Verify(rec.VID, rec.Hops)
		}
		return res, e.manager.Reject(rec.VID)

	case wal.OpSetBounds:
		b := Bounds{Lower: rec.Lower, Upper: rec.Upper}
		if err := e.manager.SetBounds(verification.Bounds(b)); err != nil {
			return res, err
		}
		e.opts.Bounds = b
		return res, nil

	case wal.OpIngestEnqueue:
		// An effect record: live, the queue already admitted the job. CDC
		// never re-derives jobs during replay (capture stays off); the
		// logged admissions ARE the queue. Force preserves the recorded
		// sequence so drain order matches the pre-crash queue.
		if e.ingest != nil {
			e.ingest.queue.Force(ingest.Job{
				Annotation: annotation.ID(rec.Ann),
				Kind:       ingest.Kind(rec.JobKind),
				Priority:   rec.Priority,
				Seq:        rec.Seq,
				EnqueuedAt: time.Now(),
			})
		}
		return res, nil

	case wal.OpIngestRetract:
		// Retraction is deterministic given the state the prior records
		// produced; re-applying a half-drained job's retraction is
		// idempotent.
		e.retractAnnotation(AnnotationID(rec.Ann))
		return res, nil

	case wal.OpIngestDone:
		// Live, the drain popped the job already and only the completion
		// is counted; replay also removes the re-admitted job.
		if e.ingest != nil {
			e.ingest.queue.MarkDone(annotation.ID(rec.Ann))
		}
		return res, nil

	default:
		return res, fmt.Errorf("nebula: wal replay: unknown op %v", rec.Op)
	}
}

// recordCandidates resolves an OpSubmit record's candidates against the
// database.
func (e *Engine) recordCandidates(rec *wal.Record) ([]Candidate, error) {
	cands := make([]Candidate, 0, len(rec.Candidates))
	for _, c := range rec.Candidates {
		row, ok := e.db.Lookup(refTuple(c.Tuple))
		if !ok {
			return nil, fmt.Errorf("nebula: candidate tuple %s not in database", c.Tuple)
		}
		cands = append(cands, Candidate{Tuple: row, Confidence: c.Confidence, Evidence: c.Evidence})
	}
	return cands, nil
}

// --- checkpoint ---

// Checkpoint folds the engine's current state into a durable snapshot at
// path and truncates the WAL behind it: rotate to a fresh segment (under
// the state lock, so the sealed segments exactly cover the captured
// state), capture, write the snapshot (temp + fsync + atomic rename) with
// the rotation boundary recorded, then prune the covered segments. A crash
// at ANY point leaves a recoverable store: before the rename the old
// snapshot + full log still replay; after the rename but before the prune,
// the recorded boundary makes replay skip the already-folded segments.
//
// Without an attached WAL, Checkpoint degrades to SaveSnapshotFile.
func (e *Engine) Checkpoint(path string) error {
	b := e.wal
	if b == nil {
		return e.SaveSnapshotFile(path)
	}
	b.ckptMu.Lock()
	defer b.ckptMu.Unlock()

	e.mu.RLock()
	// Rotate excludes concurrent Append via the whole-group read lock
	// (every mutator, single-shard or not, holds at least one shard's
	// write lock); ckptMu excludes concurrent Rotate from another
	// checkpoint.
	if err := b.log.Rotate(); err != nil {
		e.mu.RUnlock()
		return fmt.Errorf("nebula: checkpoint rotate: %w", err)
	}
	boundary := b.log.ActiveSegment()
	snap, err := snapshot.Capture(e.snapshotState())
	// The disk-backed index tail is snapshotted under the same read lock:
	// the payload then covers exactly the captured state, which is what
	// lets restore skip the index rebuild when the generations match.
	payload, storeSeq := e.prepareStoreFlush()
	e.mu.RUnlock()
	if err != nil {
		return err
	}
	snap.WALSegment = boundary
	snap.StoreSeq = storeSeq
	if err := snapshot.SaveFileFS(b.fs, path, snap); err != nil {
		return err
	}
	// Flush the tail only once the paired snapshot is durable: a crash
	// in between leaves snapshot(N)+manifest(N-1), which restore treats
	// as a mismatch and rebuilds — never a silently stale index.
	e.completeStoreFlush(storeSeq, boundary, payload)
	b.checkpoints.Add(1)
	if err := b.log.PruneBefore(boundary); err != nil {
		// Stale segments cost disk, not correctness: the snapshot's
		// boundary makes replay skip them. Surface and continue.
		walLogf("nebula: wal prune after checkpoint: %v", err)
	}
	return nil
}

// WALStats describes the engine's durability state for observability
// surfaces (the /metrics exporter, nebulactl wal-info).
type WALStats struct {
	// Attached reports whether a WAL is bound to the engine.
	Attached bool
	// Mode is the fsync policy ("group", "always", "none").
	Mode string
	// Log is the log's counter snapshot.
	Log wal.Stats
	// Checkpoints counts successful Checkpoint calls on this engine.
	Checkpoints int64
	// Replay describes the boot-time recovery pass (zero when the engine
	// started fresh or was attached without RecoverWAL).
	Replay wal.ReplayStats
}

// WALStats returns a point-in-time snapshot of the WAL counters; the zero
// value when no WAL is attached.
func (e *Engine) WALStats() WALStats {
	b := e.wal
	if b == nil {
		return WALStats{}
	}
	b.replayMu.Lock()
	replay := b.replay
	b.replayMu.Unlock()
	return WALStats{
		Attached:    true,
		Mode:        b.log.Mode().String(),
		Log:         b.log.Stats(),
		Checkpoints: b.checkpoints.Load(),
		Replay:      replay,
	}
}

// CloseWAL syncs and closes the attached log and detaches it from the
// engine (further mutations are no longer logged). Part of graceful
// shutdown, after the final checkpoint.
func (e *Engine) CloseWAL() error {
	e.mu.Lock()
	b := e.wal
	e.wal = nil
	if b != nil {
		e.refreshRowHook()
	}
	e.mu.Unlock()
	if b == nil {
		return nil
	}
	return b.log.Close()
}
