package nebula

import (
	"fmt"
	"io"
	"sort"
	"time"

	"nebula/internal/acg"
	"nebula/internal/ingest"
	"nebula/internal/segment"
	"nebula/internal/snapshot"
	"nebula/internal/verification"
)

// SaveSnapshot persists the engine's runtime state — data, annotations,
// attachments, ACG, hop profile — as a versioned, checksummed stream. The
// NebulaMeta repository is configuration, not state, and is NOT captured:
// re-register concepts/patterns/ontologies when restoring (see
// RestoreEngine).
//
// The engine's read lock is held only while capturing the state into
// serializable form; encoding and writing happen after it is released, so
// a slow writer never blocks mutations for the duration of the I/O.
func (e *Engine) SaveSnapshot(w io.Writer) error {
	snap, payload, storeSeq, err := e.captureSnapshot()
	if err != nil {
		return err
	}
	if err := snapshot.Save(w, snap); err != nil {
		return err
	}
	e.completeStoreFlush(storeSeq, 0, payload)
	return nil
}

// captureSnapshot deep-copies the engine state into a Snapshot under the
// read lock. The returned value shares nothing mutable with the engine
// (Capture copies rows and edges into its own columns), so callers
// serialize it lock-free. In disk mode the index tail is snapshotted under
// the same lock and the flush generation stamped into the snapshot; the
// caller passes both to completeStoreFlush once the snapshot is durable.
func (e *Engine) captureSnapshot() (*snapshot.Snapshot, map[string][]segment.Posting, uint64, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	snap, err := snapshot.Capture(e.snapshotState())
	if err != nil {
		return nil, nil, 0, err
	}
	payload, storeSeq := e.prepareStoreFlush()
	snap.StoreSeq = storeSeq
	return snap, payload, storeSeq, nil
}

// snapshotState assembles the capture input. Caller holds e.mu (either
// mode). Bounds and the pending verification queue ride along because
// they are durable state: a checkpoint prunes the WAL records that
// established them, so the snapshot must carry them or recovery would
// route post-checkpoint submissions with stale thresholds and silently
// lose every task still awaiting an expert.
func (e *Engine) snapshotState() snapshot.State {
	b := e.manager.Bounds()
	var tasks []snapshot.TaskDump
	for _, t := range e.manager.PendingTasks() { // ordered by VID
		tasks = append(tasks, snapshot.TaskDump{
			VID:        t.VID,
			Annotation: string(t.Annotation),
			Table:      t.Tuple.Table,
			Key:        t.Tuple.Key,
			Confidence: t.Confidence,
			Evidence:   append([]string(nil), t.Evidence...),
		})
	}
	st := snapshot.State{
		DB:          e.db,
		Store:       e.store,
		Graph:       e.graph,
		Profile:     e.profile,
		HasBounds:   true,
		BoundsLower: b.Lower,
		BoundsUpper: b.Upper,
		Tasks:       tasks,
		NextVID:     e.manager.NextVID(),
	}
	if e.ingest != nil {
		for _, j := range e.ingest.queue.Jobs() { // drain order
			st.IngestJobs = append(st.IngestJobs, snapshot.IngestJobDump{
				Annotation: string(j.Annotation),
				Kind:       uint8(j.Kind),
				Priority:   j.Priority,
				Seq:        j.Seq,
			})
		}
		st.IngestNextSeq = e.ingest.queue.NextSeq()
	}
	// Capture copies the lists while the caller still holds the lock.
	st.ManualFocal = make([]acg.AnnotationTuples, 0, len(e.manualFocal))
	for id, tuples := range e.manualFocal {
		st.ManualFocal = append(st.ManualFocal, acg.AnnotationTuples{ID: id, Tuples: tuples})
	}
	sort.Slice(st.ManualFocal, func(i, j int) bool { return st.ManualFocal[i].ID < st.ManualFocal[j].ID })
	return st
}

// SaveSnapshotFile persists the engine's state to path durably and
// atomically: the checksummed stream is written to a temp file in the same
// directory, fsynced, and renamed over path, so a crash mid-save never
// leaves a half-written state file where the previous snapshot was. Like
// SaveSnapshot, the engine lock is held only for the in-memory capture —
// the disk work runs after release.
//
// With a WAL attached this is a full checkpoint: the log is rotated so the
// snapshot's coverage boundary is recorded, and the covered segments are
// pruned once the snapshot is durable (see Checkpoint).
func (e *Engine) SaveSnapshotFile(path string) error {
	if e.wal != nil {
		return e.Checkpoint(path)
	}
	snap, payload, storeSeq, err := e.captureSnapshot()
	if err != nil {
		return err
	}
	if err := snapshot.SaveFile(path, snap); err != nil {
		return err
	}
	e.completeStoreFlush(storeSeq, 0, payload)
	return nil
}

// ErrSnapshotCorrupt reports a snapshot stream that failed integrity
// verification (truncated or bit-flipped). Match with errors.Is.
var ErrSnapshotCorrupt = snapshot.ErrCorrupt

// RestoreStats accounts the snapshot restore an engine was built from:
// bytes read, sections, rows, annotations and attachments rebuilt, the
// workers used, and the seconds spent verifying checksums, decoding and
// building. TotalSeconds is the whole of RestoreEngine, so it also covers
// configureMeta and engine construction.
type RestoreStats = snapshot.RestoreStats

// RestoreStats reports the restore this engine was built from; the zero
// value for an engine that was not restored from a snapshot.
func (e *Engine) RestoreStats() RestoreStats { return e.restoreStats }

// RestoreEngine rebuilds an engine from a snapshot stream. configureMeta
// receives the restored database and must return the NebulaMeta repository
// for it (typically the same registration code the application ran when it
// first created the engine). Tables, annotation store and ACG are rebuilt
// concurrently on the workers opts.Parallelism resolves to.
//
// If the snapshot was written by a checkpoint, the engine remembers the
// recorded WAL coverage boundary: a subsequent ReplayWAL/RecoverWAL skips
// the segments the snapshot already folds in, so a crash between
// checkpointing and pruning never double-applies history.
func RestoreEngine(r io.Reader, configureMeta func(*Database) (*MetaRepository, error), opts Options) (*Engine, error) {
	begin := time.Now()
	st, meta, stats, err := snapshot.RestoreFrom(r, resolveWorkers(opts.Parallelism))
	if err != nil {
		return nil, err
	}
	e, err := engineFromState(st, meta, configureMeta, opts)
	if err != nil {
		return nil, err
	}
	stats.TotalSeconds = time.Since(begin).Seconds()
	e.restoreStats = stats
	return e, nil
}

// engineFromState builds the engine around a restored state and adopts the
// snapshot's small state: bounds, pending tasks, manual-focal map, ingest
// queue, WAL boundary.
func engineFromState(st snapshot.State, meta snapshot.Meta, configureMeta func(*Database) (*MetaRepository, error), opts Options) (*Engine, error) {
	repo, err := configureMeta(st.DB)
	if err != nil {
		return nil, fmt.Errorf("nebula: configure meta: %w", err)
	}
	// Snapshots that predate the manual-focal lists leave the map nil, and
	// the engine falls back to counting every current focal tuple as manual.
	var manual map[AnnotationID][]TupleID
	if len(st.ManualFocal) > 0 {
		manual = make(map[AnnotationID][]TupleID, len(st.ManualFocal))
		for _, d := range st.ManualFocal {
			manual[d.ID] = d.Tuples
		}
	}
	// The snapshot's StoreSeq is the segment generation the disk-backed
	// index must carry to be adopted without a rebuild (see store.go).
	e, err := newWithState(st.DB, repo, st.Store, st.Graph, opts, meta.StoreSeq, manual)
	if err != nil {
		return nil, err
	}
	// NewWithState created a fresh profile; adopt the restored counters.
	buckets, unreachable := st.Profile.Counts()
	e.profile.RestoreCounts(buckets, unreachable)
	e.walBaseSegment = meta.WALSegment
	if st.HasBounds {
		// The snapshot's thresholds override opts.Bounds: they reflect
		// every SetBounds/TuneBounds folded into the captured state.
		if _, err := e.applyRecord(recBounds(Bounds{Lower: st.BoundsLower, Upper: st.BoundsUpper})); err != nil {
			return nil, fmt.Errorf("nebula: restore bounds: %w", err)
		}
	}
	if len(st.Tasks) > 0 || st.NextVID > 0 {
		tasks := make([]*verification.Task, len(st.Tasks))
		for i, d := range st.Tasks {
			tasks[i] = &verification.Task{
				VID:        d.VID,
				Annotation: AnnotationID(d.Annotation),
				Tuple:      TupleID{Table: d.Table, Key: d.Key},
				Confidence: d.Confidence,
				Evidence:   append([]string(nil), d.Evidence...),
				Decision:   verification.Pending,
			}
		}
		e.manager.RestoreTasks(tasks, st.NextVID)
	}
	// Re-admit the snapshotted ingest queue (only meaningful when the
	// restoring engine enables ingest). Force preserves the recorded
	// sequence numbers so drain order survives the round trip; freshness
	// clocks restart now.
	if e.ingest != nil && (len(st.IngestJobs) > 0 || st.IngestNextSeq > 0) {
		now := time.Now()
		for _, d := range st.IngestJobs {
			e.ingest.queue.Force(ingest.Job{
				Annotation: AnnotationID(d.Annotation),
				Kind:       ingest.Kind(d.Kind),
				Priority:   d.Priority,
				Seq:        d.Seq,
				EnqueuedAt: now,
			})
		}
		e.ingest.queue.RestoreSeq(st.IngestNextSeq)
	}
	return e, nil
}
