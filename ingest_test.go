package nebula_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"nebula"
	"nebula/internal/wal"
	"nebula/internal/workload"
)

// These tests cover the streaming proactive pipeline end to end at the
// engine layer: the async submission path and its backpressure contract,
// change-data-capture precision (exactly the K-hop-affected annotations are
// re-queued, no more), the determinism invariant (any interleaving of
// mutations and drains converges to the synchronous from-scratch state),
// and durability (queued jobs survive a crash through WAL replay and
// snapshot round trips).

// ingestFixture builds a deterministic tiny dataset and an engine with the
// streaming subsystem on.
func ingestFixture(t testing.TB, mutate func(*nebula.Options)) (*nebula.Engine, *workload.Dataset) {
	t.Helper()
	ds, err := workload.Generate(workload.TinyConfig(crashSeed))
	if err != nil {
		t.Fatal(err)
	}
	opts := nebula.DefaultOptions()
	opts.Ingest = nebula.IngestConfig{Enabled: true}
	if mutate != nil {
		mutate(&opts)
	}
	e, err := nebula.NewWithState(ds.DB, ds.Meta, ds.Store, ds.Graph, opts)
	if err != nil {
		t.Fatal(err)
	}
	return e, ds
}

// renderIngestState is the identity rendering the determinism tests compare:
// every stored annotation's attachments (tuple, column, type, confidence) in
// store order, then every pending task (annotation, tuple, confidence,
// evidence) in creation order. VIDs are excluded — the streaming engine
// consumes them on intermediate drains the control never runs.
func renderIngestState(e *nebula.Engine) string {
	var b strings.Builder
	for _, id := range e.Store().IDs() {
		fmt.Fprintf(&b, "%s:", id)
		for _, att := range e.Store().Attachments(id, -1) {
			fmt.Fprintf(&b, " %s.%s:%d=%.9f", att.Tuple, att.Column, att.Type, att.Confidence)
		}
		b.WriteByte('\n')
	}
	b.WriteString("tasks:\n")
	for _, task := range e.PendingTasks() {
		fmt.Fprintf(&b, " %s %s %.9f %v\n", task.Annotation, task.Tuple, task.Confidence, task.Evidence)
	}
	return b.String()
}

// ingestMutation is one recorded tuple update, replayed against the control
// engine so both converge on the same database state.
type ingestMutation struct {
	target nebula.TupleID
	column string
	value  nebula.Value
}

// specMutation derives the update for one workload spec's first focal tuple.
// Each spec is mutated at most once per value of n, so the final database
// state does not depend on the order concurrent mutations landed in.
func specMutation(spec *workload.AnnotationSpec, n int) (ingestMutation, bool) {
	target := spec.Focal(1)[0]
	switch target.Table {
	case "Gene":
		return ingestMutation{target, "Length", nebula.Int(int64(700 + n))}, true
	case "Protein":
		return ingestMutation{target, "PType", nebula.String(fmt.Sprintf("mutant-%d", n))}, true
	}
	return ingestMutation{}, false
}

func applyMutation(e *nebula.Engine, mut ingestMutation) error {
	return e.MutateDB(func(db *nebula.Database) error {
		return db.MustTable(mut.target.Table).UpdateByKey(mut.target.Key, mut.column, mut.value)
	})
}

// TestIngestAsyncBackpressure exercises the bounded-queue contract: a full
// queue rejects AddAnnotationAsync with the typed error WITHOUT storing the
// annotation (no acknowledged-but-jobless orphans), and counts the drop.
func TestIngestAsyncBackpressure(t *testing.T) {
	e, ds := ingestFixture(t, func(o *nebula.Options) {
		o.Ingest.QueueCap = 2
	})
	specs := ds.WorkloadSet(500, workload.RefClass{Min: 1, Max: 3})
	if len(specs) < 3 {
		t.Fatalf("fixture needs >= 3 specs, got %d", len(specs))
	}
	for i := 0; i < 2; i++ {
		if _, err := e.AddAnnotationAsync(specs[i].Ann, specs[i].Focal(1), 0); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	_, err := e.AddAnnotationAsync(specs[2].Ann, specs[2].Focal(1), 0)
	if !errors.Is(err, nebula.ErrIngestQueueFull) {
		t.Fatalf("expected ErrIngestQueueFull, got %v", err)
	}
	if _, ok := e.Store().Get(specs[2].Ann.ID); ok {
		t.Fatal("rejected submission must not store the annotation")
	}
	st := e.IngestStats()
	if st.QueueDepth != 2 || st.Dropped != 1 {
		t.Fatalf("depth=%d dropped=%d, want 2/1", st.QueueDepth, st.Dropped)
	}
	// A drain frees room; the retry succeeds.
	if _, err := e.DrainIngest(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddAnnotationAsync(specs[2].Ann, specs[2].Focal(1), 0); err != nil {
		t.Fatalf("retry after drain: %v", err)
	}
}

// TestIngestCoalescing asserts duplicate enqueues fold into the queued job:
// one queue slot, the higher priority, the ORIGINAL sequence (queue position
// is admission order, not last-touch order).
func TestIngestCoalescing(t *testing.T) {
	e, ds := ingestFixture(t, nil)
	spec := ds.WorkloadSet(500, workload.RefClass{Min: 1, Max: 3})[0]
	if err := e.AddAnnotation(spec.Ann, spec.Focal(1)); err != nil {
		t.Fatal(err)
	}
	first, err := e.EnqueueDiscovery(spec.Ann.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	second, err := e.EnqueueDiscovery(spec.Ann.ID, 5)
	if err != nil {
		t.Fatal(err)
	}
	if second.Seq != first.Seq {
		t.Fatalf("coalesce changed seq %d -> %d", first.Seq, second.Seq)
	}
	if second.Priority != 5 {
		t.Fatalf("coalesce kept priority %d, want upgraded 5", second.Priority)
	}
	st := e.IngestStats()
	if st.QueueDepth != 1 || st.Coalesced != 1 || st.Enqueued != 1 {
		t.Fatalf("depth=%d coalesced=%d enqueued=%d, want 1/1/1", st.QueueDepth, st.Coalesced, st.Enqueued)
	}
}

// TestIngestCDCExactNeighborhood is the change-data-capture precision check:
// a tuple update re-queues EXACTLY the annotations attached within the
// configured K-hop ACG neighborhood of the changed row — asserted by count
// and by set, against the graph's own neighborhood computation.
func TestIngestCDCExactNeighborhood(t *testing.T) {
	e, ds := ingestFixture(t, nil)
	ctx := context.Background()
	specs := ds.WorkloadSet(500, workload.RefClass{Min: 4, Max: 6})
	for i := 0; i < 4 && i < len(specs); i++ {
		if _, err := e.AddAnnotationAsync(specs[i].Ann, specs[i].Focal(1), 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.FlushIngest(ctx); err != nil {
		t.Fatal(err)
	}
	if d := e.IngestStats().QueueDepth; d != 0 {
		t.Fatalf("queue not empty after flush: %d", d)
	}

	target := specs[0].Focal(1)[0]
	mut, ok := specMutation(specs[0], 0)
	if !ok {
		t.Fatalf("unmutable focal table %s", target.Table)
	}
	affected := e.Graph().AffectedAnnotations([]nebula.TupleID{target}, nebula.DefaultIngestCDCHops)
	if len(affected) == 0 {
		t.Fatal("fixture produced no affected annotations; mutation target must carry attachments")
	}
	if err := applyMutation(e, mut); err != nil {
		t.Fatal(err)
	}
	jobs := e.IngestJobs()
	if len(jobs) != len(affected) {
		t.Fatalf("CDC queued %d jobs, K-hop neighborhood has %d annotations", len(jobs), len(affected))
	}
	want := make(map[nebula.AnnotationID]bool, len(affected))
	for _, id := range affected {
		want[id] = true
	}
	for _, j := range jobs {
		if !want[j.Annotation] {
			t.Fatalf("CDC queued %s, outside the %d-hop neighborhood of %s",
				j.Annotation, nebula.DefaultIngestCDCHops, target)
		}
	}
}

// TestIngestInterleavingConvergence is the determinism property test: a
// seeded random interleaving of async submissions, tuple mutations, partial
// drains, and manual re-enqueues — followed by a concurrent phase where a
// mutator goroutine races the drainer — must converge (after a final
// re-discovery flush) to annotation state byte-identical to a from-scratch
// synchronous engine over the final database. Run under -race, this also
// proves the lock discipline of the CDC capture and drain paths. The
// seeded cases run ten L^500 annotations; the last case runs the whole
// tiny workload, every size and reference class.
func TestIngestInterleavingConvergence(t *testing.T) {
	firstTen := func(ds *workload.Dataset) []*workload.AnnotationSpec {
		specs := ds.WorkloadSet(500, workload.RefClass{})
		if len(specs) > 10 {
			specs = specs[:10]
		}
		return specs
	}
	for _, seed := range []int64{1, 7, 23} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			checkIngestConvergence(t, seed, firstTen)
		})
	}
	t.Run("whole-workload", func(t *testing.T) {
		checkIngestConvergence(t, 42, func(ds *workload.Dataset) []*workload.AnnotationSpec { return ds.Workload })
	})
}

// checkIngestConvergence runs one case of TestIngestInterleavingConvergence
// over the specs pick selects, submitted in the order it returns them.
func checkIngestConvergence(t *testing.T, seed int64, pick func(*workload.Dataset) []*workload.AnnotationSpec) {
	e, ds := ingestFixture(t, nil)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))
	specs := pick(ds)
	var muts []ingestMutation

	// Phase 1 — sequential random interleaving. Annotations are
	// always added in spec order (store insertion order must match
	// the control); only the interleaving is random.
	added := 0
	for step := 0; added < len(specs) || step < 4*len(specs); step++ {
		switch p := rng.Float64(); {
		case p < 0.45 && added < len(specs):
			spec := specs[added]
			if _, err := e.AddAnnotationAsync(spec.Ann, spec.Focal(1), rng.Intn(3)); err != nil {
				t.Fatalf("submit %s: %v", spec.Ann.ID, err)
			}
			added++
		case p < 0.65 && added > 0:
			if mut, ok := specMutation(specs[rng.Intn(added)], len(muts)); ok {
				muts = append(muts, mut)
				if err := applyMutation(e, mut); err != nil {
					t.Fatal(err)
				}
			}
		case p < 0.9:
			if _, err := e.DrainIngest(ctx, rng.Intn(3)); err != nil {
				t.Fatal(err)
			}
		case added > 0:
			if _, err := e.EnqueueDiscovery(specs[rng.Intn(added)].Ann.ID, rng.Intn(2)); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Phase 2 — mutator races drainer. Each spec is mutated at most
	// once here (distinct n per mutation, one mutation per spec), so
	// the final database state is order-independent.
	concurrent := make([]ingestMutation, 0, len(specs))
	for i, spec := range specs {
		if mut, ok := specMutation(spec, 1000+i); ok {
			concurrent = append(concurrent, mut)
		}
	}
	muts = append(muts, concurrent...)
	var wg sync.WaitGroup
	wg.Add(2)
	errCh := make(chan error, 2)
	go func() {
		defer wg.Done()
		for _, mut := range concurrent {
			if err := applyMutation(e, mut); err != nil {
				errCh <- err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 2*len(concurrent); i++ {
			if _, err := e.DrainIngest(ctx, 1); err != nil {
				errCh <- err
				return
			}
		}
	}()
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	// Phase 3 — convergence: flush the CDC tail, then re-discover
	// every stored annotation over the final database state.
	if _, err := e.FlushIngest(ctx); err != nil {
		t.Fatal(err)
	}
	for _, id := range e.Store().IDs() {
		if _, err := e.EnqueueDiscovery(id, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.FlushIngest(ctx); err != nil {
		t.Fatal(err)
	}
	got := renderIngestState(e)

	// Control — a fresh dataset, the same mutations, the same
	// annotations, synchronous from-scratch processing.
	cds, err := workload.Generate(workload.TinyConfig(crashSeed))
	if err != nil {
		t.Fatal(err)
	}
	control, err := nebula.NewWithState(cds.DB, cds.Meta, cds.Store, cds.Graph, nebula.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, mut := range muts {
		if err := applyMutation(control, mut); err != nil {
			t.Fatal(err)
		}
	}
	cspecs := pick(cds)
	for _, spec := range cspecs {
		if err := control.AddAnnotation(spec.Ann, spec.Focal(1)); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range control.ProcessBatch(control.Store().IDs()) {
		if r.Err != nil {
			t.Fatalf("control process %s: %v", r.ID, r.Err)
		}
	}
	want := renderIngestState(control)
	if got != want {
		t.Fatalf("streaming state diverged from synchronous control\n--- streaming ---\n%s\n--- control ---\n%s", got, want)
	}
	// The mutations must have driven change-data-capture: with no
	// re-discovery jobs the identity above would not exercise CDC at all.
	if st := e.IngestStats(); st.Rediscoveries == 0 || st.Drains == 0 || st.Done == 0 {
		t.Fatalf("pipeline did no CDC work: %+v", st)
	}
}

// TestIngestQueueSurvivesWALReplay is the crash-durability check the ISSUE
// demands: acknowledged async submissions that were never drained must come
// back from WAL replay — same jobs, same drain order, same sequence counter
// — and draining the recovered engine must reach the exact state the live
// engine reaches.
func TestIngestQueueSurvivesWALReplay(t *testing.T) {
	ds, err := workload.Generate(workload.TinyConfig(crashSeed))
	if err != nil {
		t.Fatal(err)
	}
	opts := nebula.DefaultOptions()
	opts.Ingest = nebula.IngestConfig{Enabled: true}
	e, err := nebula.NewWithState(ds.DB, ds.Meta, ds.Store, ds.Graph, opts)
	if err != nil {
		t.Fatal(err)
	}
	var baseline bytes.Buffer
	if err := e.SaveSnapshot(&baseline); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	l, err := wal.Open(dir, wal.Options{Sync: wal.SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	e.AttachWAL(l)

	ctx := context.Background()
	specs := ds.WorkloadSet(500, workload.RefClass{Min: 4, Max: 6})
	for i := 0; i < 3; i++ {
		if _, err := e.AddAnnotationAsync(specs[i].Ann, specs[i].Focal(1), i); err != nil {
			t.Fatal(err)
		}
	}
	// Drain ONE job; the other two stay queued across the crash. Then a
	// mutation re-queues the drained annotation's neighborhood, so the
	// surviving queue mixes discover and rediscover jobs.
	if _, err := e.DrainIngest(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if mut, ok := specMutation(specs[0], 0); ok {
		if err := applyMutation(e, mut); err != nil {
			t.Fatal(err)
		}
	}
	liveJobs := e.IngestJobs()
	if len(liveJobs) < 2 {
		t.Fatalf("fixture left only %d jobs queued", len(liveJobs))
	}
	// Crash: close the log (flushing buffers) and recover from the baseline
	// snapshot plus the segment — the ingest flush a graceful shutdown runs
	// never happens.
	if err := e.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	r, err := nebula.RestoreEngine(bytes.NewReader(baseline.Bytes()), configureWorkloadMeta, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReplayWAL(dir, nil); err != nil {
		t.Fatal(err)
	}
	recJobs := r.IngestJobs()
	if len(recJobs) != len(liveJobs) {
		t.Fatalf("replay rebuilt %d jobs, live had %d", len(recJobs), len(liveJobs))
	}
	for i := range liveJobs {
		lj, rj := liveJobs[i], recJobs[i]
		if lj.Annotation != rj.Annotation || lj.Kind != rj.Kind || lj.Priority != rj.Priority || lj.Seq != rj.Seq {
			t.Fatalf("job %d diverged: live %+v, recovered %+v", i, lj, rj)
		}
	}
	if ls, rs := e.IngestStats().NextSeq, r.IngestStats().NextSeq; ls != rs {
		t.Fatalf("sequence counter diverged: live %d, recovered %d", ls, rs)
	}
	// Both engines drain to completion and must be indistinguishable.
	if _, err := e.FlushIngest(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := r.FlushIngest(ctx); err != nil {
		t.Fatal(err)
	}
	if fingerprint(t, e) != fingerprint(t, r) {
		t.Fatal("drained state diverged between live and recovered engines")
	}
}

// TestIngestQueueSnapshotRoundTrip asserts a checkpoint carries the queue:
// save with jobs queued, restore, and the restored engine holds the same
// jobs in the same order with the same sequence counter — then both drain
// to identical state.
func TestIngestQueueSnapshotRoundTrip(t *testing.T) {
	e, ds := ingestFixture(t, nil)
	ctx := context.Background()
	specs := ds.WorkloadSet(500, workload.RefClass{Min: 4, Max: 6})
	for i := 0; i < 3; i++ {
		if _, err := e.AddAnnotationAsync(specs[i].Ann, specs[i].Focal(1), i); err != nil {
			t.Fatal(err)
		}
	}
	var snap bytes.Buffer
	if err := e.SaveSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	opts := nebula.DefaultOptions()
	opts.Ingest = nebula.IngestConfig{Enabled: true}
	r, err := nebula.RestoreEngine(bytes.NewReader(snap.Bytes()), configureWorkloadMeta, opts)
	if err != nil {
		t.Fatal(err)
	}
	liveJobs, recJobs := e.IngestJobs(), r.IngestJobs()
	if len(recJobs) != len(liveJobs) || len(recJobs) != 3 {
		t.Fatalf("restored %d jobs, live has %d, want 3", len(recJobs), len(liveJobs))
	}
	for i := range liveJobs {
		lj, rj := liveJobs[i], recJobs[i]
		if lj.Annotation != rj.Annotation || lj.Kind != rj.Kind || lj.Priority != rj.Priority || lj.Seq != rj.Seq {
			t.Fatalf("job %d diverged: live %+v, restored %+v", i, lj, rj)
		}
	}
	if ls, rs := e.IngestStats().NextSeq, r.IngestStats().NextSeq; ls != rs {
		t.Fatalf("sequence counter diverged: live %d, restored %d", ls, rs)
	}
	if _, err := e.FlushIngest(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := r.FlushIngest(ctx); err != nil {
		t.Fatal(err)
	}
	if fingerprint(t, e) != fingerprint(t, r) {
		t.Fatal("drained state diverged between live and restored engines")
	}
}
