package nebula_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"nebula"
	"nebula/internal/wal"
	"nebula/internal/workload"
)

// shardCounts is the partition ladder every determinism leg climbs. 1 is
// the unsharded control; the rest must be byte-identical to it.
var shardCounts = []int{1, 2, 4, 8}

// shardDetEngine builds a fresh engine over a freshly generated
// (deterministic) dataset, hash-partitioned across n shards. Each shard
// count gets its own dataset copy because the scripts mutate engine state;
// generation is seeded, so the starting states are identical.
func shardDetEngine(t *testing.T, n int, ingest bool) (*nebula.Engine, []*workload.AnnotationSpec) {
	t.Helper()
	ds, err := workload.Generate(workload.TinyConfig(17))
	if err != nil {
		t.Fatal(err)
	}
	opts := nebula.DefaultOptions()
	opts.Bounds = nebula.Bounds{Lower: 0.2, Upper: 0.8}
	opts.Shards = n
	if ingest {
		opts.Ingest = nebula.IngestConfig{Enabled: true, QueueCap: 4 * (ds.Store.Len() + len(ds.Workload) + 1)}
	}
	e, err := nebula.NewWithState(ds.DB, ds.Meta, ds.Store, ds.Graph, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Workload) < 8 {
		t.Fatalf("fixture too small: %d workload annotations", len(ds.Workload))
	}
	return e, ds.Workload
}

// renderEngineState folds the mutable annotation-side state into one
// canonical string: every attachment (with type and confidence) and the
// pending verification queue. No stats, no timings — only results, so it is
// comparable across shard counts where cache hit/miss patterns may differ.
func renderEngineState(e *nebula.Engine) string {
	var b strings.Builder
	for _, id := range e.Store().IDs() {
		fmt.Fprintf(&b, "%s:", id)
		for _, att := range e.Store().Attachments(id, -1) {
			fmt.Fprintf(&b, " %s/%s.%s:%d=%.9f", att.Tuple.Table, att.Tuple.Key, att.Column, att.Type, att.Confidence)
		}
		b.WriteByte('\n')
	}
	b.WriteString("tasks:\n")
	for _, task := range e.PendingTasks() {
		fmt.Fprintf(&b, " %s %s/%s %.9f [%s]\n",
			task.Annotation, task.Tuple.Table, task.Tuple.Key, task.Confidence, strings.Join(task.Evidence, ","))
	}
	return b.String()
}

// shardDetRequests is the request-option matrix the discovery legs sweep:
// caching on and off, worker parallelism, and the top-k cut — every
// per-request surface whose caches and scheduling could in principle
// observe the shard count.
func shardDetRequests() []nebula.RequestOptions {
	return []nebula.RequestOptions{
		{Cache: "on", Parallelism: 1},
		{Cache: "off", Parallelism: 1},
		{Cache: "on", Parallelism: 4},
		{Cache: "on", TopK: 3},
		{Cache: "off", TopK: 3},
	}
}

// TestShardCountDeterminismDiscovery runs the full request-option matrix
// over every workload annotation at 1/2/4/8 shards, interleaving writes
// (which bump one shard's mutation epoch) with cached re-discoveries (which
// must observe them). Output must be byte-identical to the 1-shard control
// at every step; a stale cache hit or a lost invalidation diverges here.
func TestShardCountDeterminismDiscovery(t *testing.T) {
	ctx := context.Background()
	var base string
	for _, n := range shardCounts {
		e, specs := shardDetEngine(t, n, false)
		specs = specs[:8]
		ids := make([]nebula.AnnotationID, len(specs))
		for i, s := range specs {
			ids[i] = s.Ann.ID
			if err := e.AddAnnotation(s.Ann, s.Focal(1)); err != nil {
				t.Fatal(err)
			}
		}
		var b strings.Builder
		for ri, req := range shardDetRequests() {
			results := e.DiscoverBatchRequest(ctx, ids, req)
			fmt.Fprintf(&b, "== req %d\n", ri)
			b.WriteString(renderBatchResults(results))
			// A write homed on exactly one shard: at n > 1 it must
			// invalidate precisely the cached discoveries that could see it,
			// and the re-run below must not serve anything stale.
			w := &nebula.Annotation{
				ID:     nebula.AnnotationID(fmt.Sprintf("shard-det-w%d", ri)),
				Author: "det",
				Body:   fmt.Sprintf("shard determinism writer %d", ri),
				Kind:   "det",
			}
			if err := e.AddAnnotation(w, specs[ri%len(specs)].Focal(1)); err != nil {
				t.Fatal(err)
			}
			results = e.DiscoverBatchRequest(ctx, ids, req)
			fmt.Fprintf(&b, "== req %d after write\n", ri)
			b.WriteString(renderBatchResults(results))
		}
		got := b.String()
		if n == 1 {
			base = got
			continue
		}
		if got != base {
			t.Errorf("shards=%d: discovery output diverged from single-shard control\n--- shards=1\n%s--- shards=%d\n%s",
				n, base, n, got)
		}
	}
}

// TestShardCountDeterminismProcess checks the full mutating pipeline:
// ProcessBatch (Stage-3 VID assignment, ACG updates, verification routing)
// followed by the pending-queue and attachment state, identical at every
// shard count.
func TestShardCountDeterminismProcess(t *testing.T) {
	var base string
	for _, n := range shardCounts {
		e, specs := shardDetEngine(t, n, false)
		specs = specs[:8]
		ids := make([]nebula.AnnotationID, len(specs))
		for i, s := range specs {
			ids[i] = s.Ann.ID
			if err := e.AddAnnotation(s.Ann, s.Focal(1)); err != nil {
				t.Fatal(err)
			}
		}
		results := e.ProcessBatch(ids)
		got := renderBatchResults(results) + renderEngineState(e)
		if n == 1 {
			base = got
			continue
		}
		if got != base {
			t.Errorf("shards=%d: ProcessBatch output diverged from single-shard control", n)
		}
	}
}

// TestShardCountDeterminismIngest scripts the streaming path — async adds,
// queued discoveries, drains, relational mutations with CDC re-discovery,
// and a convergence flush — and checks the drained state is identical at
// every shard count. This is the leg where single-shard admission
// (AddAnnotationAsync, EnqueueDiscovery) interleaves with whole-group
// drains.
func TestShardCountDeterminismIngest(t *testing.T) {
	ctx := context.Background()
	var base string
	for _, n := range shardCounts {
		e, specs := shardDetEngine(t, n, true)
		for i, s := range specs {
			if i%2 == 0 {
				if err := e.AddAnnotation(s.Ann, s.Focal(1)); err != nil {
					t.Fatal(err)
				}
				if _, err := e.EnqueueDiscovery(s.Ann.ID, 0); err != nil {
					t.Fatal(err)
				}
			} else {
				if _, err := e.AddAnnotationAsync(s.Ann, s.Focal(1), 0); err != nil {
					t.Fatal(err)
				}
			}
			if (i+1)%3 == 0 {
				if _, err := e.DrainIngest(ctx, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := e.FlushIngest(ctx); err != nil {
			t.Fatal(err)
		}
		got := renderEngineState(e)
		if n == 1 {
			base = got
			continue
		}
		if got != base {
			t.Errorf("shards=%d: ingest-drained state diverged from single-shard control\n--- shards=1\n%s--- shards=%d\n%s",
				n, base, n, got)
		}
	}
}

// TestShardWALReplayShardCountInvariant checks durability across shard
// counts: shard homes are recomputed from the annotation ID, never
// persisted, so a WAL written by a 4-shard engine must recover to the same
// state on a 1-shard and an 8-shard engine.
func TestShardWALReplayShardCountInvariant(t *testing.T) {
	const seed = 29
	ds, err := workload.Generate(workload.TinyConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	opts := nebula.DefaultOptions()
	opts.Bounds = nebula.Bounds{Lower: 0.2, Upper: 0.8}
	opts.Shards = 4
	e, err := nebula.NewWithState(ds.DB, ds.Meta, ds.Store, ds.Graph, opts)
	if err != nil {
		t.Fatal(err)
	}
	var baseline bytes.Buffer
	if err := e.SaveSnapshot(&baseline); err != nil {
		t.Fatal(err)
	}
	walDir := t.TempDir()
	l, err := wal.Open(walDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e.AttachWAL(l)
	specs := ds.Workload[:6]
	ids := make([]nebula.AnnotationID, len(specs))
	for i, s := range specs {
		ids[i] = s.Ann.ID
		if err := e.AddAnnotation(s.Ann, s.Focal(1)); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range e.ProcessBatch(ids) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	want := renderEngineState(e)

	configure := func(db *nebula.Database) (*nebula.MetaRepository, error) {
		return workload.BuildMeta(db, rand.New(rand.NewSource(seed)))
	}
	for _, n := range []int{1, 8} {
		ropts := nebula.DefaultOptions()
		ropts.Bounds = nebula.Bounds{Lower: 0.2, Upper: 0.8}
		ropts.Shards = n
		re, err := nebula.RestoreEngine(bytes.NewReader(baseline.Bytes()), configure, ropts)
		if err != nil {
			t.Fatalf("shards=%d: restore: %v", n, err)
		}
		if _, err := re.ReplayWAL(walDir, nil); err != nil {
			t.Fatalf("shards=%d: replay: %v", n, err)
		}
		if got := renderEngineState(re); got != want {
			t.Errorf("shards=%d: recovered state diverged from the 4-shard writer\n--- writer\n%s--- recovered\n%s",
				n, want, got)
		}
	}
}

// TestShardStatsPartition checks the observability surface: ShardStats must
// account for every annotation exactly once, on the shard the hash says is
// home, with per-shard mutation epochs summing over the work done.
func TestShardStatsPartition(t *testing.T) {
	e, specs := shardDetEngine(t, 4, false)
	for _, s := range specs[:8] {
		if err := e.AddAnnotation(s.Ann, s.Focal(1)); err != nil {
			t.Fatal(err)
		}
	}
	ss := e.ShardStats()
	if ss.Shards != 4 || len(ss.PerShard) != 4 {
		t.Fatalf("ShardStats shape: %+v", ss)
	}
	total, muts := 0, uint64(0)
	for i, s := range ss.PerShard {
		if s.Shard != i {
			t.Errorf("shard %d reported index %d", i, s.Shard)
		}
		total += s.Annotations
		muts += s.Mutations
	}
	if want := len(e.Store().IDs()); total != want {
		t.Errorf("per-shard annotation counts sum to %d, store holds %d", total, want)
	}
	if muts < 8 {
		t.Errorf("mutation epochs sum to %d after 8 writes", muts)
	}
}
