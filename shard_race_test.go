package nebula_test

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"nebula"
	"nebula/internal/wal"
	"nebula/internal/workload"
)

// canonicalShardState renders the annotation-side state as an
// order-independent set: every annotation, every attachment (type and
// confidence), every pending verification task (without its VID — queue
// sequence numbers depend on arrival order, which concurrency legitimately
// permutes; what must not vary is the set of verifications demanded).
func canonicalShardState(e *nebula.Engine) string {
	var lines []string
	for _, id := range e.Store().IDs() {
		lines = append(lines, fmt.Sprintf("ann %s", id))
		for _, att := range e.Store().Attachments(id, -1) {
			lines = append(lines, fmt.Sprintf("att %s %s/%s.%s:%d=%.9f",
				id, att.Tuple.Table, att.Tuple.Key, att.Column, att.Type, att.Confidence))
		}
	}
	for _, task := range e.PendingTasks() {
		lines = append(lines, fmt.Sprintf("task %s %s/%s %.9f [%s]",
			task.Annotation, task.Tuple.Table, task.Tuple.Key, task.Confidence, strings.Join(task.Evidence, ",")))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// shardRaceOptions configures both engines of the race test with
// annotation-local discovery (no graph-dependent refinements), so each
// annotation's outcome depends only on the static database — making the
// final state interleaving-independent and comparable across runs.
func shardRaceOptions(n, queueCap int) nebula.Options {
	opts := nebula.DefaultOptions()
	opts.Bounds = nebula.Bounds{Lower: 0.2, Upper: 0.8}
	opts.Shards = n
	opts.FocalAdjustment = false
	opts.Spreading = false
	opts.RequireStableACG = false
	opts.Ingest = nebula.IngestConfig{Enabled: true, QueueCap: queueCap}
	return opts
}

// TestShardConcurrentMutationIdentity is the sharding property test (run
// under -race by make check): per-shard mutators, async admissions, ingest
// drains, snapshot captures, and WAL checkpoints all interleave freely on a
// 4-shard engine, and the converged state must be byte-identical (as a
// canonical set) to a from-scratch single-shard engine that applied the
// same operations sequentially.
func TestShardConcurrentMutationIdentity(t *testing.T) {
	ds, err := workload.Generate(workload.TinyConfig(23))
	if err != nil {
		t.Fatal(err)
	}
	queueCap := 4 * (ds.Store.Len() + len(ds.Workload) + 1)
	e, err := nebula.NewWithState(ds.DB, ds.Meta, ds.Store, ds.Graph, shardRaceOptions(4, queueCap))
	if err != nil {
		t.Fatal(err)
	}
	walDir := t.TempDir()
	l, err := wal.Open(walDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e.AttachWAL(l)

	specs := ds.Workload
	ctx := context.Background()
	done := make(chan struct{})
	errCh := make(chan error, 8)
	// wg tracks the bounded goroutines (writers, snapshots, checkpoints);
	// the drainer loops until they finish, so it gets its own WaitGroup.
	var wg, drainWG sync.WaitGroup

	// Two synchronous writers split the even specs: single-shard
	// AddAnnotation (home-shard write lock) plus EnqueueDiscovery
	// (home shard + ingest admission).
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 2 * w; i < len(specs); i += 4 {
				s := specs[i]
				if err := e.AddAnnotation(s.Ann, s.Focal(1)); err != nil {
					errCh <- fmt.Errorf("add %s: %w", s.Ann.ID, err)
					return
				}
				if _, err := e.EnqueueDiscovery(s.Ann.ID, 0); err != nil {
					errCh <- fmt.Errorf("enqueue %s: %w", s.Ann.ID, err)
					return
				}
			}
		}(w)
	}
	// One async writer takes the odd specs through the combined
	// admission path.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i < len(specs); i += 2 {
			s := specs[i]
			if _, err := e.AddAnnotationAsync(s.Ann, s.Focal(1), 0); err != nil {
				errCh <- fmt.Errorf("async %s: %w", s.Ann.ID, err)
				return
			}
		}
	}()
	// A drainer processes the queue (whole-group lock) while admissions
	// continue on single-shard locks.
	drainWG.Add(1)
	go func() {
		defer drainWG.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := e.DrainIngest(ctx, 4); err != nil {
				errCh <- fmt.Errorf("drain: %w", err)
				return
			}
		}
	}()
	// Snapshot captures hold the whole-group read lock mid-stream.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			if err := e.SaveSnapshot(io.Discard); err != nil {
				errCh <- fmt.Errorf("snapshot: %w", err)
				return
			}
		}
	}()
	// WAL checkpoints fold durable history while writers append to it.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2; i++ {
			path := filepath.Join(walDir, fmt.Sprintf("ckpt-%d.snap", i))
			if err := e.Checkpoint(path); err != nil {
				errCh <- fmt.Errorf("checkpoint: %w", err)
				return
			}
		}
	}()

	// Release the drainer once the writers, snapshots, and checkpoints have
	// all finished, then wait for its final pass.
	wg.Wait()
	close(done)
	drainWG.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if _, err := e.FlushIngest(ctx); err != nil {
		t.Fatal(err)
	}
	got := canonicalShardState(e)

	// From-scratch single-shard control: identical operations, sequential,
	// canonical order.
	cds, err := workload.Generate(workload.TinyConfig(23))
	if err != nil {
		t.Fatal(err)
	}
	control, err := nebula.NewWithState(cds.DB, cds.Meta, cds.Store, cds.Graph, shardRaceOptions(1, queueCap))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range cds.Workload {
		if err := control.AddAnnotation(s.Ann, s.Focal(1)); err != nil {
			t.Fatal(err)
		}
		if _, err := control.EnqueueDiscovery(s.Ann.ID, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := control.FlushIngest(ctx); err != nil {
		t.Fatal(err)
	}
	want := canonicalShardState(control)

	if got != want {
		t.Errorf("concurrent 4-shard state diverged from sequential single-shard control\n--- control\n%s\n--- concurrent\n%s", want, got)
	}
}

// TestShardPropagateReadsBesideDiscover runs query-time propagation
// (PropagateQuery, PropagateJoin) beside cached discoveries on a 4-shard
// engine. Both hold only the read lock, so under -race this checks that
// propagation writes no shared state, and every concurrent answer must
// equal the one computed alone.
func TestShardPropagateReadsBesideDiscover(t *testing.T) {
	ds, err := workload.Generate(workload.TinyConfig(23))
	if err != nil {
		t.Fatal(err)
	}
	opts := nebula.DefaultOptions()
	opts.Shards = 4
	e, err := nebula.NewWithState(ds.DB, ds.Meta, ds.Store, ds.Graph, opts)
	if err != nil {
		t.Fatal(err)
	}
	specs := ds.Workload[:4]
	for _, s := range specs {
		if err := e.AddAnnotation(s.Ann, s.Focal(1)); err != nil {
			t.Fatal(err)
		}
	}
	gene, protein := nebula.StructuredQuery{Table: "Gene"}, nebula.StructuredQuery{Table: "Protein"}
	propagated := func() string {
		rows, err := e.PropagateQuery(gene, nil)
		if err != nil {
			t.Error(err)
			return ""
		}
		joined, err := e.PropagateJoin(protein, gene, nil, nil)
		if err != nil {
			t.Error(err)
			return ""
		}
		var b strings.Builder
		for _, r := range rows {
			fmt.Fprintf(&b, "%s %d %v\n", r.Row.ID, len(r.Annotations), r.Confidences)
		}
		for _, r := range joined {
			fmt.Fprintf(&b, "%s %s %d %v\n", r.Left.ID, r.Right.ID, len(r.Annotations), r.Confidences)
		}
		return b.String()
	}
	want := propagated()
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if got := propagated(); got != want {
					t.Error("propagation beside discovery answered differently than alone")
					return
				}
			}
		}()
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				id := specs[(w+i)%len(specs)].Ann.ID
				if _, err := e.DiscoverRequest(ctx, id, nebula.RequestOptions{}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestShardCheckIntegrityBesideDiscover runs the integrity audit beside
// cached discoveries on a 4-shard engine. Both hold only the read lock, so
// under -race this checks that the audit writes no shared state, and every
// concurrent audit must report what the audit alone reports.
func TestShardCheckIntegrityBesideDiscover(t *testing.T) {
	ds, err := workload.Generate(workload.TinyConfig(23))
	if err != nil {
		t.Fatal(err)
	}
	opts := nebula.DefaultOptions()
	opts.Shards = 4
	e, err := nebula.NewWithState(ds.DB, ds.Meta, ds.Store, ds.Graph, opts)
	if err != nil {
		t.Fatal(err)
	}
	specs := ds.Workload[:4]
	for _, s := range specs {
		if err := e.AddAnnotation(s.Ann, s.Focal(1)); err != nil {
			t.Fatal(err)
		}
	}
	want := e.CheckIntegrity()
	if !want.OK() || want.GraphNodes == 0 {
		t.Fatalf("audit alone: %+v", want)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if got := e.CheckIntegrity(); !reflect.DeepEqual(got, want) {
					t.Errorf("audit beside discovery reported %+v, alone %+v", got, want)
					return
				}
			}
		}()
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				id := specs[(w+i)%len(specs)].Ann.ID
				if _, err := e.DiscoverRequest(ctx, id, nebula.RequestOptions{}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
