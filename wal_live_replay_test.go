package nebula_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"nebula"
	"nebula/internal/wal"
	"nebula/internal/workload"
)

// TestWALLiveEqualsReplayEveryStep drives every kind of write the engine
// logs — the crash script, then the streaming pipeline (async adds, a
// priority upgrade, a partial drain, change-data-capture from a row update
// and from a tuple deletion, a flush), a shell ANNOTATE, bounds training and
// a batch — and after EVERY step recovers an engine from the baseline
// snapshot plus the log written so far. The recovered fingerprint must equal
// the live one at each step, not just at the end: a write whose live path
// and replay path drift apart fails at the step that wrote it. It runs at one
// and at four shards, since single-shard writers log from under their home
// shard alone.
func TestWALLiveEqualsReplayEveryStep(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			liveEqualsReplay(t, shards)
		})
	}
}

func liveEqualsReplay(t *testing.T, shards int) {
	ds, err := workload.Generate(workload.TinyConfig(crashSeed))
	if err != nil {
		t.Fatal(err)
	}
	opts := nebula.DefaultOptions()
	opts.Shards = shards
	opts.Ingest = nebula.IngestConfig{Enabled: true, CDCHops: 1}
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
	defer e.CloseWAL()

	ctx := context.Background()
	specs := ds.WorkloadSet(500, workload.RefClass{Min: 4, Max: 6})
	if len(specs) < 5 {
		t.Fatalf("fixture needs >= 5 specs, got %d", len(specs))
	}
	steps := append(crashScript(e, ds), []scriptStep{
		{"add-async-2", func() error {
			_, err := e.AddAnnotationAsync(specs[2].Ann, specs[2].Focal(1), 0)
			return err
		}},
		{"add-async-3", func() error {
			_, err := e.AddAnnotationAsync(specs[3].Ann, specs[3].Focal(1), 1)
			return err
		}},
		{"enqueue-upgrade-2", func() error {
			adm, err := e.EnqueueDiscovery(specs[2].Ann.ID, 5)
			if err == nil && !adm.Coalesced {
				err = fmt.Errorf("enqueue of a queued annotation was admitted anew: %+v", adm)
			}
			return err
		}},
		{"drain-one", func() error {
			_, err := e.DrainIngest(ctx, 1)
			return err
		}},
		{"cdc-mutate", func() error {
			mut, ok := specMutation(specs[2], 1)
			if !ok {
				return fmt.Errorf("spec %s has no mutable focal", specs[2].Ann.ID)
			}
			return applyMutation(e, mut)
		}},
		{"cdc-mutate-readable", func() error {
			// cdc-mutate rewrites an inert Gene.Length, which re-queues only
			// its own row's annotations; a Protein.PType update re-queues
			// the CDCHops neighbourhood.
			mut, ok := specMutation(specs[0], 1)
			if !ok || mut.column != "PType" {
				return fmt.Errorf("spec %s has no Protein focal", specs[0].Ann.ID)
			}
			return applyMutation(e, mut)
		}},
		{"exec-annotate", func() error {
			gene := e.DB().MustTable("Gene").Rows()[0]
			_, err := e.ExecCommand(fmt.Sprintf("ANNOTATE Gene '%s' AS 'sql-note' BODY '%s'",
				gene.MustGet("GID").Str(), specs[4].Ann.Body))
			return err
		}},
		{"tune-bounds", func() error {
			var training []nebula.TrainingExample
			for _, spec := range ds.TrainingSet(3) {
				training = append(training, nebula.TrainingExample{Annotation: spec.Ann, Ideal: spec.Related})
			}
			_, _, err := e.TuneBounds(training, nebula.DefaultBoundsConfig())
			return err
		}},
		{"add-annotation-4", func() error {
			return e.AddAnnotation(specs[4].Ann, specs[4].Focal(1))
		}},
		{"process-batch-4", func() error {
			return batchErr(e.ProcessBatch([]nebula.AnnotationID{specs[4].Ann.ID}))
		}},
		{"delete-tuple-cdc", func() error {
			_, _, err := e.DeleteTuple(specs[3].Focal(1)[0])
			return err
		}},
		{"flush-ingest", func() error {
			_, err := e.FlushIngest(ctx)
			return err
		}},
	}...)

	for _, s := range steps {
		if err := s.run(); err != nil {
			t.Fatalf("step %s: %v", s.name, err)
		}
		re, stats := replayCopy(t, baseline.Bytes(), walDir, opts)
		if stats.ApplyErrors != 0 {
			t.Fatalf("step %s: replay hit %d apply errors", s.name, stats.ApplyErrors)
		}
		if fingerprint(t, re) != fingerprint(t, e) {
			t.Fatalf("step %s: the engine replayed from %d records diverged from the live engine",
				s.name, stats.Records)
		}
	}
	seen := loggedOps(t, walDir)
	for op := wal.OpAddAnnotation; op <= wal.OpIngestDone; op++ {
		if seen[op] == 0 {
			t.Errorf("the steps logged no %v record", op)
		}
	}
}

// loggedOps counts the records of each op in the log directory.
func loggedOps(t *testing.T, walDir string) map[wal.Op]int {
	t.Helper()
	entries, err := os.ReadDir(walDir)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[wal.Op]int{}
	for _, ent := range entries {
		data, err := os.ReadFile(filepath.Join(walDir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for r := bytes.NewReader(data); r.Len() > 0; {
			rec, err := wal.DecodeRecord(r)
			if err != nil {
				t.Fatalf("%s: %v", ent.Name(), err)
			}
			seen[rec.Op]++
		}
	}
	return seen
}

// replayCopy recovers an engine from the baseline snapshot and a copy of
// the log directory, so replay never touches the live engine's segments.
func replayCopy(t *testing.T, baseline []byte, walDir string, opts nebula.Options) (*nebula.Engine, wal.ReplayStats) {
	t.Helper()
	image := t.TempDir()
	entries, err := os.ReadDir(walDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		data, err := os.ReadFile(filepath.Join(walDir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(image, ent.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	re, err := nebula.RestoreEngine(bytes.NewReader(baseline), configureWorkloadMeta, opts)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := re.ReplayWAL(image, nil)
	if err != nil {
		t.Fatal(err)
	}
	return re, stats
}
