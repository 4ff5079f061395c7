package nebula_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"nebula"
	"nebula/internal/textutil"
	"nebula/internal/workload"
)

// writeCompat writes testdata/<name>.nebsnap and testdata/<name>.golden
// with the code it is run on, instead of testing anything:
//
//	go test -run TestRestoreSnapshotsOfEarlierFormats -write-compat snapshot-v2 .
//
// (TestWALFormatIsFrozen writes testdata/wal-crashscript-v2.log the same
// way.)
// Run it on the last commit that writes a format before changing the
// format, so the reader's shim for it stays pinned. snapshot-v1 was written
// this way by commit 0766fdd, the last one whose Save wrote version 1.
var writeCompat = flag.String("write-compat", "", "write testdata/<name>.nebsnap and .golden (or <name>.log) instead of testing")

// restoreOptions is the restoring engine's profile: ingest on, so queued
// jobs are re-admitted, and more than one shard.
func restoreOptions(workers int) nebula.Options {
	opts := nebula.DefaultOptions()
	opts.Shards = 2
	opts.Parallelism = workers
	opts.Ingest = nebula.IngestConfig{Enabled: true, CDCHops: 1, QueueCap: 4096}
	return opts
}

// historyEngine is an engine that has lived: the crash script's bounds
// changes, annotations, discoveries, raw row operations, verdicts both ways,
// oracle resolution and tuple deletion, then a tuple update whose change
// capture queues re-discoveries, a drain that retracts and re-discovers one
// of them, and async annotations still queued when the snapshot is taken.
func historyEngine(t testing.TB) (*nebula.Engine, *workload.Dataset) {
	t.Helper()
	ds, err := workload.Generate(workload.TinyConfig(crashSeed))
	if err != nil {
		t.Fatal(err)
	}
	e, err := nebula.NewWithState(ds.DB, ds.Meta, ds.Store, ds.Graph, restoreOptions(0))
	if err != nil {
		t.Fatal(err)
	}
	runScript(t, e, ds)
	specs := ds.WorkloadSet(500, workload.RefClass{Min: 4, Max: 6})
	err = e.MutateDB(func(db *nebula.Database) error {
		gene := db.MustTable("Gene")
		for _, row := range gene.Rows()[:3] {
			if err := gene.UpdateByKey(row.ID.Key, "Family", nebula.String("İ-moved\xff")); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.EnqueueDiscovery(specs[0].Ann.ID, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := e.DrainIngest(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	for i, spec := range specs[2:4] {
		if _, err := e.AddAnnotationAsync(spec.Ann, spec.Focal(1), i); err != nil {
			t.Fatal(err)
		}
	}
	if len(e.IngestJobs()) == 0 || len(e.PendingTasks()) == 0 {
		t.Fatalf("fixture lost its point: %d queued jobs, %d pending tasks", len(e.IngestJobs()), len(e.PendingTasks()))
	}
	return e, ds
}

// stateDigest renders everything a restore must reproduce through the
// public API, one digest per part so that a mismatch names the part: rows,
// what every hash bucket and posting list returns and in which order, the
// store's edge lists from both sides, the graph, and the small state.
func stateDigest(e *nebula.Engine) string {
	var out strings.Builder
	part := func(name string, body func(w *strings.Builder)) {
		var b strings.Builder
		body(&b)
		fmt.Fprintf(&out, "%s %x\n", name, sha256.Sum256([]byte(b.String())))
	}
	ids := func(rows []*nebula.Row) string {
		keys := make([]string, len(rows))
		for i, r := range rows {
			keys[i] = r.ID.Key
		}
		return strings.Join(keys, ",")
	}
	db := e.DB()
	part("rows", func(w *strings.Builder) {
		for _, name := range db.TableNames() {
			for _, r := range db.MustTable(name).Rows() {
				fmt.Fprintln(w, r)
			}
		}
	})
	part("indexes", func(w *strings.Builder) {
		for _, name := range db.TableNames() {
			table := db.MustTable(name)
			for ci, c := range table.Schema().Columns {
				for _, r := range table.Rows() {
					if c.Indexed {
						hits, _ := table.LookupEqual(c.Name, r.Values[ci])
						fmt.Fprintf(w, "%s.%s=%s: %s\n", name, c.Name, r.Values[ci].Key(), ids(hits))
					}
					if c.FullText {
						for _, tok := range textutil.Tokenize(r.Values[ci].Str()) {
							hits, _, err := db.Select(nebula.StructuredQuery{Table: name, Predicates: []nebula.Predicate{
								{Column: c.Name, Op: nebula.OpContainsToken, Operand: nebula.String(tok.Lower)},
							}})
							if err != nil {
								fmt.Fprintf(w, "%s.%s~%s: %v\n", name, c.Name, tok.Lower, err)
							}
							fmt.Fprintf(w, "%s.%s~%s: %s\n", name, c.Name, tok.Lower, ids(hits))
						}
					}
				}
			}
		}
	})
	store := e.Store()
	part("store", func(w *strings.Builder) {
		for _, id := range store.IDs() {
			a, _ := store.Get(id)
			fmt.Fprintf(w, "%s %q %q %q\n", a.ID, a.Author, a.Body, a.Kind)
			for _, att := range store.Attachments(id, -1) {
				fmt.Fprintf(w, "  %v\n", *att)
			}
		}
		for _, tuple := range store.AnnotatedTuples() {
			fmt.Fprintf(w, "%v:", tuple)
			for _, att := range store.TupleAnnotations(tuple, -1) {
				fmt.Fprintf(w, " %s", att.Annotation)
			}
			fmt.Fprintln(w)
		}
	})
	graph := e.Graph()
	part("graph", func(w *strings.Builder) {
		lists := graph.AttachmentList()
		anns := make([]string, 0, len(lists))
		for id := range lists {
			anns = append(anns, string(id))
		}
		sort.Strings(anns)
		for _, id := range anns {
			fmt.Fprintf(w, "%s: %v\n", id, lists[nebula.AnnotationID(id)])
		}
		for _, tuple := range store.AnnotatedTuples() {
			fmt.Fprintf(w, "%v: %d annotations,", tuple, graph.AnnotationsOf(tuple))
			for _, nb := range graph.Neighbors(tuple) {
				fmt.Fprintf(w, " %v=%.9f", nb, graph.Weight(tuple, nb))
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w, graph.Nodes(), graph.Edges())
		batch, mu, batchAnns, batchAtts, batchEdges, closed, stable := graph.StabilityState()
		fmt.Fprintln(w, batch, mu, batchAnns, batchAtts, batchEdges, closed, stable)
	})
	part("small", func(w *strings.Builder) {
		buckets, unreachable := e.Profile().Counts()
		fmt.Fprintln(w, buckets, unreachable)
		fmt.Fprintln(w, e.Bounds())
		for _, task := range e.PendingTasks() {
			fmt.Fprintf(w, "task %d %s %s %.9f %v\n", task.VID, task.Annotation, task.Tuple, task.Confidence, task.Evidence)
		}
		for _, job := range e.IngestJobs() {
			fmt.Fprintf(w, "job %s %d %d %d\n", job.Annotation, job.Kind, job.Priority, job.Seq)
		}
	})
	return out.String()
}

// renderDiscoveries prints every candidate of a fixed set of discoveries:
// what a user would see from the restored engine.
func renderDiscoveries(t testing.TB, e *nebula.Engine) string {
	t.Helper()
	var b strings.Builder
	ids := e.Store().IDs()
	for i := 0; i < len(ids); i += len(ids)/12 + 1 {
		d, err := e.Discover(ids[i])
		if err != nil {
			t.Fatalf("discover %s: %v", ids[i], err)
		}
		fmt.Fprintf(&b, "%s:", ids[i])
		for _, c := range d.Candidates {
			fmt.Fprintf(&b, " %v=%.9f", c.Tuple.ID, c.Confidence)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func restoredGolden(t testing.TB, stream []byte, workers int) string {
	t.Helper()
	e, err := nebula.RestoreEngine(bytes.NewReader(stream), configureWorkloadMeta, restoreOptions(workers))
	if err != nil {
		t.Fatal(err)
	}
	return stateDigest(e) + renderDiscoveries(t, e)
}

// TestRestoreSnapshotsOfEarlierFormats pins the reader's compatibility
// shims. Each testdata/*.nebsnap was written by an earlier commit, and its
// .golden is what that commit saw after restoring the file itself. Today's
// reader must see the same, and so must a restore of the file's re-save in
// today's format.
func TestRestoreSnapshotsOfEarlierFormats(t *testing.T) {
	if *writeCompat != "" {
		e, _ := historyEngine(t)
		var stream bytes.Buffer
		if err := e.SaveSnapshot(&stream); err != nil {
			t.Fatal(err)
		}
		base := filepath.Join("testdata", *writeCompat)
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(base+".nebsnap", stream.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(base+".golden", []byte(restoredGolden(t, stream.Bytes(), 1)), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	files, err := filepath.Glob(filepath.Join("testdata", "*.nebsnap"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no pinned snapshots under testdata (%v)", err)
	}
	for _, file := range files {
		stream, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		golden, err := os.ReadFile(strings.TrimSuffix(file, ".nebsnap") + ".golden")
		if err != nil {
			t.Fatal(err)
		}
		if got := restoredGolden(t, stream, 2); got != string(golden) {
			t.Errorf("%s: restored state differs from what its writer restored\ngot:\n%s\nwant:\n%s", file, got, golden)
		}
		e, err := nebula.RestoreEngine(bytes.NewReader(stream), configureWorkloadMeta, restoreOptions(2))
		if err != nil {
			t.Fatal(err)
		}
		var resaved bytes.Buffer
		if err := e.SaveSnapshot(&resaved); err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(resaved.Bytes(), stream) {
			t.Errorf("%s: re-save reproduced the file; it no longer pins an earlier format", file)
		}
		if got := restoredGolden(t, resaved.Bytes(), 2); got != string(golden) {
			t.Errorf("%s: its re-save in the current format restores differently\ngot:\n%s\nwant:\n%s", file, got, golden)
		}
	}
}

// TestRestoreEngineMatchesReference is the engine-level differential test
// of the bulk-load restore: at any worker count RestoreEngine builds the
// engine the one-insert-at-a-time reference builds — every table, index,
// edge list and adjacency list in the same order, the same pending tasks,
// queued ingest jobs and manual-focal map — from a snapshot of an engine
// with updates, deletes, retractions and verdicts behind it.
func TestRestoreEngineMatchesReference(t *testing.T) {
	live, _ := historyEngine(t)
	var stream bytes.Buffer
	if err := live.SaveSnapshot(&stream); err != nil {
		t.Fatal(err)
	}
	reference, err := nebula.RestoreEngineReference(bytes.NewReader(stream.Bytes()), configureWorkloadMeta, restoreOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	want := stateDigest(reference) + renderDiscoveries(t, reference)
	for _, workers := range []int{1, 2, 8} {
		got, err := nebula.RestoreEngine(bytes.NewReader(stream.Bytes()), configureWorkloadMeta, restoreOptions(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if diff := nebula.DiffRestored(got, reference); diff != "" {
			t.Fatalf("workers=%d: restored engine differs from the reference in its %s", workers, diff)
		}
		if digest := stateDigest(got) + renderDiscoveries(t, got); digest != want {
			t.Fatalf("workers=%d: restored engine answers differently\ngot:\n%s\nwant:\n%s", workers, digest, want)
		}
		stats := got.RestoreStats()
		if stats.Workers != workers || stats.Bytes != int64(stream.Len()) || stats.Rows != got.DB().TotalRows() ||
			stats.Annotations != got.Store().Len() || stats.Attachments != got.Store().EdgeCount() ||
			stats.Sections != len(got.DB().TableNames())+3 || stats.DecodeSeconds <= 0 || stats.BuildSeconds <= 0 ||
			stats.TotalSeconds < stats.VerifySeconds+stats.DecodeSeconds+stats.BuildSeconds {
			t.Errorf("workers=%d: restore stats %+v", workers, stats)
		}
	}
	if (live.RestoreStats() != nebula.RestoreStats{}) {
		t.Errorf("an engine that was never restored reports %+v", live.RestoreStats())
	}
}
