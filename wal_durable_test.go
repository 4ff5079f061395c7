package nebula_test

import (
	"bytes"
	"context"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"nebula"
	"nebula/internal/vfs"
	"nebula/internal/wal"
	"nebula/internal/workload"
)

// entryClass says what a public entry point does to the state a crash must
// not lose.
type entryClass int

const (
	// readOnly: the fingerprint does not change.
	readOnly entryClass = iota + 1
	// durable: the fingerprint changes, and a crash right after the call
	// returns — losing everything not yet fsynced — recovers to it.
	durable
	// notState: the entry point works outside the fingerprinted state;
	// the reason says why.
	notState
)

// entryPoint is one exported Engine method or one ExecCommand statement,
// with its class and, unless it is notState, a call that exercises it.
type entryPoint struct {
	name   string
	class  entryClass
	reason string
	run    func(*mutatorBed) error
}

// mutatorBed is an engine with a WAL whose filesystem remembers what was
// fsynced, and the snapshot taken before the log attached.
type mutatorBed struct {
	t        *testing.T
	e        *nebula.Engine
	ds       *workload.Dataset
	specs    []*workload.AnnotationSpec
	opts     nebula.Options
	baseline []byte
	walDir   string
	fs       *syncedFS
}

// syncedFS records, per file, how many bytes had been written when it was
// last fsynced: what is left of the file after a crash that also loses the
// page cache.
type syncedFS struct {
	vfs.FS
	mu     sync.Mutex
	synced map[string]int64
}

type syncedFile struct {
	vfs.File
	fs      *syncedFS
	written int64
}

func (f *syncedFS) Create(path string) (vfs.File, error) {
	inner, err := f.FS.Create(path)
	if err != nil {
		return nil, err
	}
	return &syncedFile{File: inner, fs: f}, nil
}

func (f *syncedFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.written += int64(n)
	return n, err
}

func (f *syncedFile) Sync() error {
	if err := f.File.Sync(); err != nil {
		return err
	}
	f.fs.mu.Lock()
	f.fs.synced[filepath.Base(f.Name())] = f.written
	f.fs.mu.Unlock()
	return nil
}

// crashAndRecover copies the log as a crash would leave it — each segment
// cut to its fsynced length — and recovers an engine from the baseline
// snapshot and that copy.
func (b *mutatorBed) crashAndRecover() *nebula.Engine {
	b.t.Helper()
	image := b.t.TempDir()
	names, err := os.ReadDir(b.walDir)
	if err != nil {
		b.t.Fatal(err)
	}
	for _, ent := range names {
		data, err := os.ReadFile(filepath.Join(b.walDir, ent.Name()))
		if err != nil {
			b.t.Fatal(err)
		}
		b.fs.mu.Lock()
		data = data[:b.fs.synced[ent.Name()]]
		b.fs.mu.Unlock()
		if err := os.WriteFile(filepath.Join(image, ent.Name()), data, 0o644); err != nil {
			b.t.Fatal(err)
		}
	}
	re, err := nebula.RestoreEngine(bytes.NewReader(b.baseline), configureWorkloadMeta, b.opts)
	if err != nil {
		b.t.Fatal(err)
	}
	if _, err := re.ReplayWAL(image, nil); err != nil {
		b.t.Fatal(err)
	}
	return re
}

// pending returns the pending tasks by VID.
func (b *mutatorBed) pending() []*nebula.VerificationTask {
	tasks := b.e.PendingTasks()
	sort.Slice(tasks, func(i, j int) bool { return tasks[i].VID < tasks[j].VID })
	return tasks
}

// add stores workload annotation i with its focal, as setup for a case.
func (b *mutatorBed) add(i int) nebula.AnnotationID {
	b.t.Helper()
	spec := b.specs[i]
	if err := b.e.AddAnnotation(spec.Ann, spec.Focal(1)); err != nil {
		b.t.Fatal(err)
	}
	return spec.Ann.ID
}

func (b *mutatorBed) exec(format string, args ...any) error {
	_, err := b.e.ExecCommand(fmt.Sprintf(format, args...))
	return err
}

func batchErr(rs []nebula.BatchResult) error {
	for _, r := range rs {
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}

func discard[T any](_ T, err error) error { return err }

func discard2[T, U any](_ T, _ U, err error) error { return err }

// entryPoints classes every exported Engine method and every ExecCommand
// statement. The calls run in this order on one engine, so a case may use
// what the cases before it left (pending tasks, queued jobs).
func entryPoints() []entryPoint {
	ctx := context.Background()
	gene := func(b *mutatorBed) *nebula.Row { return b.e.DB().MustTable("Gene").Rows()[0] }
	wide := nebula.Bounds{Lower: 0.05, Upper: 0.95}
	plumbing := "durability plumbing: binds, replays, folds or closes the log and so changes no state"
	return []entryPoint{
		{name: "SetBounds", class: durable, run: func(b *mutatorBed) error { return b.e.SetBounds(wide) }},
		{name: "AddAnnotation", class: durable, run: func(b *mutatorBed) error {
			return b.e.AddAnnotation(b.specs[0].Ann, b.specs[0].Focal(1))
		}},
		{name: "Process", class: durable, run: func(b *mutatorBed) error {
			return discard2(b.e.Process(b.specs[0].Ann.ID))
		}},
		{name: "ProcessContext", class: durable, run: func(b *mutatorBed) error {
			return discard2(b.e.ProcessContext(ctx, b.add(1)))
		}},
		{name: "ProcessRequest", class: durable, run: func(b *mutatorBed) error {
			return discard2(b.e.ProcessRequest(ctx, b.add(2), nebula.RequestOptions{MaxCandidates: 3}))
		}},
		{name: "ProcessBatch", class: durable, run: func(b *mutatorBed) error {
			return batchErr(b.e.ProcessBatch([]nebula.AnnotationID{b.add(3)}))
		}},
		{name: "ProcessBatchContext", class: durable, run: func(b *mutatorBed) error {
			return batchErr(b.e.ProcessBatchContext(ctx, []nebula.AnnotationID{b.add(4)}))
		}},
		{name: "ProcessBatchRequest", class: durable, run: func(b *mutatorBed) error {
			return batchErr(b.e.ProcessBatchRequest(ctx, []nebula.AnnotationID{b.add(5)}, nebula.RequestOptions{}))
		}},
		{name: "sqlish.AnnotateStmt", class: durable, run: func(b *mutatorBed) error {
			return b.exec("ANNOTATE Gene '%s' AS 'sql-note' BODY '%s'", gene(b).MustGet("GID").Str(), b.specs[6].Ann.Body)
		}},
		{name: "sqlish.ProcessStmt", class: durable, run: func(b *mutatorBed) error {
			return b.exec("PROCESS 'sql-note'")
		}},
		{name: "VerifyAttachment", class: durable, run: func(b *mutatorBed) error {
			return b.e.VerifyAttachment(b.pending()[0].VID)
		}},
		{name: "RejectAttachment", class: durable, run: func(b *mutatorBed) error {
			tasks := b.pending()
			return b.e.RejectAttachment(tasks[len(tasks)-1].VID)
		}},
		{name: "sqlish.VerifyStmt", class: durable, run: func(b *mutatorBed) error {
			return b.exec("VERIFY ATTACHMENT %d", b.pending()[0].VID)
		}},
		{name: "sqlish.RejectStmt", class: durable, run: func(b *mutatorBed) error {
			tasks := b.pending()
			return b.exec("REJECT ATTACHMENT %d", tasks[len(tasks)-1].VID)
		}},
		{name: "ResolveWithOracle", class: durable, run: func(b *mutatorBed) error {
			return discard2(b.e.ResolveWithOracle(b.pending()[0].Annotation, nebula.IdealOracle(b.ds.Ideal)))
		}},
		{name: "MutateDB", class: durable, run: func(b *mutatorBed) error {
			return b.e.MutateDB(func(db *nebula.Database) error {
				return db.MustTable("Gene").UpdateByKey(gene(b).ID.Key, "Length", nebula.Int(4321))
			})
		}},
		{name: "DeleteTuple", class: durable, run: func(b *mutatorBed) error {
			return discard2(b.e.DeleteTuple(b.specs[1].Focal(1)[0]))
		}},
		{name: "TuneBounds", class: durable, run: func(b *mutatorBed) error {
			var training []nebula.TrainingExample
			for _, spec := range b.ds.TrainingSet(3) {
				training = append(training, nebula.TrainingExample{Annotation: spec.Ann, Ideal: spec.Related})
			}
			return discard2(b.e.TuneBounds(training, nebula.DefaultBoundsConfig()))
		}},
		{name: "AddAnnotationAsync", class: durable, run: func(b *mutatorBed) error {
			return discard(b.e.AddAnnotationAsync(b.specs[7].Ann, b.specs[7].Focal(1), 1))
		}},
		{name: "EnqueueDiscovery", class: durable, run: func(b *mutatorBed) error {
			return discard(b.e.EnqueueDiscovery(b.specs[0].Ann.ID, 2))
		}},
		{name: "DrainIngest", class: durable, run: func(b *mutatorBed) error {
			return discard(b.e.DrainIngest(ctx, 1))
		}},
		{name: "FlushIngest", class: durable, run: func(b *mutatorBed) error {
			return discard(b.e.FlushIngest(ctx))
		}},

		{name: "DB", class: readOnly, run: func(b *mutatorBed) error { b.e.DB(); return nil }},
		{name: "Meta", class: readOnly, run: func(b *mutatorBed) error { b.e.Meta(); return nil }},
		{name: "Store", class: readOnly, run: func(b *mutatorBed) error { b.e.Store(); return nil }},
		{name: "Graph", class: readOnly, run: func(b *mutatorBed) error { b.e.Graph(); return nil }},
		{name: "Profile", class: readOnly, run: func(b *mutatorBed) error { b.e.Profile(); return nil }},
		{name: "Shards", class: readOnly, run: func(b *mutatorBed) error { b.e.Shards(); return nil }},
		{name: "Options", class: readOnly, run: func(b *mutatorBed) error { b.e.Options(); return nil }},
		{name: "Bounds", class: readOnly, run: func(b *mutatorBed) error { b.e.Bounds(); return nil }},
		{name: "PendingTasks", class: readOnly, run: func(b *mutatorBed) error { b.e.PendingTasks(); return nil }},
		{name: "PendingTasksByPriority", class: readOnly, run: func(b *mutatorBed) error { b.e.PendingTasksByPriority(); return nil }},
		{name: "Quality", class: readOnly, run: func(b *mutatorBed) error { b.e.Quality(b.ds.Ideal); return nil }},
		{name: "CacheStats", class: readOnly, run: func(b *mutatorBed) error { b.e.CacheStats(); return nil }},
		{name: "IngestEnabled", class: readOnly, run: func(b *mutatorBed) error { b.e.IngestEnabled(); return nil }},
		{name: "IngestStats", class: readOnly, run: func(b *mutatorBed) error { b.e.IngestStats(); return nil }},
		{name: "IngestJobs", class: readOnly, run: func(b *mutatorBed) error { b.e.IngestJobs(); return nil }},
		{name: "CheckIntegrity", class: readOnly, run: func(b *mutatorBed) error { b.e.CheckIntegrity(); return nil }},
		{name: "ShardStats", class: readOnly, run: func(b *mutatorBed) error { b.e.ShardStats(); return nil }},
		{name: "RestoreStats", class: readOnly, run: func(b *mutatorBed) error { b.e.RestoreStats(); return nil }},
		{name: "StoreEnabled", class: readOnly, run: func(b *mutatorBed) error { b.e.StoreEnabled(); return nil }},
		{name: "StoreStats", class: readOnly, run: func(b *mutatorBed) error { b.e.StoreStats(); return nil }},
		{name: "WAL", class: readOnly, run: func(b *mutatorBed) error { b.e.WAL(); return nil }},
		{name: "WALStats", class: readOnly, run: func(b *mutatorBed) error { b.e.WALStats(); return nil }},
		{name: "RefreshSearchIndex", class: readOnly, run: func(b *mutatorBed) error { b.e.RefreshSearchIndex(); return nil }},
		{name: "SaveSnapshot", class: readOnly, run: func(b *mutatorBed) error { return b.e.SaveSnapshot(&bytes.Buffer{}) }},
		{name: "SaveSnapshotFile", class: readOnly, run: func(b *mutatorBed) error {
			return b.e.SaveSnapshotFile(filepath.Join(b.t.TempDir(), "state.nebsnap"))
		}},
		{name: "Discover", class: readOnly, run: func(b *mutatorBed) error { return discard(b.e.Discover(b.specs[0].Ann.ID)) }},
		{name: "DiscoverContext", class: readOnly, run: func(b *mutatorBed) error {
			return discard(b.e.DiscoverContext(ctx, b.specs[0].Ann.ID))
		}},
		{name: "DiscoverRequest", class: readOnly, run: func(b *mutatorBed) error {
			return discard(b.e.DiscoverRequest(ctx, b.specs[0].Ann.ID, nebula.RequestOptions{Cache: "off"}))
		}},
		{name: "DiscoverBatch", class: readOnly, run: func(b *mutatorBed) error {
			return batchErr(b.e.DiscoverBatch([]nebula.AnnotationID{b.specs[0].Ann.ID}))
		}},
		{name: "DiscoverBatchContext", class: readOnly, run: func(b *mutatorBed) error {
			return batchErr(b.e.DiscoverBatchContext(ctx, []nebula.AnnotationID{b.specs[0].Ann.ID}))
		}},
		{name: "DiscoverBatchRequest", class: readOnly, run: func(b *mutatorBed) error {
			return batchErr(b.e.DiscoverBatchRequest(ctx, []nebula.AnnotationID{b.specs[0].Ann.ID}, nebula.RequestOptions{}))
		}},
		{name: "NaiveDiscover", class: readOnly, run: func(b *mutatorBed) error {
			return discard(b.e.NaiveDiscover(b.specs[0].Ann.ID))
		}},
		{name: "NaiveDiscoverContext", class: readOnly, run: func(b *mutatorBed) error {
			return discard(b.e.NaiveDiscoverContext(ctx, b.specs[0].Ann.ID))
		}},
		{name: "NaiveDiscoverRequest", class: readOnly, run: func(b *mutatorBed) error {
			return discard(b.e.NaiveDiscoverRequest(ctx, b.specs[0].Ann.ID, nebula.RequestOptions{}))
		}},
		{name: "PropagateQuery", class: readOnly, run: func(b *mutatorBed) error {
			return discard(b.e.PropagateQuery(nebula.StructuredQuery{Table: "Gene"}, nil))
		}},
		{name: "PropagateJoin", class: readOnly, run: func(b *mutatorBed) error {
			return discard(b.e.PropagateJoin(nebula.StructuredQuery{Table: "Protein"}, nebula.StructuredQuery{Table: "Gene"}, nil, nil))
		}},
		{name: "sqlish.ListPendingStmt", class: readOnly, run: func(b *mutatorBed) error { return b.exec("LIST PENDING") }},
		{name: "sqlish.DiscoverStmt", class: readOnly, run: func(b *mutatorBed) error { return b.exec("DISCOVER 'sql-note'") }},
		{name: "sqlish.SelectStmt", class: readOnly, run: func(b *mutatorBed) error {
			return b.exec("SELECT * FROM Gene WITH ANNOTATIONS")
		}},

		{name: "SetCacheLimit", class: notState, reason: "the cache budget is configuration; caches hold derived results, not state"},
		{name: "FlushStore", class: notState, reason: "the segment store holds a text index derived from rows, rebuilt or adopted at restore"},
		{name: "CompactStore", class: notState, reason: "the segment store holds a text index derived from rows, rebuilt or adopted at restore"},
		{name: "CloseStore", class: notState, reason: "the segment store holds a text index derived from rows, rebuilt or adopted at restore"},
		{name: "AttachWAL", class: notState, reason: plumbing},
		{name: "AttachWALFS", class: notState, reason: plumbing},
		{name: "ReplayWAL", class: notState, reason: plumbing},
		{name: "RecoverWAL", class: notState, reason: plumbing},
		{name: "Checkpoint", class: notState, reason: plumbing},
		{name: "CloseWAL", class: notState, reason: plumbing},
		{name: "ExecCommand", class: notState, reason: "classed statement by statement (sqlish.*)"},
	}
}

// sqlishStatements lists the statement types of the sqlish package — every
// type with a stmt() method, the Statement interface's marker — from its
// source, so a new statement cannot go unclassed.
func sqlishStatements(t *testing.T) []string {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), "internal/sqlish", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Recv == nil || fn.Name.Name != "stmt" {
					continue
				}
				recv := fn.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				names = append(names, "sqlish."+recv.(*ast.Ident).Name)
			}
		}
	}
	if len(names) == 0 {
		t.Fatal("found no sqlish statement types")
	}
	return names
}

// TestWALEveryMutatorIsDurable classes every exported Engine method and
// every ExecCommand statement as read-only, durable or not state, and
// checks each class: a read-only call leaves the fingerprint as it was; a
// durable call changes it, and an engine recovered from the baseline
// snapshot plus what the log had fsynced when the call returned — the
// engine dropped without closing, its page cache lost — has the same
// fingerprint. An entry point without a class fails the test.
func TestWALEveryMutatorIsDurable(t *testing.T) {
	points := entryPoints()
	classed := map[string]bool{}
	for _, p := range points {
		if classed[p.name] {
			t.Fatalf("%s is classed twice", p.name)
		}
		classed[p.name] = true
		if (p.class == notState) != (p.run == nil) || (p.class == notState) != (p.reason != "") {
			t.Fatalf("%s: a not-state entry gives a reason and no call; the others a call and no reason", p.name)
		}
	}
	exported := map[string]bool{}
	et := reflect.TypeOf(&nebula.Engine{})
	for i := 0; i < et.NumMethod(); i++ {
		exported[et.Method(i).Name] = true
	}
	for _, s := range sqlishStatements(t) {
		exported[s] = true
	}
	for name := range exported {
		if !classed[name] {
			t.Errorf("%s is not classed: add it to entryPoints as read-only, durable or not state", name)
		}
	}
	for name := range classed {
		if !exported[name] {
			t.Errorf("entryPoints classes %s, which does not exist", name)
		}
	}
	if t.Failed() {
		return
	}

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
	b := &mutatorBed{t: t, e: e, ds: ds, opts: opts, baseline: baseline.Bytes(), walDir: t.TempDir(),
		specs: ds.WorkloadSet(500, workload.RefClass{}),
		fs:    &syncedFS{FS: vfs.OS{}, synced: map[string]int64{}}}
	l, err := wal.Open(b.walDir, wal.Options{FS: b.fs})
	if err != nil {
		t.Fatal(err)
	}
	e.AttachWAL(l)
	defer e.CloseWAL()
	for _, p := range points {
		if p.class == notState {
			continue
		}
		before := fingerprint(t, e)
		if err := p.run(b); err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		after := fingerprint(t, e)
		switch {
		case p.class == readOnly && after != before:
			t.Fatalf("%s is classed read-only but changed the state", p.name)
		case p.class == durable && after == before:
			t.Fatalf("%s is classed durable but changed nothing here; give it a call that mutates", p.name)
		case p.class == durable && fingerprint(t, b.crashAndRecover()) != after:
			// Not fatal: the next durable call syncs whatever this one
			// left unsynced, so later cases still check themselves.
			t.Errorf("%s: a crash right after it returned lost state it had acknowledged", p.name)
		}
	}
}
