package main

import (
	"fmt"
	"io"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"time"

	"nebula"
	"nebula/internal/server"
	"nebula/internal/wal"
	"nebula/internal/workload"
)

// spec is one workload row of the README's table.
type spec struct {
	name, why string
	clients   int
	http      bool // clients go through internal/server, not the Engine API
	hot       bool // reads repeat over a set that fits the cache
	mixed     bool // scripted write/verdict/read mix with streaming ingest on
	disk      bool // symbol-table search on the segment store, recovered before the window
	setups    int  // set-ups per run; setup_s is their median
	// unlisted keeps a workload out of BENCHMARK.json: the program runs it by
	// name, but the acceptance check does not.
	unlisted bool
}

var specs = []*spec{
	{
		name: "discover_cold", clients: 1, setups: 3,
		why: "never-repeating discoveries: all time in the relational scans, sigmap, keyword and discovery layers; caches, server, WAL and verification idle",
	},
	{
		name: "discover_hot", clients: 2, http: true, hot: true, setups: 2,
		why: "Zipf reads of 1000 cached discoveries over HTTP: the serving path (admission, JSON, cache, shard read locks); the scan layers idle after warm-up",
	},
	{
		name: "curate_mixed", clients: 2, http: true, mixed: true, setups: 2,
		why: "durable writes, verdicts and tuple updates beside reads: WAL group commit, epoch invalidation, verification, ACG BFS, ingest queue and CDC re-discovery",
	},
	{
		// Unlisted since the window grew to 16 s: 4 + 22 runs per listed workload
		// must end within 3420 s, and that holds three workloads of this length
		// with a margin, not four. This one went because its window is
		// discover_cold's sweep again and every workload's epilogue restarts
		// from a crash image.
		name: "restart_disk", clients: 1, disk: true, setups: 1, unlisted: true,
		why: "crash and recover, then sweep on the mmap'd segment store: snapshot restore, WAL replay, segment adoption and tiered lookups with row re-verification",
	},
}

func findSpec(name string) *spec {
	for _, w := range specs {
		if w.name == name {
			return w
		}
	}
	return nil
}

// metaSeed seeds the NebulaMeta column sample. The repository is
// configuration, rebuilt on every boot, so the first boot and the recovery
// must build it from the same seed for discoveries to stay byte-identical.
const metaSeed = 11

func buildMeta(db *nebula.Database) (*nebula.MetaRepository, error) {
	return workload.BuildMeta(db, rand.New(rand.NewSource(metaSeed)))
}

// bed is one engine with the directory that holds its snapshot, WAL and
// segment store, and, for HTTP workloads, the server in front of it.
type bed struct {
	dir    string
	engine *nebula.Engine
	srv    *httptest.Server
}

func (b *bed) snapPath() string { return filepath.Join(b.dir, "state.nebsnap") }
func (b *bed) walDir() string   { return filepath.Join(b.dir, "wal") }
func (b *bed) storeDir() string { return filepath.Join(b.dir, "store") }

// options is the workload's deployment profile: the paper's defaults on four
// shards with the default 64 MiB cache, plus the subsystem the row names.
func (w *spec) options(b *bed) nebula.Options {
	opts := nebula.DefaultOptions()
	opts.Shards = 4
	if w.mixed {
		// The queue is sized so no submission is ever refused: a 429 would
		// be a failed operation, and the workloads are chosen to have none.
		opts.Ingest = nebula.IngestConfig{Enabled: true, CDCHops: 1, QueueCap: 1 << 14}
	}
	if w.disk {
		opts.SearchTechnique = nebula.TechniqueSymbolTable
		opts.Store = nebula.StoreConfig{Dir: b.storeDir()}
	}
	return opts
}

// boot starts a fresh engine over a generated dataset with an empty WAL.
func (w *spec) boot(ds *workload.Dataset, dir string) (*bed, error) {
	b := &bed{dir: dir}
	repo, err := buildMeta(ds.DB)
	if err != nil {
		return nil, err
	}
	b.engine, err = nebula.NewWithState(ds.DB, repo, ds.Store, ds.Graph, w.options(b))
	if err != nil {
		return nil, err
	}
	if _, err := b.engine.RecoverWAL(b.walDir(), wal.Options{Sync: wal.SyncGroup}); err != nil {
		return nil, err
	}
	return b, w.serve(b)
}

func (w *spec) serve(b *bed) error {
	if !w.http {
		return nil
	}
	srv, err := server.New(server.Config{
		Engine:      b.engine,
		MaxInFlight: 4,
		QueueDepth:  8,
		Logf:        func(string, ...any) {},
	})
	if err != nil {
		return err
	}
	b.srv = httptest.NewServer(srv.Handler())
	return nil
}

// close releases the bed's server, log and segment mappings.
func (b *bed) close() error {
	if b.srv != nil {
		b.srv.Close()
	}
	err := b.engine.CloseWAL()
	if b.engine.StoreEnabled() {
		if cerr := b.engine.CloseStore(); err == nil {
			err = cerr
		}
	}
	return err
}

// crash stands in for kill -9 plus the loss of the unflushed page cache: it
// copies what the bed has on disk, without closing or draining anything, into
// image, and appends half of a valid record frame to the active WAL segment,
// the torn write a crash mid-append leaves behind. Only then does it release
// the abandoned bed's resources, so nothing a clean shutdown would write
// reaches the image.
func (b *bed) crash(image string) error {
	if err := copyTree(b.dir, image); err != nil {
		return err
	}
	segs, err := filepath.Glob(filepath.Join(image, "wal", "wal-*.log"))
	if err != nil || len(segs) == 0 {
		return fmt.Errorf("crash image has no WAL segment (%v)", err)
	}
	sort.Strings(segs)
	frame, err := wal.EncodeRecord(nil, &wal.Record{
		Op: wal.OpAddAnnotation, Ann: "torn", Body: "a write that was never acknowledged",
	})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	if _, err := f.Write(frame[:len(frame)/2]); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return b.close()
}

// recovery times a restart: the snapshot restore, the WAL replay, and the
// whole of it up to the first discovery answered.
type recovery struct {
	restoreS float64
	totalS   float64
	replay   wal.ReplayStats
}

// recoverBed boots from a crash image: snapshot restore, then WAL replay.
func (w *spec) recoverBed(image string) (*bed, recovery, error) {
	var rec recovery
	b := &bed{dir: image}
	f, err := os.Open(b.snapPath())
	if err != nil {
		return nil, rec, err
	}
	defer f.Close()
	t0 := time.Now()
	b.engine, err = nebula.RestoreEngine(f, buildMeta, w.options(b))
	if err != nil {
		return nil, rec, err
	}
	rec.restoreS = time.Since(t0).Seconds()
	rec.replay, err = b.engine.RecoverWAL(b.walDir(), wal.Options{Sync: wal.SyncGroup})
	if err != nil {
		return nil, rec, err
	}
	return b, rec, nil
}

func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// treeBytes sums the regular files under dir; a missing dir holds nothing.
func treeBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			if os.IsNotExist(err) {
				return filepath.SkipDir
			}
			return err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n, err
}
