// Command nebulad serves a nebula engine over HTTP/JSON: the network face
// of the proactive annotation pipeline. It generates a deterministic §8.1
// dataset (or restores a previous snapshot of one), then exposes the full
// annotation lifecycle — insert, discover, naive baseline, batch, process,
// pending-verification review, accept/reject, snapshot save/load — behind
// the internal/server admission gate, with /healthz and /metrics for
// operators. SIGINT/SIGTERM triggers a graceful drain: accepted requests
// finish, new ones get 503, and the engine state is persisted as a
// checksummed snapshot before exit.
//
// Usage:
//
//	nebulad [--host 127.0.0.1] [--port 8080] [--size tiny] [--seed 42]
//	        [--parallelism N] [--cache on|off|bytes] [--plan] [--topk K]
//	        [--max-inflight N] [--queue-depth N] [--max-per-conn N]
//	        [--request-timeout D] [--drain-timeout D] [--snapshot FILE]
//	        [--wal DIR] [--wal-sync group|always|none] [--slow-request D]
//	        [--ingest] [--ingest-queue-cap N] [--ingest-hops K]
//	        [--ingest-drain-every D] [--debug-addr HOST:PORT] [--smoke]
//
// --plan enables the cost-based query planner for every discovery the
// daemon serves (requires --topk K > 0); per-request PLAN ON|OFF and
// TOPK <k> overrides still apply. The planner's top-k output is
// byte-identical to the exhaustive run's.
//
// --wal DIR arms crash durability: every mutation is appended to a
// CRC-framed write-ahead log and fsynced (group commit by default) before
// the client sees success. On boot the daemon restores the snapshot (if
// any), replays the log's durable suffix — discarding a torn tail from a
// crash mid-append — and, when --snapshot is also set, immediately
// checkpoints so the replayed history is folded and the log truncated.
// The drain snapshot likewise becomes a checkpoint.
//
// --ingest arms the streaming proactive pipeline: POST /v1/annotations/async
// queues discovery instead of running it inline (202 with the queue
// position; 429 + Retry-After when the queue is full), tuple mutations
// re-queue exactly the annotations attached within --ingest-hops of the
// changed rows, and --ingest-drain-every runs a background drain at that
// cadence (0 leaves draining to POST /v1/ingest/flush). SIGTERM flushes the
// queue before the drain snapshot so async submissions leave as
// attachments.
//
// --slow-request D arms the structured slow-request log: any request at or
// over D is logged at Warn with its request-scoped span tree. --debug-addr
// starts a second listener (keep it loopback-only) serving net/http/pprof,
// isolated from the public API so profiling endpoints are never exposed by
// default.
//
// With --smoke, nebulad starts on an ephemeral port, performs one health
// check and one discovery round trip against itself, sends itself SIGTERM,
// verifies the drain snapshot reloads, and exits — a self-contained serving
// smoke test for `make run-server`.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"nebula"
	"nebula/internal/flagcheck"
	"nebula/internal/server"
	"nebula/internal/wal"
	"nebula/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "nebulad: %v\n", err)
		os.Exit(1)
	}
}

type daemonConfig struct {
	host           string
	port           int
	size           string
	seed           int64
	parallelism    int
	cache          string
	plan           bool
	topK           int
	maxInFlight    int
	queueDepth     int
	maxPerConn     int
	requestTimeout time.Duration
	drainTimeout   time.Duration
	snapshotPath   string
	walDir         string
	walSync        string
	storeDir       string
	storeMaxSegs   int
	slowRequest    time.Duration
	ingest         bool
	ingestQueueCap int
	ingestHops     int
	ingestEvery    time.Duration
	shards         int
	debugAddr      string
	smoke          bool
}

// parseSyncMode maps the --wal-sync flag to a wal.SyncMode.
func parseSyncMode(s string) (wal.SyncMode, error) {
	switch s {
	case "group", "":
		return wal.SyncGroup, nil
	case "always":
		return wal.SyncAlways, nil
	case "none":
		return wal.SyncNone, nil
	default:
		return 0, fmt.Errorf("--wal-sync: unknown mode %q (want group, always, or none)", s)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("nebulad", flag.ExitOnError)
	var cfg daemonConfig
	fs.StringVar(&cfg.host, "host", "127.0.0.1", "listen address")
	fs.IntVar(&cfg.port, "port", 8080, "listen port (0 = OS-assigned ephemeral port)")
	fs.StringVar(&cfg.size, "size", "tiny", "dataset size: tiny|small|mid|large")
	fs.Int64Var(&cfg.seed, "seed", 42, "dataset generator seed")
	fs.IntVar(&cfg.parallelism, "parallelism", 0, "engine worker pool size (0 = NumCPU, 1 = sequential)")
	fs.StringVar(&cfg.cache, "cache", "", "result caching: on, off, or a byte budget (default on at 64 MiB)")
	fs.BoolVar(&cfg.plan, "plan", false, "enable the cost-based query planner for every discovery (requires --topk)")
	fs.IntVar(&cfg.topK, "topk", 0, "keep only the strongest K attachments per discovery (0 = all; the K the planner maintains)")
	fs.IntVar(&cfg.maxInFlight, "max-inflight", 8, "requests executing concurrently (0 = default)")
	fs.IntVar(&cfg.queueDepth, "queue-depth", 64, "requests waiting for a slot before 429 (0 = default)")
	fs.IntVar(&cfg.maxPerConn, "max-per-conn", 0, "per-connection in-flight ceiling (0 = none)")
	fs.DurationVar(&cfg.requestTimeout, "request-timeout", 0, "per-request wall-clock cap (0 = none)")
	fs.DurationVar(&cfg.drainTimeout, "drain-timeout", 30*time.Second, "graceful drain deadline on shutdown")
	fs.StringVar(&cfg.snapshotPath, "snapshot", "", "snapshot file: restored on boot when present, written on drain")
	fs.StringVar(&cfg.walDir, "wal", "", "write-ahead log directory: replayed on boot, then every mutation is logged and fsynced before it is acknowledged")
	fs.StringVar(&cfg.walSync, "wal-sync", "group", "WAL fsync policy: group (batched), always (per append), none (OS flush only)")
	fs.StringVar(&cfg.storeDir, "store-dir", "", "disk-backed search index directory: mmap'd segment files flushed at checkpoints (selects the symbol-table search technique)")
	fs.IntVar(&cfg.storeMaxSegs, "store-max-segments", 0, "segment files before background compaction merges the oldest (0 = default 8)")
	fs.DurationVar(&cfg.slowRequest, "slow-request", 0, "log requests at or over this duration at Warn with their span tree (0 = off)")
	fs.BoolVar(&cfg.ingest, "ingest", false, "enable the streaming ingest pipeline (async submits + change-driven re-discovery)")
	fs.IntVar(&cfg.ingestQueueCap, "ingest-queue-cap", 0, "queued discovery jobs before async submits get 429 (0 = default 1024)")
	fs.IntVar(&cfg.ingestHops, "ingest-hops", 0, "ACG neighborhood radius for change-driven re-discovery (0 = default 1)")
	fs.DurationVar(&cfg.ingestEvery, "ingest-drain-every", time.Second, "background drain cadence for queued jobs (0 = manual flush only)")
	fs.IntVar(&cfg.shards, "shards", 0, "hash-partition the engine's annotation state across N lock shards (0 or 1 = single shard; results are identical at any count)")
	fs.StringVar(&cfg.debugAddr, "debug-addr", "", "serve net/http/pprof on this extra listener (empty = off; keep it loopback-only)")
	fs.BoolVar(&cfg.smoke, "smoke", false, "self-check serving round trip, then exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := flagcheck.All(
		flagcheck.Port("port", cfg.port, true),
		flagcheck.NonNegative("parallelism", cfg.parallelism),
		flagcheck.NonNegative("topk", cfg.topK),
		flagcheck.NonNegative("max-inflight", cfg.maxInFlight),
		flagcheck.NonNegative("queue-depth", cfg.queueDepth),
		flagcheck.NonNegative("max-per-conn", cfg.maxPerConn),
		flagcheck.NonNegativeDuration("request-timeout", cfg.requestTimeout),
		flagcheck.NonNegativeDuration("drain-timeout", cfg.drainTimeout),
		flagcheck.NonNegativeDuration("slow-request", cfg.slowRequest),
		flagcheck.NonNegative("ingest-queue-cap", cfg.ingestQueueCap),
		flagcheck.NonNegative("ingest-hops", cfg.ingestHops),
		flagcheck.NonNegativeDuration("ingest-drain-every", cfg.ingestEvery),
		flagcheck.NonNegative("shards", cfg.shards),
		flagcheck.NonNegative("store-max-segments", cfg.storeMaxSegs),
	); err != nil {
		return err
	}
	if cfg.storeMaxSegs > 0 && cfg.storeDir == "" {
		return errors.New("--store-max-segments requires --store-dir")
	}
	if cfg.plan && cfg.topK <= 0 {
		return errors.New("--plan requires --topk K > 0 (the k the planner's early termination maintains)")
	}
	if cfg.smoke {
		return smoke(cfg)
	}
	return serve(cfg, nil)
}

// buildEngine prepares the served engine: a fresh deterministic dataset, or
// — when the snapshot file exists — the state persisted by a previous
// drain, with NebulaMeta re-registered against the restored database.
func buildEngine(cfg daemonConfig) (*nebula.Engine, func(*nebula.Database) (*nebula.MetaRepository, error), error) {
	opts := nebula.DefaultOptions()
	opts.Parallelism = cfg.parallelism
	opts.Plan = cfg.plan
	opts.TopK = cfg.topK
	cacheCfg, err := nebula.ParseCacheConfig(cfg.cache)
	if err != nil {
		return nil, nil, err
	}
	opts.Cache = cacheCfg
	opts.Shards = cfg.shards
	if cfg.storeDir != "" {
		// The disk substrate backs the symbol-table technique's pre-built
		// index, so the flag selects that technique; segments flush at
		// checkpoints and map back in on restart instead of rebuilding.
		opts.Store = nebula.StoreConfig{Dir: cfg.storeDir, MaxSegments: cfg.storeMaxSegs}
		opts.SearchTechnique = nebula.TechniqueSymbolTable
	}
	if cfg.ingest {
		opts.Ingest = nebula.IngestConfig{
			Enabled:  true,
			QueueCap: cfg.ingestQueueCap,
			CDCHops:  cfg.ingestHops,
		}
	}
	configureMeta := func(db *nebula.Database) (*nebula.MetaRepository, error) {
		// The repository is configuration, not snapshot state; rebuild the
		// §8.1 registration deterministically from the seed.
		return workload.BuildMeta(db, rand.New(rand.NewSource(cfg.seed)))
	}
	if cfg.snapshotPath != "" {
		if f, err := os.Open(cfg.snapshotPath); err == nil {
			defer f.Close()
			engine, err := nebula.RestoreEngine(f, configureMeta, opts)
			if err != nil {
				return nil, nil, fmt.Errorf("restore %s: %w", cfg.snapshotPath, err)
			}
			rs := engine.RestoreStats()
			log.Printf("nebulad: restored snapshot %s (%d annotations, %d tuples) in %v: %d bytes in %d sections, verify %v, decode %v, build %v on %d workers",
				cfg.snapshotPath, engine.Store().Len(), engine.DB().TotalRows(), seconds(rs.TotalSeconds),
				rs.Bytes, rs.Sections, seconds(rs.VerifySeconds), seconds(rs.DecodeSeconds), seconds(rs.BuildSeconds), rs.Workers)
			return engine, configureMeta, nil
		}
	}
	ds, err := generate(cfg)
	if err != nil {
		return nil, nil, err
	}
	engine, err := nebula.NewWithState(ds.DB, ds.Meta, ds.Store, ds.Graph, opts)
	if err != nil {
		return nil, nil, err
	}
	log.Printf("nebulad: generated dataset D_%s seed=%d (%d annotations, %d tuples)",
		cfg.size, cfg.seed, engine.Store().Len(), engine.DB().TotalRows())
	return engine, configureMeta, nil
}

// generate builds a private copy of the configured dataset: the engine
// writes into the tables, store and graph it is handed.
func generate(cfg daemonConfig) (*workload.Dataset, error) {
	wcfg, err := workload.SizeConfig(cfg.size, cfg.seed)
	if err != nil {
		return nil, err
	}
	return workload.Generate(wcfg)
}

// seconds renders a stage time the way the WAL replay line renders its own.
func seconds(s float64) time.Duration {
	return time.Duration(s * float64(time.Second)).Round(100 * time.Microsecond)
}

// attachWAL completes the boot sequence for a WAL-enabled daemon: replay
// the durable suffix the previous process left behind (the snapshot's
// recorded boundary keeps folded segments from double-applying), attach
// a fresh segment for this process's mutations, and — when a snapshot
// path is configured — immediately checkpoint, folding the replayed
// history into the snapshot and truncating the log behind it.
func attachWAL(engine *nebula.Engine, cfg daemonConfig) error {
	mode, err := parseSyncMode(cfg.walSync)
	if err != nil {
		return err
	}
	stats, err := engine.RecoverWAL(cfg.walDir, wal.Options{Sync: mode})
	if err != nil {
		return fmt.Errorf("wal recovery: %w", err)
	}
	if stats.CorruptTail {
		log.Printf("nebulad: wal replay discarded a torn tail (%d bytes) — expected after a crash mid-append",
			stats.DiscardedBytes)
	}
	log.Printf("nebulad: wal %s replayed %d records from %d segments in %v (sync=%s)",
		cfg.walDir, stats.Records, stats.Segments, stats.Duration.Round(time.Millisecond), mode)
	if cfg.snapshotPath != "" && (stats.Records > 0 || stats.Segments > 0) {
		if err := engine.Checkpoint(cfg.snapshotPath); err != nil {
			return fmt.Errorf("boot checkpoint: %w", err)
		}
		log.Printf("nebulad: boot checkpoint folded replayed history into %s", cfg.snapshotPath)
	}
	return nil
}

// serve runs the daemon until SIGINT/SIGTERM, then drains gracefully. When
// ready is non-nil it receives the bound address once the listener is up
// (used by smoke mode).
func serve(cfg daemonConfig, ready chan<- string) error {
	engine, configureMeta, err := buildEngine(cfg)
	if err != nil {
		return err
	}
	if cfg.walDir != "" {
		if err := attachWAL(engine, cfg); err != nil {
			return err
		}
	}
	srv, err := server.New(server.Config{
		Engine:               engine,
		MaxInFlight:          cfg.maxInFlight,
		QueueDepth:           cfg.queueDepth,
		MaxPerConn:           cfg.maxPerConn,
		RequestTimeout:       cfg.requestTimeout,
		SnapshotPath:         cfg.snapshotPath,
		ConfigureMeta:        configureMeta,
		SlowRequestThreshold: cfg.slowRequest,
	})
	if err != nil {
		return err
	}

	if cfg.debugAddr != "" {
		// The pprof listener is deliberately a separate mux on a separate
		// port: the public API mux never learns the /debug routes, so
		// profiling cannot be reached through the serving address.
		debugLn, err := net.Listen("tcp", cfg.debugAddr)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		defer debugLn.Close()
		debugMux := http.NewServeMux()
		debugMux.HandleFunc("/debug/pprof/", pprof.Index)
		debugMux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		debugMux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		debugMux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		debugMux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		log.Printf("nebulad: pprof on http://%s/debug/pprof/", debugLn.Addr())
		go http.Serve(debugLn, debugMux)
	}

	addr := net.JoinHostPort(cfg.host, fmt.Sprint(cfg.port))
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	log.Printf("nebulad: serving on http://%s", ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	// The background drainer turns queued async submissions into attachments
	// at a steady cadence, so freshness does not depend on operators calling
	// /v1/ingest/flush. Stopped before Shutdown, whose final flush empties
	// whatever the last tick left behind.
	var stopDrainer context.CancelFunc
	if cfg.ingest && cfg.ingestEvery > 0 {
		drainerCtx, cancel := context.WithCancel(context.Background())
		defer cancel()
		stopDrainer = cancel
		go func() {
			t := time.NewTicker(cfg.ingestEvery)
			defer t.Stop()
			for {
				select {
				case <-drainerCtx.Done():
					return
				case <-t.C:
					if _, err := srv.Engine().DrainIngest(drainerCtx, 0); err != nil && !errors.Is(err, context.Canceled) {
						log.Printf("nebulad: ingest drain: %v", err)
					}
				}
			}
		}()
	}

	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		log.Printf("nebulad: %v received, draining (timeout %v)", sig, cfg.drainTimeout)
	case err := <-serveErr:
		return err
	}

	// Drain order matters: flip the admission gate first so in-flight work
	// finishes and late arrivals get typed 503s while the listener is still
	// up, persist the snapshot, then close the listener.
	if stopDrainer != nil {
		stopDrainer()
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
	defer cancel()
	drainErr := srv.Shutdown(drainCtx)
	if err := httpSrv.Shutdown(drainCtx); err != nil && drainErr == nil {
		drainErr = err
	}
	if drainErr != nil {
		return fmt.Errorf("drain: %w", drainErr)
	}
	if cfg.walDir != "" {
		// The drain snapshot (if configured) was a checkpoint, so the log
		// is already truncated behind it; close flushes and seals the
		// active segment for the next boot's replay.
		if err := engine.CloseWAL(); err != nil {
			return fmt.Errorf("wal close: %w", err)
		}
	}
	if cfg.storeDir != "" {
		// After the final drain snapshot flushed the tail; close waits
		// for background compaction and unmaps the segments.
		if err := engine.CloseStore(); err != nil {
			return fmt.Errorf("store close: %w", err)
		}
	}
	log.Printf("nebulad: shutdown complete")
	return nil
}

// smoke is the self-check mode behind `make run-server`: boot on an
// ephemeral port, exercise one health check and one discovery round trip,
// SIGTERM ourselves, and verify the drain snapshot reloads.
func smoke(cfg daemonConfig) error {
	cfg.port = 0
	if cfg.snapshotPath == "" {
		dir, err := os.MkdirTemp("", "nebulad-smoke")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		cfg.snapshotPath = filepath.Join(dir, "smoke.snapshot")
	}

	ready := make(chan string, 1)
	served := make(chan error, 1)
	go func() { served <- serve(cfg, ready) }()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-served:
		return fmt.Errorf("smoke: server exited before listening: %w", err)
	}

	if err := smokeRoundTrip(cfg, base); err != nil {
		return fmt.Errorf("smoke: %w", err)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		return fmt.Errorf("smoke: signal self: %w", err)
	}
	select {
	case err := <-served:
		if err != nil {
			return fmt.Errorf("smoke: drain: %w", err)
		}
	case <-time.After(2 * cfg.drainTimeout):
		return errors.New("smoke: drain did not complete")
	}

	// The drain must have produced a loadable snapshot.
	f, err := os.Open(cfg.snapshotPath)
	if err != nil {
		return fmt.Errorf("smoke: drain snapshot missing: %w", err)
	}
	defer f.Close()
	restored, err := nebula.RestoreEngine(f, func(db *nebula.Database) (*nebula.MetaRepository, error) {
		return workload.BuildMeta(db, rand.New(rand.NewSource(cfg.seed)))
	}, nebula.DefaultOptions())
	if err != nil {
		return fmt.Errorf("smoke: drain snapshot corrupt: %w", err)
	}
	fmt.Printf("smoke ok: healthz + discovery round trip + graceful drain; snapshot reloads (%d annotations, %d tuples)\n",
		restored.Store().Len(), restored.DB().TotalRows())
	return nil
}

// smokeRoundTrip drives the serving API once: health check, then a full
// discovery for a workload annotation inserted over the wire.
func smokeRoundTrip(cfg daemonConfig, base string) error {
	client := &http.Client{Timeout: 30 * time.Second}
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: status %d", resp.StatusCode)
	}

	ds, err := generate(cfg)
	if err != nil {
		return err
	}
	spec := ds.Workload[0]
	focal := make([]string, 0, 1)
	for _, t := range spec.Focal(1) {
		focal = append(focal, t.String())
	}
	add := map[string]any{"id": string(spec.Ann.ID) + "-smoke", "body": spec.Ann.Body, "attach_to": focal}
	if err := postJSON(client, base+"/v1/annotations", add, http.StatusCreated, nil); err != nil {
		return fmt.Errorf("add annotation: %w", err)
	}
	var disc struct {
		Candidates []json.RawMessage `json:"candidates"`
		Error      string            `json:"error"`
	}
	discover := map[string]any{"id": string(spec.Ann.ID) + "-smoke"}
	if err := postJSON(client, base+"/v1/discover", discover, http.StatusOK, &disc); err != nil {
		return fmt.Errorf("discover: %w", err)
	}
	if disc.Error != "" {
		return fmt.Errorf("discover: degraded to error %q", disc.Error)
	}
	log.Printf("nebulad: smoke discovery returned %d candidates", len(disc.Candidates))
	return nil
}

// postJSON posts a JSON body and decodes the response, enforcing the
// expected status.
func postJSON(client *http.Client, url string, body any, wantStatus int, out any) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := client.Post(url, "application/json", strings.NewReader(string(payload)))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		return fmt.Errorf("%s: status %d (want %d): %s", url, resp.StatusCode, wantStatus, raw)
	}
	if out != nil {
		return json.Unmarshal(raw, out)
	}
	return nil
}
