package nebula

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"nebula/internal/acg"
	"nebula/internal/annotation"
	"nebula/internal/cache"
	"nebula/internal/discovery"
	"nebula/internal/ingest"
	"nebula/internal/keyword"
	"nebula/internal/relational"
	"nebula/internal/segment"
	"nebula/internal/shard"
	"nebula/internal/sigmap"
	"nebula/internal/trace"
	"nebula/internal/verification"
)

// Typed pipeline errors, re-exported for callers that match with
// errors.Is. ErrInternal wraps a panic recovered at the Engine's public
// boundary: one poisoned annotation (or a bug underneath it) surfaces as an
// error on its own call instead of taking down the serving process.
var (
	// ErrCancelled reports a run interrupted by caller cancellation;
	// partial candidates accompany it on the returned Discovery.
	ErrCancelled = discovery.ErrCancelled
	// ErrBudgetExceeded reports a run stopped by its wall-clock budget;
	// partial candidates accompany it on the returned Discovery.
	ErrBudgetExceeded = discovery.ErrBudgetExceeded
	// ErrSpamAnnotation flags an annotation referencing an implausible
	// share of the database (see Options.SpamFraction). The concrete
	// error is a *discovery.SpamError carrying the candidate count.
	ErrSpamAnnotation = discovery.ErrSpamAnnotation
	// ErrInternal wraps a recovered panic.
	ErrInternal = errors.New("nebula: internal error")
	// ErrUnknownAnnotation reports an ID with no stored annotation. Serving
	// layers match it with errors.Is to answer 404 instead of 500.
	ErrUnknownAnnotation = errors.New("nebula: unknown annotation")
)

// recoverPanic converts a panic into an ErrInternal on the method's error
// return. Deferred at every public entry point that runs annotation-driven
// pipeline code.
func recoverPanic(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("%w: panic: %v\n%s", ErrInternal, r, debug.Stack())
	}
}

// Engine is the proactive annotation manager: it owns the annotation store,
// the ACG, the hop profile, and the verification pipeline, and orchestrates
// the three processing stages of Figure 16 on top of a relational database
// and a NebulaMeta repository.
//
// All Engine methods are safe for concurrent use. Operations synchronize on
// a hash-sharded readers–writer lock group (Options.Shards): discovery
// (Stages 1–2), query-time propagation, snapshot capture, and the
// pending/bounds accessors are read-only against engine state and run
// concurrently with each other, while whole-engine mutations (raw
// relational mutations, Stage-3 verification routing, expert decisions,
// deletions) take every shard's lock exclusively in ascending order.
// Single-annotation writes (AddAnnotation, AddAnnotationAsync,
// EnqueueDiscovery) take only the annotation's home shard, so writers
// against different shards proceed concurrently and invalidate only their
// own shard's cached discoveries. With Shards <= 1 the group degenerates to
// the engine's historical single RWMutex.
//
// Every write goes one way (see wal.go): the entry point runs under write,
// which owns the lock scope, panic recovery and the WAL sync; the mutation
// itself is a wal.Record that commit logs and then applies through
// applyRecord, the function WAL replay runs, which also applies the
// record's cache invalidation. The underlying database, store, and graph
// returned by the accessors are NOT independently synchronized — mutate
// them through the engine, or only before sharing the engine across
// goroutines.
type Engine struct {
	mu *shard.Group

	db      *Database
	meta    *MetaRepository
	store   *AnnotationStore
	graph   *ACG
	profile *HopProfile
	manager *verification.Manager
	opts    Options

	// symMu guards symbolEngine independently of mu: the lazy index build
	// is a mutation that happens on the (read-locked) discovery path, so it
	// cannot hide behind the RW lock's read side.
	symMu sync.Mutex
	// symbolEngine caches the pre-built index of the symbol-table search
	// technique for the full database. It is built lazily on first use and
	// invalidated only by RefreshSearchIndex — index-first techniques go
	// stale as data changes, which is exactly their documented trade-off.
	symbolEngine *keyword.SymbolTableEngine

	// discCache memoizes whole clean discovery runs under their
	// discoveryKey (annotation body, focal set, the options that shape the
	// pipeline). Nil when caching is disabled.
	discCache *cache.LRU[discoveryKey, *Discovery]

	// wal, when non-nil, is the write-ahead log binding: mutations append
	// a record under the write lock before applying, and fsync (with
	// group-commit absorption) after releasing it. Written by AttachWAL
	// under the write lock; write reads it under the lock it takes, and
	// syncs the binding it read after releasing — attach before sharing
	// the engine across goroutines.
	wal *walBinding
	// captured is non-nil while MutateDB runs the caller's function: the
	// row hook appends every committed row operation, which MutateDB then
	// logs and feeds to change-data-capture. Guarded by the whole-group
	// write lock.
	captured []relational.RowMutation
	// walBaseSegment is the first WAL segment NOT folded into the snapshot
	// this engine was restored from; ReplayWAL skips earlier segments.
	// Zero (fresh engines, pre-WAL snapshots) replays everything.
	walBaseSegment uint64
	// restoreStats accounts the snapshot restore this engine was built
	// from (zero for an engine built any other way). Written once by
	// RestoreEngine before the engine is shared.
	restoreStats RestoreStats

	// manualFocal remembers each annotation's manual Stage-0 attachments
	// (the attachTo of its AddAnnotation) — the state re-discovery
	// retraction preserves. Accepted predictions become TrueAttachments in
	// the store and are indistinguishable there from manual ones; this map
	// is what keeps them distinguishable. Readers hold mu (all shards);
	// the one writer reachable under a single shard lock (addAnnotation)
	// additionally holds manualMu, so concurrent home-shard writers on
	// different shards cannot race the map.
	manualFocal map[AnnotationID][]TupleID
	// manualMu serializes manualFocal map writes from single-shard
	// mutation paths. Whole-engine paths already exclude each other via mu.
	manualMu sync.Mutex
	// ingest, when non-nil, is the streaming proactive pipeline: the
	// bounded discovery job queue plus change-data-capture state (see
	// Options.Ingest and ingest.go). Guarded by mu.
	ingest *ingestState

	// segStore and tiered, when non-nil, are the disk-backed substrate for
	// the symbol-table search technique (Options.Store): immutable mmap'd
	// segment files plus the in-heap tail that absorbs changes. Both are
	// set during construction and never reassigned, so reads need no lock;
	// the structures synchronize internally.
	segStore *segment.Store
	tiered   *keyword.TieredEngine
	// storeFlushMu serializes flush generations (checkpoint tail flushes
	// and operator FlushStore calls) against each other.
	storeFlushMu sync.Mutex
	// storeSeq is the generation of the last successful segment flush —
	// the value stamped into both the snapshot and the manifest so restore
	// can tell whether the segments on disk pair with the snapshot.
	storeSeq atomic.Uint64
}

// New creates an engine with a fresh annotation store and ACG.
func New(db *Database, repo *MetaRepository, opts Options) (*Engine, error) {
	return NewWithState(db, repo, annotation.NewStore(),
		acg.New(opts.ACGBatchSize, opts.ACGMu), opts)
}

// NewWithState creates an engine over an existing annotation store and ACG
// — the path used when Nebula is layered on an already-annotated database
// (e.g. the experimental datasets, where the base publications pre-populate
// both structures).
func NewWithState(db *Database, repo *MetaRepository, store *AnnotationStore, graph *ACG, opts Options) (*Engine, error) {
	return newWithState(db, repo, store, graph, opts, 0, nil)
}

// newWithState is NewWithState plus the expected disk-store generation:
// 0 for fresh engines (any existing segments in Options.Store.Dir belong
// to unknown history and only serve as verified-hit shortcuts), the
// snapshot's StoreSeq on the restore path (matching segments then carry
// the index without a rebuild); and the manual-focal map a snapshot
// carried, nil when there is none to adopt.
func newWithState(db *Database, repo *MetaRepository, store *AnnotationStore, graph *ACG, opts Options, storeSeq uint64, manual map[AnnotationID][]TupleID) (*Engine, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if db == nil || repo == nil || store == nil || graph == nil {
		return nil, fmt.Errorf("nebula: nil dependency")
	}
	profile := acg.NewProfile()
	manager, err := verification.NewManager(store, graph, profile, verification.Bounds(opts.Bounds))
	if err != nil {
		return nil, err
	}
	e := &Engine{
		mu:          shard.NewGroup(opts.Shards),
		db:          db,
		meta:        repo,
		store:       store,
		graph:       graph,
		profile:     profile,
		manager:     manager,
		opts:        opts,
		manualFocal: manual,
	}
	// Pre-populated stores (restored snapshots without manual-focal data,
	// layered datasets) default every existing true attachment to manual:
	// re-discovery then never retracts pre-existing state it cannot
	// classify.
	if manual == nil {
		e.manualFocal = make(map[AnnotationID][]TupleID)
		for _, id := range store.IDs() {
			if focal := store.Focal(id); len(focal) > 0 {
				e.manualFocal[id] = focal
			}
		}
	}
	if opts.Ingest.Enabled {
		e.ingest = &ingestState{
			queue:   ingest.New(opts.Ingest.queueCap()),
			cdcHops: opts.Ingest.cdcHops(),
		}
		e.refreshRowHook()
	}
	if opts.Store.Enabled() {
		if err := e.openStore(storeSeq); err != nil {
			return nil, err
		}
	}
	if !opts.Cache.Disabled {
		// The discovery cache is the one result cache and takes the whole
		// byte budget. Engines are rebuilt on snapshot restore, so a Load
		// always starts from a cold, coherent cache.
		e.discCache = cache.NewKeyed[discoveryKey, *Discovery](opts.Cache.bytes())
	}
	return e, nil
}

// DB returns the engine's database. Tables are not internally
// synchronized: mutating rows through this handle while the engine is
// serving concurrent requests races them — use MutateDB for that.
func (e *Engine) DB() *Database { return e.db }

// MutateDB runs fn against the engine's database under the engine's
// write lock, making raw relational mutations (Insert/Delete/Update)
// exclusive with concurrent discoveries and snapshot captures. Table
// epochs advance on mutation, so caches derived from the changed rows
// invalidate without further bookkeeping. With a WAL attached, every row
// operation fn commits is captured and logged; the call returns only once
// the captured records are durable.
func (e *Engine) MutateDB(fn func(db *Database) error) error {
	return e.write(allShards, func() error {
		rows, err := e.captureRows(fn)
		// Effect records: fn already applied these rows, so they are
		// logged after the fact — also when fn failed, because replay must
		// reach the state fn left behind.
		for _, m := range rows {
			if lerr := e.walAppend(rowMutationRecord(m)); lerr != nil {
				return lerr
			}
		}
		if e.ingest == nil || len(rows) == 0 {
			return err
		}
		// Change-data-capture: the applied row mutations decide which
		// prior attachments need re-discovery. It runs whatever fn
		// returned, because the rows stand either way; fn's error wins.
		if _, cerr := e.enqueueAffectedLocked(rows); err == nil {
			err = cerr
		}
		return err
	})
}

// captureRows runs fn with the row hook capturing and returns the row
// operations it committed, also when fn failed or panicked (a panic comes
// back as ErrInternal). Caller holds e.mu in write mode.
func (e *Engine) captureRows(fn func(db *Database) error) (rows []relational.RowMutation, err error) {
	e.captured = []relational.RowMutation{}
	defer func() { rows, e.captured = e.captured, nil }()
	defer recoverPanic(&err)
	return nil, fn(e.db)
}

// Meta returns the NebulaMeta repository.
func (e *Engine) Meta() *MetaRepository { return e.meta }

// Store returns the annotation store.
func (e *Engine) Store() *AnnotationStore { return e.store }

// Graph returns the ACG.
func (e *Engine) Graph() *ACG { return e.graph }

// Profile returns the hop-distance profile.
func (e *Engine) Profile() *HopProfile { return e.profile }

// Shards returns the engine's shard count (always >= 1; Options.Shards
// values of 0 and 1 both select the single-shard layout).
func (e *Engine) Shards() int { return e.mu.Shards() }

// Options returns the engine's configuration.
func (e *Engine) Options() Options {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.opts
}

// SetBounds replaces the verification thresholds.
func (e *Engine) SetBounds(b Bounds) error {
	return e.write(allShards, func() error {
		_, err := e.commit(recBounds(b))
		return err
	})
}

// Bounds returns the current verification thresholds.
func (e *Engine) Bounds() Bounds {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return Bounds(e.manager.Bounds())
}

// AddAnnotation inserts a new annotation with its manual (true)
// attachments — Stage 0. The attachments become the annotation's focal and
// are wired into the ACG. It locks only the annotation's home shard, so
// concurrent adds homed on different shards proceed in parallel; the store,
// graph, and WAL serialize their own internal mutations.
//
// The store keeps its own copy of a, built from the logged record exactly
// as replay builds it; later changes to *a do not reach the engine.
func (e *Engine) AddAnnotation(a *Annotation, attachTo []TupleID) error {
	return e.write(e.mu.Home(string(a.ID)), func() error {
		_, err := e.commit(recAddAnnotation(a, attachTo))
		return err
	})
}

// addAnnotation applies an OpAddAnnotation record. Callers hold either the
// whole lock group or the annotation's home shard exclusively; under a
// single shard lock the database is read-only to everyone else (relational
// mutations take all shards), and the store/graph/manualFocal writes below
// serialize through their own mutexes against adds homed elsewhere.
func (e *Engine) addAnnotation(a *Annotation, attachTo []TupleID) error {
	for _, t := range attachTo {
		if _, ok := e.db.Lookup(t); !ok {
			return fmt.Errorf("nebula: attach target %s not in database", t)
		}
	}
	if err := e.store.Add(a); err != nil {
		return err
	}
	for _, t := range attachTo {
		if _, err := e.store.Attach(annotation.Attachment{
			Annotation: a.ID, Tuple: t, Type: annotation.TrueAttachment,
		}); err != nil {
			return err
		}
	}
	e.graph.AddAnnotation(a.ID, attachTo)
	// Remember the manual focal: re-discovery retraction keeps exactly
	// these attachments. Recorded in the core so OpAddAnnotation replay
	// rebuilds the same map.
	e.manualMu.Lock()
	e.manualFocal[a.ID] = append([]TupleID(nil), attachTo...)
	e.manualMu.Unlock()
	return nil
}

// DeleteTuple removes a data tuple with full referential integrity: the
// row leaves its table, every attachment touching it is detached, its ACG
// node (and edges) disappear, and pending verification tasks targeting it
// are cancelled. It reports the numbers of detached attachments and
// cancelled tasks. Deleting an unknown tuple is an error.
//
// Under the symbol-table search technique the pre-built index goes stale;
// call RefreshSearchIndex afterwards (or rely on the next rebuild).
func (e *Engine) DeleteTuple(id TupleID) (detached, cancelled int, err error) {
	err = e.write(allShards, func() error {
		// Change-data-capture must read the ACG neighborhood BEFORE the
		// cascade removes the tuple's node and edges.
		var affected []AnnotationID
		if e.ingest != nil {
			affected = e.graph.AffectedAnnotations([]TupleID{id}, e.ingest.cdcHops)
		}
		res, err := e.commit(recDeleteTuple(id))
		detached, cancelled = res.detached, res.cancelled
		if err != nil {
			return err
		}
		for _, a := range affected {
			if _, ok := e.store.Get(a); !ok {
				continue // the cascade removed the annotation's last state
			}
			if _, qerr := e.enqueueJobLocked(a, ingest.KindRediscover, 0); qerr != nil && !errors.Is(qerr, ErrIngestQueueFull) {
				return qerr
			}
		}
		return nil
	})
	return detached, cancelled, err
}

// deleteTuple applies an OpDeleteTuple record. The MutateDB row hook does
// not capture here (capture is only on inside MutateDB), so the single
// OpDeleteTuple record owns the whole cascade.
func (e *Engine) deleteTuple(id TupleID) (detached, cancelled int, err error) {
	t, ok := e.db.Table(id.Table)
	if !ok {
		return 0, 0, fmt.Errorf("nebula: unknown table %q", id.Table)
	}
	if !t.DeleteByKey(id.Key) {
		return 0, 0, fmt.Errorf("nebula: no tuple %s", id)
	}
	// The tuple can no longer be anyone's manual attachment; prune it from
	// the manual-focal lists before the store cascade forgets who touched
	// it.
	for _, att := range e.store.TupleAnnotations(id, annotation.TrueAttachment) {
		focal := e.manualFocal[att.Annotation]
		for i, t := range focal {
			if t == id {
				e.manualFocal[att.Annotation] = append(focal[:i:i], focal[i+1:]...)
				break
			}
		}
		if len(e.manualFocal[att.Annotation]) == 0 {
			delete(e.manualFocal, att.Annotation)
		}
	}
	detached = e.store.DetachTuple(id)
	e.graph.RemoveTuple(id)
	cancelled = e.manager.CancelTasksForTuple(id)
	return detached, cancelled, nil
}

// Discovery is the result of running Stages 1–2 on one annotation.
type Discovery struct {
	// Queries are the generated keyword queries.
	Queries []KeywordQuery
	// Candidates are the predicted attachments, strongest first.
	Candidates []Candidate
	// Focal is the annotation's focal used for the run.
	Focal []TupleID
	// GenStats reports Stage 1 phase timings and counts.
	GenStats GenerationStats
	// ExecStats reports Stage 2 cost counters.
	ExecStats DiscoveryStats
	// Trace is the request-scoped span tree for this run when tracing was
	// requested (Options.Trace / RequestOptions.Trace); nil otherwise.
	// Observe-only: its presence never changes the other fields.
	Trace *TraceNode
}

// Degraded lists every way the run deviated from the full, unbounded
// pipeline, across both stages: query-budget truncation, scan-budget
// exhaustion, deadline interruption, unstable-ACG spreading fallback,
// retried transient faults. Empty means the run is exactly what the
// ungoverned algorithm would have produced; non-empty candidate sets are
// never auto-accepted by Process.
func (d *Discovery) Degraded() []string {
	if len(d.GenStats.Degraded) == 0 {
		return d.ExecStats.Degraded
	}
	out := make([]string, 0, len(d.GenStats.Degraded)+len(d.ExecStats.Degraded))
	out = append(out, d.GenStats.Degraded...)
	return append(out, d.ExecStats.Degraded...)
}

// Discover runs Stages 1 and 2 for a stored annotation: signature maps →
// keyword queries → execution with the engine's configured refinements.
func (e *Engine) Discover(id AnnotationID) (*Discovery, error) {
	return e.DiscoverContext(context.Background(), id)
}

// DiscoverContext is Discover under governance: the run honors ctx (checked
// at per-query and per-tuple-batch granularity) and the engine's
// Options.Budget. On cancellation or deadline it returns the partial
// Discovery produced so far together with a typed ErrCancelled/
// ErrBudgetExceeded; count budgets degrade the run (see Discovery.Degraded)
// without error. With a background context and a zero budget it is
// byte-identical to Discover.
func (e *Engine) DiscoverContext(ctx context.Context, id AnnotationID) (d *Discovery, err error) {
	return e.DiscoverRequest(ctx, id, RequestOptions{})
}

// DiscoverRequest is DiscoverContext with per-request governance: the
// serializable RequestOptions overlay the engine's configured budget and
// parallelism for this one run. Discovery is read-only against engine
// state, so concurrent DiscoverRequest calls proceed in parallel under the
// engine's read lock.
func (e *Engine) DiscoverRequest(ctx context.Context, id AnnotationID, req RequestOptions) (d *Discovery, err error) {
	defer recoverPanic(&err)
	if err := req.Validate(); err != nil {
		return nil, err
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.discoverByID(ctx, id, req.apply(e.opts))
}

func (e *Engine) discoverByID(ctx context.Context, id AnnotationID, opts Options) (*Discovery, error) {
	a, ok := e.store.Get(id)
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownAnnotation, id)
	}
	return e.discover(ctx, a, e.store.Focal(id), opts)
}

// discover is the focal- and options-parameterized core, shared with bounds
// training and the per-request serving surface. Callers must hold e.mu (in
// read or write mode); the run touches engine state only through reads.
func (e *Engine) discover(ctx context.Context, a *Annotation, focal []TupleID, opts Options) (disc *Discovery, err error) {
	if opts.Trace {
		// Root the span tree here unless a caller (process) already owns
		// one, in which case this run is a child and the owner snapshots.
		span := trace.FromContext(ctx)
		ownsRoot := span == nil
		if ownsRoot {
			span = trace.New("discover")
		} else {
			span = span.StartChild("discover")
		}
		ctx = trace.WithSpan(ctx, span)
		defer func() {
			span.End()
			if ownsRoot && disc != nil {
				disc.Trace = span.Snapshot()
			}
		}()
	}
	if opts.Budget.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Budget.Deadline)
		defer cancel()
	}
	k := opts.SpreadingK
	if opts.Spreading && k <= 0 {
		k = e.profile.SelectK(opts.SpreadingCoverage, 3)
	}
	// Whole-pipeline memoization. Scan budgets force uncached runs (their
	// results depend on scan order and stats must reflect actual work), and
	// injected searcher factories are opaque — their behavior cannot be
	// put into a key.
	useCache := e.discCache != nil && !opts.Cache.Disabled &&
		opts.SearcherFactory == nil && opts.Budget.MaxSearchedRows == 0
	var cacheKey discoveryKey
	var epoch uint64
	if useCache {
		home := e.mu.Home(string(a.ID))
		cacheKey = newDiscoveryKey(a.Body, focal, opts, k, home)
		epoch = e.cacheEpochFor(home, opts)
		if hit, ok := e.discCache.Get(cacheKey, epoch); ok {
			trace.FromContext(ctx).Add("discovery_cache_hits", 1)
			out := &Discovery{
				Queries:    hit.Queries,
				Candidates: append([]Candidate(nil), hit.Candidates...),
				Focal:      focal,
				GenStats:   hit.GenStats,
				// Stats account actual work: a short-circuited run scanned
				// nothing; it only records itself as one discovery-cache hit.
				ExecStats: DiscoveryStats{
					Candidates: len(hit.Candidates),
					Exec:       keyword.ExecStats{CacheHits: 1},
				},
			}
			return out, nil
		}
	}
	gen := sigmap.NewGenerator(e.meta, opts.Epsilon)
	gen.Alpha = opts.Alpha
	gen.MaxQueries = opts.Budget.MaxQueries
	gspan, gctx := trace.StartSpan(ctx, "generate")
	queries, genStats := gen.GenerateContext(gctx, a.Body)
	gspan.AddInt("queries", len(queries))
	gspan.End()

	d := discovery.New(e.db, e.meta, e.graph)
	d.IncludeRelated = opts.IncludeRelated
	switch {
	case opts.SearcherFactory != nil:
		d.NewSearcher = opts.SearcherFactory
	case opts.SearchTechnique == TechniqueSymbolTable:
		d.NewSearcher = e.symbolSearcher
	}
	cands, execStats, err := d.IdentifyRelatedTuplesContext(ctx, queries, focal, discovery.Options{
		Shared:          opts.SharedExecution,
		FocalAdjustment: opts.FocalAdjustment,
		AdjustmentHops:  opts.AdjustmentHops,
		Spreading:       opts.Spreading,
		K:               k,
		RequireStable:   opts.RequireStableACG,
		SpamFraction:    opts.SpamFraction,
		MaxScannedRows:  opts.Budget.MaxSearchedRows,
		MaxCandidates:   opts.Budget.MaxCandidates,
		MaxWorkers:      resolveWorkers(opts.Parallelism),
		Retry:           opts.Retry,
		TopK:            opts.TopK,
	})
	disc = &Discovery{
		Queries:    queries,
		Candidates: cands,
		Focal:      focal,
		GenStats:   genStats,
		ExecStats:  execStats,
	}
	if err != nil {
		if errors.Is(err, ErrCancelled) || errors.Is(err, ErrBudgetExceeded) || errors.Is(err, ErrSpamAnnotation) {
			// Partial (or quarantined) results travel with the typed
			// error so operators can inspect what the run produced.
			return disc, err
		}
		return nil, err
	}
	if useCache && len(disc.Degraded()) == 0 {
		// Only clean runs are cached: a degraded result is an artifact of
		// this run's governance, not the annotation's answer. The stored
		// copy owns its candidate slice so later callers mutating the
		// returned Discovery cannot corrupt the cache, and it never carries
		// a trace — spans describe one request, not the cached answer.
		stored := *disc
		stored.Candidates = append([]Candidate(nil), disc.Candidates...)
		stored.Trace = nil
		e.discCache.Put(cacheKey, epoch, &stored, discoveryCost(cacheKey, &stored))
	}
	return disc, nil
}

// symbolSearcher returns the symbol-table technique for the given search
// database, caching the full-database index across calls. The cache is
// guarded by symMu (not e.mu) because concurrent read-locked discoveries
// race to build it; after the first build they share the immutable index.
func (e *Engine) symbolSearcher(db *relational.Database) keyword.Searcher {
	if db == e.db {
		// Disk mode: the tiered engine serves the full-database index from
		// mmap'd segments plus its tail; answers are byte-identical to the
		// heap engine's (postings are verified against live rows).
		if e.tiered != nil {
			return e.tiered
		}
		e.symMu.Lock()
		defer e.symMu.Unlock()
		if e.symbolEngine == nil {
			e.symbolEngine = keyword.NewSymbolTableEngine(db)
		}
		return e.symbolEngine
	}
	// A spreading miniDB: the pre-processing pass runs over the (small)
	// materialized view.
	return keyword.NewSymbolTableEngine(db)
}

// RefreshSearchIndex rebuilds the symbol-table technique's pre-built index
// after data changes. A no-op for the metadata technique, which reads live
// indexes. It takes the engine lock exclusively: a rebuild must not run
// under the feet of read-locked discoveries sharing the index.
func (e *Engine) RefreshSearchIndex() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.symMu.Lock()
	defer e.symMu.Unlock()
	if e.symbolEngine != nil {
		e.symbolEngine.Rebuild()
	}
	if e.tiered != nil {
		// Disk mode refreshes incrementally: only rows the mutation hook
		// marked dirty are re-indexed into the tail — the immutable
		// segments stay mapped as-is (stale postings are filtered by
		// per-row verification, so they cannot surface).
		e.tiered.Absorb()
	}
	// A rebuilt index can answer differently than the stale one whose
	// results may be cached; move every shard's epoch so those entries die
	// whichever shard they are stamped with.
	e.bumpMutEpochAll()
}

// NaiveDiscover runs the §4 baseline for a stored annotation: the whole
// body as one keyword query, no preprocessing, full-database search.
func (e *Engine) NaiveDiscover(id AnnotationID) (*Discovery, error) {
	return e.NaiveDiscoverContext(context.Background(), id)
}

// NaiveDiscoverContext is NaiveDiscover under governance: the baseline's
// full-database scan polls ctx per tuple batch and honors the engine's
// Options.Budget scan/candidate/deadline bounds. The baseline has no Stage 1,
// so MaxQueries does not apply.
func (e *Engine) NaiveDiscoverContext(ctx context.Context, id AnnotationID) (disc *Discovery, err error) {
	return e.NaiveDiscoverRequest(ctx, id, RequestOptions{})
}

// NaiveDiscoverRequest is NaiveDiscoverContext with per-request governance;
// like DiscoverRequest it runs under the engine's read lock, so concurrent
// baseline scans proceed in parallel.
func (e *Engine) NaiveDiscoverRequest(ctx context.Context, id AnnotationID, req RequestOptions) (disc *Discovery, err error) {
	defer recoverPanic(&err)
	if err := req.Validate(); err != nil {
		return nil, err
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	opts := req.apply(e.opts)
	a, ok := e.store.Get(id)
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownAnnotation, id)
	}
	if opts.Trace {
		root := trace.New("naive_discover")
		ctx = trace.WithSpan(ctx, root)
		defer func() {
			root.End()
			if disc != nil {
				disc.Trace = root.Snapshot()
			}
		}()
	}
	if opts.Budget.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Budget.Deadline)
		defer cancel()
	}
	focal := e.store.Focal(id)
	d := discovery.New(e.db, e.meta, e.graph)
	cands, stats, err := d.NaiveIdentifyContext(ctx, a.Body, focal, discovery.Options{
		TopK:           opts.TopK,
		MaxScannedRows: opts.Budget.MaxSearchedRows,
		MaxCandidates:  opts.Budget.MaxCandidates,
	})
	disc = &Discovery{Candidates: cands, Focal: focal, ExecStats: stats}
	if err != nil {
		return disc, err
	}
	return disc, nil
}

// Process runs the full pipeline for a stored annotation: discovery
// followed by verification routing (Stage 3). Auto-accepted predictions are
// attached immediately (with ACG and profile updates); mid-confidence ones
// become pending tasks.
func (e *Engine) Process(id AnnotationID) (*Discovery, VerificationOutcome, error) {
	return e.ProcessContext(context.Background(), id)
}

// ProcessContext is Process under governance. Discovery errors — typed
// cancellation/deadline errors, spam quarantine — abort before Stage 3:
// nothing is submitted to verification, and the partial Discovery travels
// with the error. A degraded-but-complete run (count budgets bit, spreading
// fell back, transient faults were retried) does reach Stage 3, but through
// the degraded path: its would-be auto-accepts become pending
// expert-verification tasks, because confidences computed over a truncated
// evidence base cannot be trusted to clear β_upper unattended.
func (e *Engine) ProcessContext(ctx context.Context, id AnnotationID) (disc *Discovery, outcome VerificationOutcome, err error) {
	return e.ProcessRequest(ctx, id, RequestOptions{})
}

// ProcessRequest is ProcessContext with per-request governance. Stage 3
// mutates engine state (attachments, ACG, hop profile, VIDs), so unlike
// DiscoverRequest it holds the engine lock exclusively for the whole run.
func (e *Engine) ProcessRequest(ctx context.Context, id AnnotationID, req RequestOptions) (disc *Discovery, outcome VerificationOutcome, err error) {
	if err := req.Validate(); err != nil {
		return nil, VerificationOutcome{}, err
	}
	err = e.write(allShards, func() (err error) {
		disc, outcome, err = e.process(ctx, id, req.apply(e.opts))
		return err
	})
	return disc, outcome, err
}

func (e *Engine) process(ctx context.Context, id AnnotationID, opts Options) (disc *Discovery, outcome VerificationOutcome, err error) {
	var root *trace.Span
	if opts.Trace && trace.FromContext(ctx) == nil {
		// process owns the root span; the discover call below becomes its
		// first child, verification routing the second.
		root = trace.New("process")
		ctx = trace.WithSpan(ctx, root)
		defer func() {
			root.End()
			if disc != nil {
				disc.Trace = root.Snapshot()
			}
		}()
	}
	disc, err = e.discoverByID(ctx, id, opts)
	if err != nil {
		return disc, VerificationOutcome{}, err
	}
	vspan := root.StartChild("verify")
	outcome, err = e.submit(id, disc)
	if vspan.Enabled() {
		vspan.AddInt("accepted", len(outcome.Accepted))
		vspan.AddInt("pending", len(outcome.Pending))
		vspan.AddInt("rejected", len(outcome.Rejected))
		vspan.End()
	}
	if err != nil {
		return disc, VerificationOutcome{}, err
	}
	return disc, outcome, nil
}

// submit is Stage 3 for one discovery, shared by Process, ProcessBatch and
// DrainIngest: measure, then commit. The record carries the computed
// inputs — candidates, focal, degradation flag, the VID the first task
// gets — and the hop distance of every acceptance measured here, never the
// discovery itself: replay re-runs no budgeted search whose outcome
// depends on wall clocks, and no ACG search either. Caller holds e.mu in
// write mode.
func (e *Engine) submit(id AnnotationID, disc *Discovery) (VerificationOutcome, error) {
	degraded := len(disc.Degraded()) > 0
	hops := e.manager.MeasureSubmit(disc.Focal, disc.Candidates, degraded)
	res, err := e.commit(recSubmit(id, disc, degraded, e.manager.NextVID(), hops))
	return res.outcome, err
}

// PendingTasks returns the pending verification tasks, ordered by VID.
func (e *Engine) PendingTasks() []*VerificationTask {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.manager.PendingTasks()
}

// PendingTasksByPriority returns the pending tasks ordered by descending
// confidence — the order an expert with limited time should work in.
func (e *Engine) PendingTasksByPriority() []*VerificationTask {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.manager.PendingTasksByPriority()
}

// VerifyAttachment implements the extended SQL command
// `Verify Attachement <vid>`: the expert accepts a pending task.
func (e *Engine) VerifyAttachment(vid int64) error {
	return e.write(allShards, func() error { return e.verdict(vid, true) })
}

// RejectAttachment implements `Reject Attachement <vid>`.
func (e *Engine) RejectAttachment(vid int64) error {
	return e.write(allShards, func() error { return e.verdict(vid, false) })
}

// verdict is one expert decision on a pending task, shared by every live
// path: measure an acceptance's hop distance from the annotation's focal
// as it stands now, then commit. Unknown VIDs are refused before logging —
// a no-op needs no record. Caller holds e.mu in write mode.
func (e *Engine) verdict(vid int64, accept bool) error {
	task, ok := e.manager.Pending(vid)
	if !ok {
		return fmt.Errorf("nebula: no pending task v%d", vid)
	}
	var hops []byte
	if accept {
		hops = e.manager.MeasureVerify(vid)
	}
	_, err := e.commit(recVerdict(task, accept, hops))
	return err
}

// ResolveWithOracle resolves an annotation's pending tasks using an oracle
// (the experiments' simulated expert). Each decision is its own verdict —
// logged as its own record, and an acceptance measured against the focal
// the decisions before it left — so the oracle's answers, not the oracle,
// are what replay re-applies.
func (e *Engine) ResolveWithOracle(id AnnotationID, oracle Oracle) (accepted, rejected []*VerificationTask, err error) {
	err = e.write(allShards, func() error {
		for _, t := range e.manager.PendingTasks() {
			if t.Annotation != id {
				continue
			}
			related := oracle.IsRelated(id, t.Tuple)
			if err := e.verdict(t.VID, related); err != nil {
				return err
			}
			if related {
				accepted = append(accepted, t)
			} else {
				rejected = append(rejected, t)
			}
		}
		return nil
	})
	return accepted, rejected, err
}

// Quality computes the §3 database quality metrics against an ideal edge
// set.
func (e *Engine) Quality(ideal IdealEdges) QualityMetrics {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.store.Quality(ideal)
}

// PropagateQuery runs a structured query and propagates annotations over
// its results — the passive facility inherited from the underlying engine.
// It reads only (a select, then store reads), so like DiscoverRequest it
// runs under the read lock.
func (e *Engine) PropagateQuery(q StructuredQuery, projected []string) ([]PropagatedRow, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.store.PropagateQuery(e.db, q, projected)
}

// PropagateJoin executes an FK–PK join of the two selections and
// propagates annotations from both contributing tuples over the joined
// rows (the join semantics of query-time propagation).
func (e *Engine) PropagateJoin(left, right StructuredQuery, projectedLeft, projectedRight []string) ([]PropagatedJoinRow, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.store.PropagateJoin(e.db, left, right, projectedLeft, projectedRight)
}

// TuneBounds runs the Figure 9 BoundsSetting algorithm against this
// engine's discovery pipeline and installs the chosen thresholds.
func (e *Engine) TuneBounds(training []TrainingExample, cfg BoundsConfig) (b Bounds, evals []BoundsEvaluation, err error) {
	err = e.write(allShards, func() error {
		discover := func(a *Annotation, focal []TupleID) ([]Candidate, error) {
			d, err := e.discover(context.Background(), a, focal, e.opts)
			if err != nil {
				return nil, err
			}
			return d.Candidates, nil
		}
		bounds, ev, err := verification.BoundsSetting(training, discover, cfg)
		if err != nil {
			return err
		}
		// Only the chosen thresholds are logged — replay must not re-run
		// the training sweep.
		if _, err := e.commit(recBounds(Bounds(bounds))); err != nil {
			return err
		}
		b, evals = Bounds(bounds), ev
		return nil
	})
	return b, evals, err
}
