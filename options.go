package nebula

import (
	"fmt"
	"runtime"
	"strconv"
	"time"

	"nebula/internal/discovery"
	"nebula/internal/keyword"
	"nebula/internal/verification"
)

// Budget bounds one discovery run. The zero value imposes no bounds and
// selects the exact ungoverned pipeline — governance is free when off.
// When a bound bites, the run degrades instead of failing: it keeps the
// strongest work completed so far and records every shortcut in the
// GenerationStats/DiscoveryStats Degraded lists. Only the wall-clock
// Deadline produces an error (a typed ErrBudgetExceeded with partial
// candidates attached to the returned Discovery).
type Budget struct {
	// MaxQueries caps the keyword queries generated from one annotation
	// (Stage 1). The highest-weight queries are kept.
	MaxQueries int
	// MaxCandidates truncates the candidate list to the strongest N
	// predictions (Stage 2 output).
	MaxCandidates int
	// MaxSearchedRows stops keyword execution once this many tuples have
	// been scanned.
	MaxSearchedRows int
	// Deadline is the wall-clock budget for one discovery run; it is
	// combined (as context.WithTimeout) with whatever context the caller
	// passes to DiscoverContext/ProcessContext.
	Deadline time.Duration
}

// Enabled reports whether any bound is set.
func (b Budget) Enabled() bool {
	return b.MaxQueries > 0 || b.MaxCandidates > 0 || b.MaxSearchedRows > 0 || b.Deadline > 0
}

// Validate rejects negative bounds.
func (b Budget) Validate() error {
	if b.MaxQueries < 0 || b.MaxCandidates < 0 || b.MaxSearchedRows < 0 || b.Deadline < 0 {
		return fmt.Errorf("nebula: negative budget %+v", b)
	}
	return nil
}

// RequestOptions is the serializable per-request governance surface: the
// subset of Options a single caller — one HTTP request, one CLI invocation —
// may override without reconfiguring the engine. The zero value overrides
// nothing and selects the engine's configured behavior, so clients only
// name the knobs they care about. Field semantics match Budget and
// Options.Parallelism; DeadlineMS is a wall-clock budget in milliseconds
// (JSON has no duration type).
type RequestOptions struct {
	// MaxQueries caps Stage 1 at the N highest-weight keyword queries.
	MaxQueries int `json:"max_queries,omitempty"`
	// MaxCandidates truncates the candidate list to the strongest N.
	MaxCandidates int `json:"max_candidates,omitempty"`
	// MaxSearchedRows stops keyword execution after scanning N tuples.
	MaxSearchedRows int `json:"max_searched_rows,omitempty"`
	// DeadlineMS is the wall-clock budget in milliseconds; when it fires
	// the run returns its partial results with ErrBudgetExceeded.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Parallelism overrides the worker-pool size for this request only
	// (0 = keep the engine's configured value).
	Parallelism int `json:"parallelism,omitempty"`
	// Cache controls result caching for this request: "" keeps the
	// engine's configured behavior, "off" bypasses the discovery cache
	// (the request neither consults nor populates it), "on" re-enables
	// caching for a request when the engine has the cache built (it cannot
	// conjure a cache on an engine configured with caching disabled).
	Cache string `json:"cache,omitempty"`
	// Trace attaches a request-scoped span tree to this run (see
	// Options.Trace). Observe-only: results are byte-identical either way.
	Trace bool `json:"trace,omitempty"`
	// TopK, when positive, keeps only the strongest k attachments for
	// this request (see Options.TopK).
	TopK int `json:"topk,omitempty"`
}

// Enabled reports whether the request overrides anything.
func (r RequestOptions) Enabled() bool {
	return r != RequestOptions{}
}

// Validate rejects negative overrides.
func (r RequestOptions) Validate() error {
	if r.MaxQueries < 0 || r.MaxCandidates < 0 || r.MaxSearchedRows < 0 || r.DeadlineMS < 0 {
		return fmt.Errorf("nebula: negative request budget %+v", r)
	}
	if r.Parallelism < 0 {
		return fmt.Errorf("nebula: negative request parallelism %d", r.Parallelism)
	}
	switch r.Cache {
	case "", "on", "off":
	default:
		return fmt.Errorf("nebula: request cache mode %q (want on or off)", r.Cache)
	}
	if r.TopK < 0 {
		return fmt.Errorf("nebula: negative request top-k %d", r.TopK)
	}
	return nil
}

// Deadline converts DeadlineMS to a duration.
func (r RequestOptions) Deadline() time.Duration {
	return time.Duration(r.DeadlineMS) * time.Millisecond
}

// apply overlays the request's non-zero overrides on a base configuration.
// Unset fields inherit the engine's values, so per-request governance can
// only be added to, never silently reset, by omitting a field.
func (r RequestOptions) apply(base Options) Options {
	if r.MaxQueries > 0 {
		base.Budget.MaxQueries = r.MaxQueries
	}
	if r.MaxCandidates > 0 {
		base.Budget.MaxCandidates = r.MaxCandidates
	}
	if r.MaxSearchedRows > 0 {
		base.Budget.MaxSearchedRows = r.MaxSearchedRows
	}
	if r.DeadlineMS > 0 {
		base.Budget.Deadline = r.Deadline()
	}
	if r.Parallelism > 0 {
		base.Parallelism = r.Parallelism
	}
	switch r.Cache {
	case "on":
		base.Cache.Disabled = false
	case "off":
		base.Cache.Disabled = true
	}
	if r.Trace {
		base.Trace = true
	}
	if r.TopK > 0 {
		base.TopK = r.TopK
	}
	return base
}

// DefaultCacheBytes is the discovery cache's byte budget when caching is
// enabled without an explicit limit: 64 MiB.
const DefaultCacheBytes = 64 << 20

// CacheConfig governs the engine's one result cache: the epoch-versioned,
// whole-pipeline discovery cache. The zero value means *enabled* with the
// DefaultCacheBytes budget — caching is coherence-safe (every mutation
// advances an epoch the cache keys embed), so it defaults on.
type CacheConfig struct {
	// Disabled turns the discovery cache off.
	Disabled bool
	// MaxBytes is the discovery cache's (approximate) byte budget, all of
	// it; 0 selects DefaultCacheBytes.
	MaxBytes int64
}

// Validate rejects a negative budget.
func (c CacheConfig) Validate() error {
	if c.MaxBytes < 0 {
		return fmt.Errorf("nebula: negative cache budget %d", c.MaxBytes)
	}
	return nil
}

// bytes resolves the effective budget.
func (c CacheConfig) bytes() int64 {
	if c.MaxBytes > 0 {
		return c.MaxBytes
	}
	return DefaultCacheBytes
}

// ParseCacheConfig parses the operator-facing cache setting shared by
// the CLIs and the sqlish CACHE governor: "on" (enabled, default
// budget), "off" (disabled), or a positive byte count.
func ParseCacheConfig(s string) (CacheConfig, error) {
	switch s {
	case "", "on":
		return CacheConfig{}, nil
	case "off":
		return CacheConfig{Disabled: true}, nil
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n <= 0 {
		return CacheConfig{}, fmt.Errorf("nebula: cache setting %q (want on, off, or a positive byte count)", s)
	}
	return CacheConfig{MaxBytes: n}, nil
}

// RetryPolicy re-exports the discoverer's transient-error retry policy.
type RetryPolicy = discovery.RetryPolicy

// KeywordSearcher re-exports the pluggable keyword-search technique
// interface, so deployments (and the fault-injection harness) can wrap the
// engine's searcher with middleware via Options.SearcherFactory.
type KeywordSearcher = keyword.Searcher

// Options configure an Engine.
type Options struct {
	// Epsilon is the signature-map cutoff threshold ε (§5.2.1). The paper
	// finds values between 0.5 and 0.8 work well; the default is 0.6.
	Epsilon float64
	// Alpha is the context influence range α in words (§5.2.2).
	Alpha int
	// SharedExecution enables the §6 multi-query shared executor.
	SharedExecution bool
	// FocalAdjustment enables the §6.2 ACG-based confidence adjustment.
	FocalAdjustment bool
	// AdjustmentHops extends the focal adjustment to shortest paths of up
	// to this many hops (the §6.2 extension, multiplying in-between edge
	// weights). 0 or 1 keeps the paper's default of direct edges only,
	// which it prefers as "semantically stronger" and less prone to
	// overfitting.
	AdjustmentHops int
	// Spreading enables the §6.3 approximate focal-based spreading search.
	Spreading bool
	// SpreadingK is the spreading radius; 0 selects it automatically from
	// the hop profile targeting SpreadingCoverage. Automatic selection is
	// only sound once the profile has been seeded by full-database
	// discoveries (the paper builds its Figure 7 profile from
	// entire-database searches): under spreading-only operation the profile
	// never observes candidates beyond the current radius and can only
	// shrink K.
	SpreadingK int
	// SpreadingCoverage is the desired candidate coverage when K is
	// selected automatically (Figure 7's guidance).
	SpreadingCoverage float64
	// RequireStableACG restricts spreading to a stable ACG (Def 6.1),
	// falling back to full search otherwise.
	RequireStableACG bool
	// Bounds are the initial verification thresholds β_lower/β_upper.
	Bounds Bounds
	// ACGBatchSize is the stability batch size B (Def 6.1).
	ACGBatchSize int
	// ACGMu is the stability threshold μ (Def 6.1).
	ACGMu float64
	// IncludeRelated expands keyword matches with FK–PK neighbors.
	IncludeRelated bool
	// SearchTechnique selects the underlying keyword-search technique:
	// "metadata" (default; the [7]-style approach driven by NebulaMeta) or
	// "symboltable" (a DBXplorer-style pre-built token index). The
	// technique is a black box to the rest of the pipeline, per §4.
	SearchTechnique string
	// SpamFraction, when positive, makes Discover/Process fail with a
	// spam-annotation error if an annotation's candidates exceed this
	// fraction of the database (see footnote 1 of the paper).
	SpamFraction float64
	// Budget bounds every discovery run (see Budget). Zero = unbounded,
	// the exact ungoverned pipeline.
	Budget Budget
	// Retry governs re-attempts of transient keyword-searcher errors with
	// capped exponential backoff. Zero = no retries.
	Retry RetryPolicy
	// SearcherFactory, when non-nil, overrides the keyword-search
	// technique: it receives the database to search (the full database,
	// or a spreading miniDB) and returns the technique to use. It takes
	// precedence over SearchTechnique. Deployments use it to wrap the
	// searcher with middleware — retry observers, fault injection,
	// instrumentation.
	SearcherFactory func(db *Database) KeywordSearcher
	// Parallelism sizes the worker pool used for keyword execution and for
	// the engine's batch APIs (DiscoverBatch/ProcessBatch). 0 selects
	// runtime.NumCPU(); 1 forces the exact sequential legacy path; n > 1
	// uses up to n workers. Whatever the value, results are byte-identical
	// to sequential execution — parallelism changes scheduling, never
	// output.
	Parallelism int
	// Cache governs the epoch-versioned discovery cache (see CacheConfig).
	// The zero value enables it with the default budget; caching never
	// changes results — only whether work is redone.
	Cache CacheConfig
	// Trace attaches a request-scoped span tree (internal/trace) to every
	// discovery/process run: per-stage monotonic timings and cost counters,
	// returned on Discovery.Trace. Observe-only — results are byte-identical
	// with tracing on or off, and when off the pipeline pays zero
	// allocations for the instrumentation points.
	Trace bool
	// TopK, when positive, truncates every discovery's candidates to the
	// strongest k attachments (applied before Budget.MaxCandidates). It is
	// a cut of the full ranking, not a pruning of the search: every
	// keyword query still executes, the k kept are exactly the first k of
	// the uncut run, and the cut never marks the run degraded.
	TopK int
	// Ingest configures the streaming proactive pipeline: the bounded
	// discovery job queue behind async submissions and change-driven
	// re-discovery (see IngestConfig). Disabled by default.
	Ingest IngestConfig
	// Shards partitions the engine's annotation-side synchronization domain
	// (locks, mutation epochs, cache-invalidation scopes) into N hash
	// shards keyed by annotation ID: single-annotation mutations take only
	// their home shard's lock and move only its epoch, so independent
	// writers stop contending and stop invalidating each other's cached
	// discoveries. 0 or 1 selects the single-shard legacy behavior.
	// Whatever the value, results are byte-identical to the single-shard
	// engine — sharding changes contention and cache residency, never
	// output.
	Shards int
	// Store configures the disk-backed substrate for the inverted text
	// index: immutable mmap'd segment files plus a small in-heap tail,
	// flushed at checkpoints and compacted in the background (see
	// StoreConfig). Zero value = pure in-heap index, exactly as before.
	Store StoreConfig
}

// Default store parameters (see StoreConfig).
const (
	// DefaultStoreMaxSegments is the compaction trigger when no explicit
	// bound is configured: once more segments than this exist, the oldest
	// are merged.
	DefaultStoreMaxSegments = 8
)

// StoreConfig configures the disk-backed inverted-index substrate. With a
// directory set, the symbol-table search technique serves bulk postings
// from immutable checksummed segment files (mmap'd, binary-searchable
// without deserialization) while a small in-heap tail absorbs changes
// since the last flush; checkpoints flush the tail to a new segment
// instead of re-gobbing the whole index, and restart maps the segments
// back in without rebuilding. Discovery output is byte-identical to heap
// mode — the tiered index re-verifies every posting against the live row.
type StoreConfig struct {
	// Dir is the segment directory; empty disables disk mode. Created if
	// missing. Must not be shared between engines.
	Dir string
	// MaxSegments bounds the live segment count: a flush that pushes the
	// count past it triggers an oldest-first background merge. 0 selects
	// DefaultStoreMaxSegments; negative is invalid.
	MaxSegments int
}

// Enabled reports whether disk mode is configured.
func (c StoreConfig) Enabled() bool { return c.Dir != "" }

// Validate checks store configuration consistency.
func (c StoreConfig) Validate() error {
	if c.MaxSegments < 0 {
		return fmt.Errorf("nebula: negative store segment bound %d", c.MaxSegments)
	}
	return nil
}

// maxSegments returns the effective compaction trigger.
func (c StoreConfig) maxSegments() int {
	if c.MaxSegments == 0 {
		return DefaultStoreMaxSegments
	}
	return c.MaxSegments
}

// Default ingest parameters (see IngestConfig).
const (
	// DefaultIngestQueueCap bounds the ingest queue when no explicit
	// capacity is configured.
	DefaultIngestQueueCap = 1024
	// DefaultIngestCDCHops is the default change-data-capture radius.
	DefaultIngestCDCHops = 1
)

// IngestConfig configures the streaming ingest subsystem: a bounded,
// prioritized queue of asynchronous discovery jobs plus change-data-capture
// that re-queues the attachments a tuple mutation can affect. Draining the
// queue produces exactly what synchronous Process calls over the same final
// state would (see Engine.DrainIngest).
type IngestConfig struct {
	// Enabled turns the subsystem on. Off, the engine behaves exactly as
	// before: no queue, no CDC, and the async entry points return
	// ErrIngestDisabled.
	Enabled bool
	// QueueCap bounds the number of queued jobs; a live enqueue beyond it
	// fails with ErrIngestQueueFull (the serving layer's 429 +
	// Retry-After). 0 selects DefaultIngestQueueCap; negative is invalid.
	QueueCap int
	// CDCHops is the K of the change-data-capture query: an insert, a
	// delete, or an update of a column a keyword query can read (the
	// primary key, an FK column, or a NebulaMeta target column) re-queues
	// the annotations attached within K ACG hops of the changed rows (plus,
	// for inserts, the rows the new row references by FK). An update of
	// any other column re-queues only the annotations attached to its own
	// row; under the symbol-table technique or a SearcherFactory every
	// update counts as readable. 0 selects DefaultIngestCDCHops; negative
	// is invalid.
	CDCHops int
}

// Validate checks ingest configuration consistency.
func (c IngestConfig) Validate() error {
	if c.QueueCap < 0 {
		return fmt.Errorf("nebula: negative ingest queue capacity %d", c.QueueCap)
	}
	if c.CDCHops < 0 {
		return fmt.Errorf("nebula: negative ingest CDC radius %d", c.CDCHops)
	}
	return nil
}

// queueCap returns the effective queue capacity.
func (c IngestConfig) queueCap() int {
	if c.QueueCap == 0 {
		return DefaultIngestQueueCap
	}
	return c.QueueCap
}

// cdcHops returns the effective CDC radius.
func (c IngestConfig) cdcHops() int {
	if c.CDCHops == 0 {
		return DefaultIngestCDCHops
	}
	return c.CDCHops
}

// Search technique names for Options.SearchTechnique.
const (
	// TechniqueMetadata is the default metadata approach.
	TechniqueMetadata = "metadata"
	// TechniqueSymbolTable is the pre-built-index approach.
	TechniqueSymbolTable = "symboltable"
)

// DefaultOptions returns the configuration used throughout the paper's
// headline experiments: ε = 0.6, α = 3, sharing and focal adjustment on,
// spreading off (full-database search), and the β bounds the BoundsSetting
// run of §8.2 converged to (0.32, 0.86).
func DefaultOptions() Options {
	return Options{
		Epsilon:           0.6,
		Alpha:             3,
		SharedExecution:   true,
		FocalAdjustment:   true,
		Spreading:         false,
		SpreadingK:        3,
		SpreadingCoverage: 0.9,
		RequireStableACG:  false,
		Bounds:            Bounds{Lower: 0.32, Upper: 0.86},
		ACGBatchSize:      100,
		ACGMu:             0.2,
	}
}

// Validate checks option consistency.
func (o Options) Validate() error {
	if o.Epsilon < 0 || o.Epsilon > 1 {
		return fmt.Errorf("nebula: epsilon %f outside [0,1]", o.Epsilon)
	}
	if o.Alpha < 1 {
		return fmt.Errorf("nebula: alpha %d < 1", o.Alpha)
	}
	if err := verification.Bounds(o.Bounds).Validate(); err != nil {
		return fmt.Errorf("nebula: %w", err)
	}
	if o.Spreading && o.SpreadingK < 0 {
		return fmt.Errorf("nebula: negative spreading radius")
	}
	if o.SpreadingCoverage < 0 || o.SpreadingCoverage > 1 {
		return fmt.Errorf("nebula: spreading coverage %f outside [0,1]", o.SpreadingCoverage)
	}
	switch o.SearchTechnique {
	case "", TechniqueMetadata, TechniqueSymbolTable:
	default:
		return fmt.Errorf("nebula: unknown search technique %q", o.SearchTechnique)
	}
	if o.SpamFraction < 0 || o.SpamFraction > 1 {
		return fmt.Errorf("nebula: spam fraction %f outside [0,1]", o.SpamFraction)
	}
	if err := o.Budget.Validate(); err != nil {
		return err
	}
	if o.Retry.MaxRetries < 0 {
		return fmt.Errorf("nebula: negative retry count %d", o.Retry.MaxRetries)
	}
	if o.Parallelism < 0 {
		return fmt.Errorf("nebula: negative parallelism %d", o.Parallelism)
	}
	if err := o.Cache.Validate(); err != nil {
		return err
	}
	if o.TopK < 0 {
		return fmt.Errorf("nebula: negative top-k %d", o.TopK)
	}
	if err := o.Ingest.Validate(); err != nil {
		return err
	}
	if o.Shards < 0 {
		return fmt.Errorf("nebula: negative shard count %d", o.Shards)
	}
	if o.Shards > 1024 {
		return fmt.Errorf("nebula: shard count %d exceeds 1024", o.Shards)
	}
	if err := o.Store.Validate(); err != nil {
		return err
	}
	return nil
}

// resolveWorkers maps an Options.Parallelism value to a concrete worker
// count: 0 means "one worker per CPU", anything else is taken literally.
func resolveWorkers(parallelism int) int {
	if parallelism == 0 {
		return runtime.NumCPU()
	}
	return parallelism
}
