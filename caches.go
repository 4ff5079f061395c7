package nebula

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"unicode"
	"unicode/utf8"

	"nebula/internal/cache"
	"nebula/internal/wal"
)

// CacheCounters re-exports one cache layer's counter snapshot.
type CacheCounters = cache.Stats

// CacheStats reports the engine's result cache: the whole-pipeline
// discovery cache, the one layer the engine keeps.
type CacheStats struct {
	// Enabled reports whether the engine was built with caching on.
	Enabled bool `json:"enabled"`
	// Scan, Query and Mapping named the relational scan memo, the keyword
	// structured-query cache and the mapper memo, which are gone. They
	// always read zero; they stay until the benchmark's
	// cache.lower_hit_share probe, which reads them, is dropped.
	Scan    CacheCounters `json:"scan"`
	Query   CacheCounters `json:"query"`
	Mapping CacheCounters `json:"mapping"`
	// Discovery is the whole-pipeline discovery cache.
	Discovery CacheCounters `json:"discovery"`
}

// Totals sums the layers; with one layer left it equals Discovery, and
// MaxBytes is the configured budget.
func (s CacheStats) Totals() CacheCounters {
	var t CacheCounters
	t.Add(s.Scan)
	t.Add(s.Query)
	t.Add(s.Mapping)
	t.Add(s.Discovery)
	return t
}

// CacheStats returns a snapshot of the engine's cache counters. Safe for
// concurrent use; the caches synchronize internally.
func (e *Engine) CacheStats() CacheStats {
	return CacheStats{Enabled: e.discCache != nil, Discovery: e.discCache.Stats()}
}

// SetCacheLimit resizes the discovery cache's byte budget, evicting as
// needed; the discovery cache is the one layer, so it gets all of
// maxBytes. It is the live-resize half of the sqlish `CACHE <bytes>`
// governor. On an engine built with caching disabled it returns an error
// rather than silently doing nothing.
func (e *Engine) SetCacheLimit(maxBytes int64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.setCacheLimit(maxBytes)
}

func (e *Engine) setCacheLimit(maxBytes int64) error {
	if maxBytes <= 0 {
		return fmt.Errorf("nebula: cache budget %d must be positive", maxBytes)
	}
	if e.discCache == nil {
		return fmt.Errorf("nebula: caching is disabled on this engine")
	}
	e.discCache.SetMaxBytes(maxBytes)
	e.opts.Cache.MaxBytes = maxBytes
	return nil
}

// graphDependent reports whether a discovery configured with opts reads
// shared annotation-side state (the ACG and hop profile) rather than only
// the database, the metadata repository, and the search index. Focal
// adjustment walks ACG path weights, spreading reads graph neighborhoods
// (and sizes K off the hop profile), and RequireStableACG consults the
// graph's stability tracker; everything else in the pipeline is a pure
// function of the database and the annotation's own body/focal.
func graphDependent(opts Options) bool {
	return opts.FocalAdjustment || opts.Spreading || opts.RequireStableACG
}

// cacheEpochFor combines the database's data epoch with a mutation epoch:
// any change that could alter a discovery's result moves it, invalidating
// cached discoveries. Graph-dependent runs read state any shard's mutation
// can move, so they live in the whole-engine epoch (the sum over shards —
// shard-count-invariant for sequential workloads). Annotation-local runs
// depend only on the database, the index, and their own shard's mutations,
// so they are stamped with the home shard's epoch alone: a write homed
// elsewhere leaves them live. Both components are monotone, so a matching
// epoch means nothing the result depends on has changed.
func (e *Engine) cacheEpochFor(home int, opts Options) uint64 {
	if graphDependent(opts) {
		return e.db.Epoch() + e.mu.EpochSum()
	}
	return e.db.Epoch() + e.mu.Epoch(home)
}

// invalidate is the one rule for which cached discoveries a logged write
// outdates; applyRecord runs it for every record it applies, live and
// replayed alike, so a replayed engine moves the epochs the live one did.
//
//	AddAnnotation, Submit, Verdict, IngestRetract   the annotation's home shard
//	DeleteTuple                                     every shard
//	InsertRow, UpdateRow, DeleteRow                 none: per-table epochs move
//	SetBounds                                       none: read after the run
//	IngestEnqueue, IngestDone                       none: the queue is no input
func (e *Engine) invalidate(rec *wal.Record) {
	switch rec.Op {
	case wal.OpAddAnnotation, wal.OpSubmit, wal.OpVerdict, wal.OpIngestRetract:
		e.bumpMutEpochFor(AnnotationID(rec.Ann))
	case wal.OpDeleteTuple:
		// A deleted tuple may have appeared in any annotation's discovery.
		e.bumpMutEpochAll()
	}
}

// bumpMutEpochFor records an annotation-side mutation attributable to one
// annotation (attachments, verification decisions, profile updates) on that
// annotation's home shard. Data-side mutations are tracked by the
// per-table epochs.
func (e *Engine) bumpMutEpochFor(id AnnotationID) {
	e.mu.Bump(e.mu.Home(string(id)))
}

// bumpMutEpochAll records a mutation whose effect is not confined to one
// annotation (tuple deletions, index refreshes): every shard's epoch moves,
// so every cached discovery dies.
func (e *Engine) bumpMutEpochAll() { e.mu.BumpAll() }

// discoveryKey is the discovery cache's key: everything a discovery run's
// clean result depends on besides engine state. It is compared with ==, so
// a hit is an exact match, never a fingerprint that happened not to
// collide. body is the annotation text, whitespace-normalized with word
// order preserved (signature-map generation is word-order- and
// context-sensitive through Alpha, so a token multiset would over-merge);
// focal is the focal set in canonical form; the option fields are the ones
// that shape the pipeline, floats by their bits so the key never holds a
// NaN that equals nothing. Parallelism, Deadline and Trace are left out:
// the first changes only scheduling, only clean (non-truncated) runs are
// ever cached, and tracing is observe-only — a traced and an untraced
// request for the same annotation share one cached answer
// (TestOptionsClassifiedForDiscoveryKey accounts for every other field).
type discoveryKey struct {
	body  string
	focal string
	// home is the home shard plus one for an annotation-local run, which
	// lives in that shard's epoch domain: the tag keeps its entry from ever
	// being probed under another shard's counter (two annotations can share
	// a body). Zero for a graph-dependent run, stamped with the epoch sum.
	home int

	epsilon, spreadingCoverage, spamFraction    uint64
	alpha, adjustmentHops, k, topK              int
	maxQueries, maxCandidates, maxSearchedRows  int
	sharedExecution, focalAdjustment, spreading bool
	requireStableACG, includeRelated            bool
	searchTechnique                             string
}

// newDiscoveryKey builds the key for one run; k is the resolved spreading
// radius and home the annotation's home shard. A body that is already
// normalized and the option fields go in as they are, so the one
// allocation is the focal string.
func newDiscoveryKey(body string, focal []TupleID, opts Options, k, home int) discoveryKey {
	key := discoveryKey{
		body:              normalizeBody(body),
		focal:             canonicalFocal(focal),
		epsilon:           floatBits(opts.Epsilon),
		spreadingCoverage: floatBits(opts.SpreadingCoverage),
		spamFraction:      floatBits(opts.SpamFraction),
		alpha:             opts.Alpha,
		adjustmentHops:    opts.AdjustmentHops,
		k:                 k,
		topK:              opts.TopK,
		maxQueries:        opts.Budget.MaxQueries,
		maxCandidates:     opts.Budget.MaxCandidates,
		maxSearchedRows:   opts.Budget.MaxSearchedRows,
		sharedExecution:   opts.SharedExecution,
		focalAdjustment:   opts.FocalAdjustment,
		spreading:         opts.Spreading,
		requireStableACG:  opts.RequireStableACG,
		includeRelated:    opts.IncludeRelated,
		searchTechnique:   opts.SearchTechnique,
	}
	if !graphDependent(opts) {
		key.home = home + 1
	}
	return key
}

// normalizeBody returns strings.Join(strings.Fields(body), " "), which for
// a body already in that form is the body itself: the check allocates
// nothing, and the key then holds the annotation's own string, not a copy.
func normalizeBody(body string) string {
	if bodyNormalized(body) {
		return body
	}
	return strings.Join(strings.Fields(body), " ")
}

// bodyNormalized reports whether body is words separated by single spaces:
// no leading, trailing or doubled space and no other whitespace character.
// A rune outside ASCII is whitespace exactly when unicode.IsSpace says so,
// which is strings.Fields' own rule; an invalid byte decodes to U+FFFD and
// is text.
func bodyNormalized(body string) bool {
	afterSpace := true // true at the start: a leading space is irregular
	for i := 0; i < len(body); i++ {
		c := body[i]
		switch {
		case ' ' < c && c < utf8.RuneSelf:
			afterSpace = false
		case c == ' ' && !afterSpace:
			afterSpace = true
		case c == ' ' || '\t' <= c && c <= '\r':
			return false
		case c < utf8.RuneSelf: // a control character Fields keeps
			afterSpace = false
		default:
			r, width := utf8.DecodeRuneInString(body[i:])
			if unicode.IsSpace(r) {
				return false
			}
			i += width - 1
			afterSpace = false
		}
	}
	return !afterSpace || body == ""
}

// canonicalFocal renders a focal set as its "Table/Key" references in
// sorted order, each followed by a 0x01 byte: equal for two sets exactly
// when their sorted renderings are. The caller's slice is left alone.
func canonicalFocal(focal []TupleID) string {
	if len(focal) == 0 {
		return ""
	}
	var buf [8]TupleID
	ids := append(buf[:0], focal...)
	slices.SortFunc(ids, compareTupleRefs)
	size := 0
	for _, id := range ids {
		size += len(id.Table) + len(id.Key) + 2
	}
	var b strings.Builder
	b.Grow(size)
	for _, id := range ids {
		b.WriteString(id.Table)
		b.WriteByte('/')
		b.WriteString(id.Key)
		b.WriteByte(1)
	}
	return b.String()
}

// compareTupleRefs orders two tuple IDs as their String() renderings sort,
// without building them.
func compareTupleRefs(a, b TupleID) int {
	if a.Table == b.Table {
		return strings.Compare(a.Key, b.Key)
	}
	la, lb := len(a.Table)+1+len(a.Key), len(b.Table)+1+len(b.Key)
	for i := 0; i < min(la, lb); i++ {
		if ca, cb := tupleRefByte(a, i), tupleRefByte(b, i); ca != cb {
			return cmp.Compare(ca, cb)
		}
	}
	return cmp.Compare(la, lb)
}

// tupleRefByte is id.String()[i].
func tupleRefByte(id TupleID, i int) byte {
	switch n := len(id.Table); {
	case i < n:
		return id.Table[i]
	case i == n:
		return '/'
	default:
		return id.Key[i-n-1]
	}
}

// floatBits is f's IEEE 754 bit pattern, with every NaN mapped to one.
func floatBits(f float64) uint64 {
	if f != f {
		return math.Float64bits(math.NaN())
	}
	return math.Float64bits(f)
}

// discoveryCost approximates the memory held by one cached discovery. The
// body counts in full although a normalized body is shared with the
// annotation store: the cache may be its last holder.
func discoveryCost(key discoveryKey, d *Discovery) int64 {
	cost := int64(len(key.body)+len(key.focal)) + 256
	cost += int64(len(d.Queries)) * 96
	for _, c := range d.Candidates {
		cost += 96
		for _, ev := range c.Evidence {
			cost += int64(len(ev)) + 16
		}
	}
	return cost
}
