package keyword

import (
	"strconv"
	"strings"

	"nebula/internal/cache"
	"nebula/internal/relational"
)

// QueryCache memoizes the keyword layer's two recomputation hot spots
// across ExecuteBatchContext calls (the in-batch fingerprint dedup dies
// at batch end; this survives it):
//
//   - structured-query results: fingerprint → raw row set, keyed by the
//     queried table's epoch. Only the pre-join rows are cached — join
//     projection and FK–PK related expansion are recomputed per fold, so
//     a single table epoch suffices for coherence.
//   - mapper weights: keyword → []mappingOption, keyed by the database
//     epoch (value matches consult column domains).
//
// The cache is owned by the discovery layer's engine and shared across
// per-run keyword engines, but only attached when the search runs over
// the full database — a focal-spreading miniDB would poison keys.
type QueryCache struct {
	results  *cache.LRU[string, []*relational.Row]
	mappings *cache.LRU[string, []mappingOption]
}

// NewQueryCache builds a QueryCache bounded to approximately maxBytes,
// split 3:1 between result rows and mapper options (options are tiny).
func NewQueryCache(maxBytes int64) *QueryCache {
	if maxBytes < 4 {
		maxBytes = 4
	}
	quarter := maxBytes / 4
	return &QueryCache{
		results:  cache.New[[]*relational.Row](maxBytes - quarter),
		mappings: cache.New[[]mappingOption](quarter),
	}
}

// ResultStats reports the structured-query result cache counters.
func (c *QueryCache) ResultStats() cache.Stats {
	if c == nil {
		return cache.Stats{}
	}
	return c.results.Stats()
}

// MappingStats reports the mapper memoization counters.
func (c *QueryCache) MappingStats() cache.Stats {
	if c == nil {
		return cache.Stats{}
	}
	return c.mappings.Stats()
}

// SetMaxBytes resizes the cache budget with the same 3:1 split.
func (c *QueryCache) SetMaxBytes(maxBytes int64) {
	if c == nil {
		return
	}
	if maxBytes < 4 {
		maxBytes = 4
	}
	quarter := maxBytes / 4
	c.results.SetMaxBytes(maxBytes - quarter)
	c.mappings.SetMaxBytes(quarter)
}

// getResults returns the cached row set for q if present at the queried
// table's current epoch.
func (c *QueryCache) getResults(db *relational.Database, q relational.Query) ([]*relational.Row, bool) {
	t, ok := db.Table(q.Table)
	if !ok {
		return nil, false
	}
	return c.results.Get(q.Fingerprint(), t.Epoch())
}

// putResults stores the row set produced for q at the queried table's
// current epoch. The slice is clipped so callers appending to a cached
// result reallocate instead of corrupting the entry.
func (c *QueryCache) putResults(db *relational.Database, q relational.Query, rows []*relational.Row) {
	t, ok := db.Table(q.Table)
	if !ok {
		return
	}
	fp := q.Fingerprint()
	cost := int64(len(fp)) + 96 + 8*int64(len(rows))
	c.results.Put(fp, t.Epoch(), rows[:len(rows):len(rows)], cost)
}

// mappingKey fingerprints everything keywordOptions depends on besides
// the metadata itself: the keyword and the engine's mapping knobs.
func mappingKey(k Keyword, e *Engine) string {
	var b strings.Builder
	b.Grow(len(k.Text) + len(k.TargetTable) + len(k.TargetColumn) + 48)
	b.WriteString(k.Text)
	b.WriteByte(0)
	b.WriteString(strconv.Itoa(int(k.Role)))
	b.WriteByte(0)
	b.WriteString(k.TargetTable)
	b.WriteByte(0)
	b.WriteString(k.TargetColumn)
	b.WriteByte(0)
	b.WriteString(strconv.FormatFloat(k.Weight, 'g', -1, 64))
	b.WriteByte(0)
	b.WriteString(strconv.FormatFloat(e.MinMappingWeight, 'g', -1, 64))
	b.WriteByte(0)
	b.WriteString(strconv.Itoa(e.MaxMappingsPerKeyword))
	return b.String()
}

// getMappings returns the memoized interpretations of k at the current
// database epoch.
func (c *QueryCache) getMappings(e *Engine, k Keyword) ([]mappingOption, bool) {
	return c.mappings.Get(mappingKey(k, e), e.db.Epoch())
}

// putMappings memoizes the interpretations of k.
func (c *QueryCache) putMappings(e *Engine, k Keyword, opts []mappingOption) {
	key := mappingKey(k, e)
	cost := int64(len(key)) + 64 + 48*int64(len(opts))
	c.mappings.Put(key, e.db.Epoch(), opts[:len(opts):len(opts)], cost)
}
