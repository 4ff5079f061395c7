// Package cache provides a small, concurrency-safe, byte-bounded LRU
// used by Nebula's three result-cache layers (relational scan cache,
// keyword structured-query cache, engine discovery cache).
//
// Every entry carries the epoch of the data it was computed from. A Get
// whose epoch no longer matches the stored one counts as an
// invalidation: the stale entry is dropped and the lookup reports a
// miss. Epochs are maintained by the callers (per-table mutation
// counters in internal/relational plus an engine-level annotation
// mutation counter), so the cache itself never needs to understand what
// was mutated — any mutation that could change a cached result must
// advance the epoch its key is checked against.
package cache

import (
	"container/list"
	"sync"
)

// Stats is a point-in-time snapshot of one cache's counters. Counter
// fields are cumulative since construction; Entries/Bytes reflect
// current occupancy.
type Stats struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Evictions     int64 `json:"evictions"`
	Invalidations int64 `json:"invalidations"`
	Entries       int   `json:"entries"`
	Bytes         int64 `json:"bytes"`
	MaxBytes      int64 `json:"max_bytes"`
}

// Add accumulates another snapshot into s (occupancy sums too, which is
// what the aggregate reports want).
func (s *Stats) Add(o Stats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.Invalidations += o.Invalidations
	s.Entries += o.Entries
	s.Bytes += o.Bytes
	s.MaxBytes += o.MaxBytes
}

type entry[K comparable, V any] struct {
	key   K
	epoch uint64
	value V
	cost  int64
}

// LRU is a mutex-guarded least-recently-used cache bounded by an
// approximate byte budget. Keys are compared with Go's ==, so a hit never
// rests on a fingerprint not colliding: the scan and query layers key by
// string, the discovery layer by a struct. The zero value is not usable;
// construct with New or NewKeyed. A nil *LRU is safe to use: Get always
// misses (without counting), Put is a no-op, and Stats returns zeros —
// callers representing "caching disabled" as a nil cache need no branches.
type LRU[K comparable, V any] struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	ll       *list.List // front = most recently used
	index    map[K]*list.Element

	hits          int64
	misses        int64
	evictions     int64
	invalidations int64
}

// New returns a string-keyed LRU bounded to approximately maxBytes of
// cached value cost (as reported by callers on Put). maxBytes must be
// positive.
func New[V any](maxBytes int64) *LRU[string, V] {
	return NewKeyed[string, V](maxBytes)
}

// NewKeyed is New for any comparable key type.
func NewKeyed[K comparable, V any](maxBytes int64) *LRU[K, V] {
	if maxBytes <= 0 {
		maxBytes = 1
	}
	return &LRU[K, V]{
		maxBytes: maxBytes,
		ll:       list.New(),
		index:    make(map[K]*list.Element),
	}
}

// Get returns the value stored under key if its epoch matches. An entry
// stored under a different epoch is stale: it is removed, counted as an
// invalidation, and the lookup reports a miss.
func (c *LRU[K, V]) Get(key K, epoch uint64) (V, bool) {
	var zero V
	if c == nil {
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.index[key]
	if !ok {
		c.misses++
		return zero, false
	}
	ent := el.Value.(*entry[K, V])
	if ent.epoch != epoch {
		c.removeLocked(el)
		c.invalidations++
		c.misses++
		return zero, false
	}
	c.ll.MoveToFront(el)
	c.hits++
	return ent.value, true
}

// Put stores value under key at the given epoch, evicting
// least-recently-used entries until the byte budget holds. An entry
// whose cost alone exceeds the budget is not stored. Storing an
// existing key replaces it.
func (c *LRU[K, V]) Put(key K, epoch uint64, value V, cost int64) {
	if c == nil {
		return
	}
	if cost < 1 {
		cost = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if cost > c.maxBytes {
		return
	}
	if el, ok := c.index[key]; ok {
		c.removeLocked(el)
	}
	el := c.ll.PushFront(&entry[K, V]{key: key, epoch: epoch, value: value, cost: cost})
	c.index[key] = el
	c.bytes += cost
	c.evictLocked()
}

// SetMaxBytes adjusts the byte budget, evicting LRU entries if the new
// budget is smaller than current occupancy. Budgets below 1 clamp to 1.
func (c *LRU[K, V]) SetMaxBytes(maxBytes int64) {
	if c == nil {
		return
	}
	if maxBytes <= 0 {
		maxBytes = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.maxBytes = maxBytes
	c.evictLocked()
}

// Stats returns a snapshot of the cache counters and occupancy.
func (c *LRU[K, V]) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:          c.hits,
		Misses:        c.misses,
		Evictions:     c.evictions,
		Invalidations: c.invalidations,
		Entries:       c.ll.Len(),
		Bytes:         c.bytes,
		MaxBytes:      c.maxBytes,
	}
}

// Len returns the current number of entries.
func (c *LRU[K, V]) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

func (c *LRU[K, V]) evictLocked() {
	for c.bytes > c.maxBytes {
		el := c.ll.Back()
		if el == nil {
			return
		}
		c.removeLocked(el)
		c.evictions++
	}
}

func (c *LRU[K, V]) removeLocked(el *list.Element) {
	ent := el.Value.(*entry[K, V])
	c.ll.Remove(el)
	delete(c.index, ent.key)
	c.bytes -= ent.cost
}
