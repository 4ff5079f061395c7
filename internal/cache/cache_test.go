package cache

import (
	"fmt"
	"sync"
	"testing"
)

func TestCacheHitMissCounters(t *testing.T) {
	c := New[string](1024)
	if _, ok := c.Get("a", 1); ok {
		t.Fatal("unexpected hit on empty cache")
	}
	c.Put("a", 1, "alpha", 10)
	v, ok := c.Get("a", 1)
	if !ok || v != "alpha" {
		t.Fatalf("want hit alpha, got %q ok=%v", v, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Bytes != 10 {
		t.Fatalf("unexpected stats: %+v", st)
	}
}

func TestCacheEpochInvalidation(t *testing.T) {
	c := New[int](1024)
	c.Put("k", 7, 42, 8)
	if _, ok := c.Get("k", 8); ok {
		t.Fatal("stale epoch must miss")
	}
	st := c.Stats()
	if st.Invalidations != 1 || st.Misses != 1 || st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("invalidation not accounted: %+v", st)
	}
	// The stale entry is gone even at the original epoch.
	if _, ok := c.Get("k", 7); ok {
		t.Fatal("invalidated entry must stay gone")
	}
}

func TestCacheLRUEvictionByBytes(t *testing.T) {
	c := New[int](30)
	c.Put("a", 1, 1, 10)
	c.Put("b", 1, 2, 10)
	c.Put("c", 1, 3, 10)
	c.Get("a", 1) // refresh a; b is now LRU
	c.Put("d", 1, 4, 10)
	if _, ok := c.Get("b", 1); ok {
		t.Fatal("b should have been evicted")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k, 1); !ok {
			t.Fatalf("%s should still be cached", k)
		}
	}
	if st := c.Stats(); st.Evictions != 1 || st.Bytes != 30 {
		t.Fatalf("unexpected eviction stats: %+v", st)
	}
}

func TestCacheOversizedEntryRejected(t *testing.T) {
	c := New[int](16)
	c.Put("big", 1, 1, 64)
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("oversized entry must not be stored: %+v", st)
	}
}

func TestCacheReplaceSameKey(t *testing.T) {
	c := New[int](100)
	c.Put("k", 1, 1, 10)
	c.Put("k", 2, 2, 20)
	v, ok := c.Get("k", 2)
	if !ok || v != 2 {
		t.Fatalf("want replaced value at new epoch, got %d ok=%v", v, ok)
	}
	if st := c.Stats(); st.Entries != 1 || st.Bytes != 20 {
		t.Fatalf("replace must not leak bytes: %+v", st)
	}
}

func TestCacheSetMaxBytesShrinkEvicts(t *testing.T) {
	c := New[int](100)
	for i := 0; i < 10; i++ {
		c.Put(fmt.Sprintf("k%d", i), 1, i, 10)
	}
	c.SetMaxBytes(25)
	st := c.Stats()
	if st.Bytes > 25 || st.Entries != 2 {
		t.Fatalf("shrink did not evict to budget: %+v", st)
	}
	// Most recently used survive.
	for _, k := range []string{"k8", "k9"} {
		if _, ok := c.Get(k, 1); !ok {
			t.Fatalf("%s should survive the shrink", k)
		}
	}
}

func TestCacheNilSafe(t *testing.T) {
	var c *LRU[string, int]
	if _, ok := c.Get("a", 1); ok {
		t.Fatal("nil cache must miss")
	}
	c.Put("a", 1, 1, 1)
	c.SetMaxBytes(10)
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("nil cache stats must be zero: %+v", st)
	}
	if c.Len() != 0 {
		t.Fatal("nil cache length must be zero")
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	c := New[int](1 << 16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", i%37)
				c.Put(key, uint64(i%3), i, 16)
				c.Get(key, uint64(i%3))
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Entries == 0 || st.Bytes == 0 {
		t.Fatalf("expected surviving entries: %+v", st)
	}
}

// TestCacheStructKey: a comparable struct is a key as it stands. Two keys
// hit the same entry exactly when Go's == holds between them, field by
// field, and eviction and invalidation find the entry under it again.
func TestCacheStructKey(t *testing.T) {
	type key struct {
		body string
		k    int
		on   bool
	}
	c := NewKeyed[key, string](64)
	c.Put(key{"a b", 1, true}, 1, "first", 16)
	c.Put(key{"a b", 2, true}, 1, "second", 16)
	c.Put(key{"a b", 1, false}, 1, "third", 16)
	if v, ok := c.Get(key{"a" + " b", 1, true}, 1); !ok || v != "first" {
		t.Fatalf("equal key built apart: got %q ok=%v, want first", v, ok)
	}
	if _, ok := c.Get(key{"a b", 3, true}, 1); ok {
		t.Fatal("a key differing in one field must miss")
	}
	if _, ok := c.Get(key{"a b", 2, true}, 2); ok {
		t.Fatal("stale epoch must miss")
	}
	c.SetMaxBytes(16)
	if st := c.Stats(); st.Entries != 1 || st.Bytes != 16 || st.Invalidations != 1 || st.Evictions != 1 {
		t.Fatalf("after invalidating one entry and evicting to one: %+v", st)
	}
	if v, ok := c.Get(key{"a b", 1, true}, 1); !ok || v != "first" {
		t.Fatalf("most recently used entry should survive: got %q ok=%v", v, ok)
	}
}
