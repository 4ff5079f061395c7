package server_test

import (
	"encoding/json"
	"net/http"
	"testing"

	"nebula"
	"nebula/internal/server"
	"nebula/internal/workload"
)

// TestMetricsCacheSeries checks the cache observability surface: the
// discovery cache's hit/miss/occupancy series on /metrics, the request-level cache bypass,
// and the per-response cache_hits stat.
func TestMetricsCacheSeries(t *testing.T) {
	f := newFixture(t, nil)
	id := f.addWorkloadAnnotation(t, 0)

	if v := f.metric(t, "nebula_cache_enabled"); v != 1 {
		t.Fatalf("nebula_cache_enabled = %v, want 1 under default options", v)
	}

	// Cold then warm: the second discover is a discovery-layer hit.
	for i := 0; i < 2; i++ {
		if status, body := f.post(t, "/v1/discover", map[string]any{"id": id}); status != http.StatusOK {
			t.Fatalf("discover %d status %d: %s", i, status, body)
		}
	}
	if v := f.metric(t, `nebula_cache_hits_total{layer="discovery"}`); v < 1 {
		t.Errorf(`nebula_cache_hits_total{layer="discovery"} = %v, want >= 1`, v)
	}
	if v := f.metric(t, `nebula_cache_misses_total{layer="discovery"}`); v < 1 {
		t.Errorf(`nebula_cache_misses_total{layer="discovery"} = %v, want >= 1`, v)
	}
	if v := f.metric(t, `nebula_cache_bytes{layer="discovery"}`); v <= 0 {
		t.Errorf(`nebula_cache_bytes{layer="discovery"} = %v, want > 0 after a stored run`, v)
	}
	if v := f.metric(t, "nebula_exec_cache_hits_total"); v < 1 {
		t.Errorf("nebula_exec_cache_hits_total = %v, want >= 1", v)
	}
	if v := f.metric(t, `nebula_cache_max_bytes{layer="discovery"}`); v != nebula.DefaultCacheBytes {
		t.Errorf(`nebula_cache_max_bytes{layer="discovery"} = %v, want the whole budget %d`, v, nebula.DefaultCacheBytes)
	}
	// The scan, query and mapping layers are gone, and so are their series.
	for _, layer := range []string{"scan", "query", "mapping"} {
		if v := f.metric(t, `nebula_cache_max_bytes{layer="`+layer+`"}`); v != -1 {
			t.Errorf("deleted layer %s still on /metrics (max_bytes = %v)", layer, v)
		}
	}

	// The warm response reports its hit; a cache:"off" request must not.
	status, body := f.post(t, "/v1/discover", map[string]any{"id": id})
	if status != http.StatusOK {
		t.Fatalf("warm discover status %d: %s", status, body)
	}
	var warm struct {
		Stats struct {
			CacheHits int `json:"cache_hits"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(body, &warm); err != nil {
		t.Fatal(err)
	}
	if warm.Stats.CacheHits == 0 {
		t.Error("warm discover response did not report cache_hits")
	}

	before := f.eng.CacheStats().Discovery.Hits
	status, body = f.post(t, "/v1/discover", map[string]any{
		"id": id, "options": map[string]any{"cache": "off"},
	})
	if status != http.StatusOK {
		t.Fatalf("cache-off discover status %d: %s", status, body)
	}
	if got := f.eng.CacheStats().Discovery.Hits; got != before {
		t.Errorf(`options.cache:"off" request hit the discovery cache (hits %d -> %d)`, before, got)
	}

	// A cache-disabled engine advertises that state on /metrics.
	off := newFixture(t, func(_ *workload.Dataset, o *nebula.Options, _ *server.Config) {
		o.Cache.Disabled = true
	})
	if v := off.metric(t, "nebula_cache_enabled"); v != 0 {
		t.Errorf("nebula_cache_enabled = %v on a cache-disabled engine, want 0", v)
	}
}
