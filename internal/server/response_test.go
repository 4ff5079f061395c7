package server_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nebula"
	"nebula/internal/raceflag"
	"nebula/internal/server"
	"nebula/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata with current output")

// golden compares got with testdata/name, or rewrites the file under -update.
func golden(t *testing.T, name string, got []byte) []byte {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestRequestMetricsGolden pins the exposition text of the request counters
// and the latency histograms: same series, same order, byte for byte. The
// golden file was written by the commit that still keyed the counters by a
// formatted "endpoint code" string; endpoints that are prefixes of one
// another and codes of every class are in the sequence because that string's
// sort order is what a struct key has to reproduce.
func TestRequestMetricsGolden(t *testing.T) {
	var seq []server.ObservedRequest
	for i, r := range []struct {
		endpoint string
		codes    []int
	}{
		{"/v1/discover", []int{200, 200, 404, 200, 422, 500}},
		{"/v1/discover/batch", []int{200, 400}},
		{"/v1/discover/naive", []int{200}},
		{"/v1/annotations", []int{201, 422, 201, 429}},
		{"/v1/annotations/async", []int{202, 429, 409}},
		{"/v1/ingest", []int{200}},
		{"/v1/ingest/flush", []int{200, 500}},
		{"/v1/pending", []int{200}},
		{"/v1/pending/{vid}/accept", []int{200, 404, 400}},
		{"/v1/pending/{vid}/reject", []int{200}},
		{"/v1/process", []int{200, 503, 499}},
		{"/v1/snapshot/save", []int{200}},
	} {
		for j, code := range r.codes {
			seq = append(seq, server.ObservedRequest{
				Endpoint: r.endpoint, Code: code,
				Elapsed: time.Duration(i*7+j*3+1) * 130 * time.Microsecond,
			})
		}
	}
	var got bytes.Buffer
	server.RenderRequestMetrics(&got, seq)
	if want := golden(t, "request_metrics.golden", got.Bytes()); !bytes.Equal(got.Bytes(), want) {
		t.Errorf("exposition text differs from testdata/request_metrics.golden:\n%s", got.Bytes())
	}
}

// volatile names the response fields whose value is a clock reading, a
// temporary path or a file size that follows one; they compare as present.
var volatile = map[string]bool{
	"waiting_ms": true, "oldest_wait_ms": true, "mean_freshness_ms": true,
	"path": true, "bytes": true,
	"verify_seconds": true, "decode_seconds": true, "build_seconds": true, "total_seconds": true,
	"start_ns": true, "duration_ns": true, "workers": true,
}

func scrub(v any) any {
	switch v := v.(type) {
	case map[string]any:
		for k, x := range v {
			if volatile[k] {
				v[k] = "volatile"
			} else {
				v[k] = scrub(x)
			}
		}
	case []any:
		for i, x := range v {
			v[i] = scrub(x)
		}
	}
	return v
}

// TestResponsesDecodeAsBefore drives every route through a fixed script and
// compares each decoded reply (status + value) with the one the parent of
// the compact-encoding change gave, kept in testdata/responses.golden.json:
// dropping the indentation may change the bytes and nothing else. It also
// holds every reply to the wire form: one line of JSON and a newline.
func TestResponsesDecodeAsBefore(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "state.snap")
	f := newFixture(t, func(_ *workload.Dataset, opts *nebula.Options, cfg *server.Config) {
		opts.Ingest.Enabled = true
		opts.Parallelism = 1
		cfg.SnapshotPath = snap
	})
	type exchange struct {
		Request string `json:"request"`
		Status  int    `json:"status"`
		Reply   any    `json:"reply"`
	}
	var got []exchange
	do := func(method, path string, body any) map[string]any {
		t.Helper()
		var status int
		var raw []byte
		if method == "GET" {
			status, raw = f.get(t, path)
		} else {
			status, raw = f.post(t, path, body)
		}
		if !bytes.HasSuffix(raw, []byte("\n")) || bytes.Count(raw, []byte("\n")) != 1 {
			t.Errorf("%s %s: reply is not one line and a newline: %q", method, path, raw)
		}
		var reply any
		if err := json.Unmarshal(raw, &reply); err != nil {
			t.Fatalf("%s %s: %v: %s", method, path, err, raw)
		}
		got = append(got, exchange{Request: method + " " + path, Status: status, Reply: scrub(reply)})
		m, _ := reply.(map[string]any)
		return m
	}

	spec := f.ds.Workload[0]
	attach := []string{spec.Focal(1)[0].String()}
	do("GET", "/healthz", nil)
	do("POST", "/v1/annotations", map[string]any{"id": "a1", "body": spec.Ann.Body, "attach_to": attach})
	do("POST", "/v1/annotations", map[string]any{"id": "a1", "body": spec.Ann.Body, "attach_to": attach})
	do("POST", "/v1/annotations", map[string]any{"id": "a2", "body": "x", "attach_to": []string{"nokey"}})
	do("POST", "/v1/annotations", map[string]any{"id": "a2", "unknown": 1})
	do("POST", "/v1/discover", map[string]any{"id": "a1"})
	do("POST", "/v1/discover", map[string]any{"id": "a1"})
	do("POST", "/v1/discover", map[string]any{"id": "a1", "options": map[string]any{"trace": true}})
	do("POST", "/v1/discover", map[string]any{"id": "a1", "options": map[string]any{"max_candidates": 1, "max_queries": 1}})
	do("POST", "/v1/discover", map[string]any{"id": "a1", "options": map[string]any{"topk": 2}})
	do("POST", "/v1/discover", map[string]any{"id": "nope"})
	do("POST", "/v1/discover", map[string]any{"id": "a1", "options": map[string]any{"cache": "sometimes"}})
	do("POST", "/v1/discover/naive", map[string]any{"id": "a1"})
	do("POST", "/v1/discover/batch", map[string]any{"ids": []string{"a1", "nope"}})
	do("POST", "/v1/discover/batch", map[string]any{"ids": []string{}})
	do("POST", "/v1/annotations/async", map[string]any{"id": "a3", "body": f.ds.Workload[1].Ann.Body, "attach_to": attach, "priority": 2})
	do("GET", "/v1/ingest", nil)
	do("POST", "/v1/ingest/flush", map[string]any{})
	// Process workload annotations until one leaves something pending.
	for i := range f.ds.Workload {
		id := fmt.Sprintf("p%d", i)
		w := f.ds.Workload[i]
		do("POST", "/v1/annotations", map[string]any{"id": id, "body": w.Ann.Body, "attach_to": []string{w.Focal(1)[0].String()}})
		outcome, _ := do("POST", "/v1/process", map[string]any{"id": id})["outcome"].(map[string]any)
		if pending, _ := outcome["pending"].([]any); len(pending) > 0 {
			vid := int64(pending[0].(map[string]any)["vid"].(float64))
			do("GET", "/v1/pending", nil)
			do("GET", "/v1/pending?order=priority", nil)
			do("POST", fmt.Sprintf("/v1/pending/%d/accept", vid), map[string]any{})
			do("POST", fmt.Sprintf("/v1/pending/%d/reject", vid), map[string]any{})
			break
		}
	}
	do("POST", "/v1/pending/x/accept", map[string]any{})
	do("POST", "/v1/snapshot/save", map[string]any{})
	do("POST", "/v1/snapshot/load", map[string]any{})
	do("POST", "/v1/snapshot/load", map[string]any{"path": "testdata/no-such-snapshot"})

	raw, err := json.MarshalIndent(got, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	var want, have any
	if err := json.Unmarshal(golden(t, "responses.golden.json", raw), &want); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &have); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(have, want) {
		t.Errorf("decoded replies differ from testdata/responses.golden.json; this run's:\n%s", raw)
	}
}

// TestUnencodableResponseIs500 makes a handler answer with a value
// encoding/json refuses. The client must see a whole 500 `internal` and
// nothing of the 200 the handler asked for; the failure is logged once and
// shows in the request counter.
func TestUnencodableResponseIs500(t *testing.T) {
	var logged atomic.Int32
	f := newFixture(t, func(_ *workload.Dataset, _ *nebula.Options, cfg *server.Config) {
		cfg.Logf = func(format string, _ ...any) {
			if strings.Contains(format, "encoding") {
				logged.Add(1)
			}
		}
	})
	f.srv.HandleWork("GET /test/nan", func() (int, any) {
		return http.StatusOK, map[string]any{"id": "a", "candidates": []map[string]any{{"confidence": math.NaN()}}}
	})
	rec := httptest.NewRecorder()
	f.srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/test/nan", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	want := `{"error":"response could not be encoded","reason":"internal"}` + "\n"
	if rec.Body.String() != want {
		t.Errorf("body %q, want exactly %q", rec.Body, want)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type %q", ct)
	}
	if n := logged.Load(); n != 1 {
		t.Errorf("encode failure logged %d times, want once", n)
	}
	if n := f.metric(t, `nebula_requests_total{endpoint="/test/nan",code="500"}`); n != 1 {
		t.Errorf("500 counted %v times, want 1", n)
	}
}

// TestCacheHitHandlerAllocations is the allocation budget of POST
// /v1/discover answered from the discovery cache, measured on the handler
// alone (one reused request, a fresh httptest.ResponseRecorder per call,
// whose own three allocations are in the count).
func TestCacheHitHandlerAllocations(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	f := newFixture(t, nil)
	id := f.addWorkloadAnnotation(t, 0)
	payload := fmt.Sprintf(`{"id":%q}`, id)
	body := strings.NewReader(payload)
	req := httptest.NewRequest("POST", "/v1/discover", nil)
	req.Body = io.NopCloser(body)
	h := f.srv.Handler()
	var reply struct {
		Candidates []struct{} `json:"candidates"`
		Stats      struct {
			CacheHits int `json:"cache_hits"`
		} `json:"stats"`
	}
	serve := func() *httptest.ResponseRecorder {
		body.Reset(payload)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	serve() // fills the cache
	if err := json.Unmarshal(serve().Body.Bytes(), &reply); err != nil || reply.Stats.CacheHits != 1 {
		t.Fatalf("second discover is not a cache hit: %+v (err %v)", reply, err)
	}
	// Measured 22 plus one "Table/Key" string per candidate on go1.24: six
	// in the request decoder, four in the engine, three in the recorder.
	// The two spare are for another toolchain's encoding/json, not for a
	// Sprintf: before the hit path was made format-free the count was 41.
	allocs := testing.AllocsPerRun(200, func() { serve() })
	if limit := float64(24 + len(reply.Candidates)); allocs > limit {
		t.Errorf("cache hit through the handler: %v allocations, want at most %v", allocs, limit)
	}
}
