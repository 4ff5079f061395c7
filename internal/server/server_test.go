package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"nebula"
	"nebula/internal/faultinject"
	"nebula/internal/keyword"
	"nebula/internal/server"
	"nebula/internal/workload"
)

// fixture is one serving stack under test: a tiny deterministic dataset,
// the engine over it, the server, and an httptest listener.
type fixture struct {
	ds  *workload.Dataset
	eng *nebula.Engine
	srv *server.Server
	ts  *httptest.Server
}

// newFixture builds the stack. mutate (optional) adjusts the engine options
// and server config before construction — tests use it to install fault
// injection and shrink the admission gate.
func newFixture(t testing.TB, mutate func(*workload.Dataset, *nebula.Options, *server.Config)) *fixture {
	t.Helper()
	ds, err := workload.Generate(workload.TinyConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	opts := nebula.DefaultOptions()
	cfg := server.Config{Logf: func(string, ...any) {}}
	if mutate != nil {
		mutate(ds, &opts, &cfg)
	}
	eng, err := nebula.NewWithState(ds.DB, ds.Meta, ds.Store, ds.Graph, opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Engine = eng
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return &fixture{ds: ds, eng: eng, srv: srv, ts: ts}
}

// latencyFactory wraps the default metadata searcher with an injected
// per-batch delay, making discovery wall-clock controllable from tests.
func latencyFactory(ds *workload.Dataset, d time.Duration) func(*nebula.Database) nebula.KeywordSearcher {
	return func(db *nebula.Database) nebula.KeywordSearcher {
		return faultinject.Wrap(keyword.NewEngine(db, ds.Meta), faultinject.Config{Latency: d})
	}
}

// addWorkloadAnnotation inserts workload spec i over the wire and returns
// its ID.
func (f *fixture) addWorkloadAnnotation(t testing.TB, i int) string {
	t.Helper()
	spec := f.ds.Workload[i]
	var focal []string
	for _, tid := range spec.Focal(1) {
		focal = append(focal, tid.String())
	}
	id := fmt.Sprintf("%s-t%d", spec.Ann.ID, i)
	status, body := f.post(t, "/v1/annotations", map[string]any{
		"id": id, "body": spec.Ann.Body, "attach_to": focal,
	})
	if status != http.StatusCreated {
		t.Fatalf("add annotation: status %d: %s", status, body)
	}
	return id
}

// post sends a JSON body and returns (status, responseBody).
func (f *fixture) post(t testing.TB, path string, body any) (int, []byte) {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	return f.postRaw(t, path, payload)
}

func (f *fixture) postRaw(t testing.TB, path string, payload []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(f.ts.URL+path, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, raw
}

func (f *fixture) get(t testing.TB, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(f.ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, raw
}

// metric scrapes /metrics and returns the value of the first sample line
// matching the pattern (a literal prefix), or -1 when absent.
func (f *fixture) metric(t testing.TB, prefix string) float64 {
	t.Helper()
	status, body := f.get(t, "/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics status %d", status)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, prefix) {
			fields := strings.Fields(line)
			v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
			if err != nil {
				t.Fatalf("metric line %q: %v", line, err)
			}
			return v
		}
	}
	return -1
}

func TestHealthz(t *testing.T) {
	f := newFixture(t, nil)
	status, body := f.get(t, "/healthz")
	if status != http.StatusOK {
		t.Fatalf("healthz status %d", status)
	}
	var health struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" {
		t.Errorf("status %q, want ok", health.Status)
	}
}

func TestDiscoverRoundTrip(t *testing.T) {
	f := newFixture(t, nil)
	id := f.addWorkloadAnnotation(t, 0)

	status, body := f.post(t, "/v1/discover", map[string]any{"id": id})
	if status != http.StatusOK {
		t.Fatalf("discover status %d: %s", status, body)
	}
	var resp struct {
		ID         string `json:"id"`
		Candidates []struct {
			Tuple      string  `json:"tuple"`
			Confidence float64 `json:"confidence"`
		} `json:"candidates"`
		Partial bool `json:"partial"`
		Stats   struct {
			Queries       int `json:"queries"`
			TuplesScanned int `json:"tuples_scanned"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ID != id || resp.Partial {
		t.Errorf("resp id=%q partial=%v, want id=%q partial=false", resp.ID, resp.Partial, id)
	}
	if resp.Stats.Queries == 0 {
		t.Error("no keyword queries generated")
	}
	for _, c := range resp.Candidates {
		if c.Confidence <= 0 || c.Confidence > 1 {
			t.Errorf("candidate %s confidence %v outside (0,1]", c.Tuple, c.Confidence)
		}
	}

	// The naive baseline must answer for the same annotation.
	status, body = f.post(t, "/v1/discover/naive", map[string]any{"id": id})
	if status != http.StatusOK {
		t.Fatalf("naive discover status %d: %s", status, body)
	}
}

func TestMalformedJSONRejected(t *testing.T) {
	f := newFixture(t, nil)
	for _, path := range []string{
		"/v1/annotations", "/v1/discover", "/v1/discover/naive",
		"/v1/discover/batch", "/v1/process", "/v1/snapshot/save", "/v1/snapshot/load",
	} {
		status, body := f.postRaw(t, path, []byte(`{"id": 'not json'`))
		if status != http.StatusBadRequest {
			t.Errorf("%s with malformed JSON: status %d (%s), want 400", path, status, body)
		}
		var errResp struct {
			Reason string `json:"reason"`
		}
		if err := json.Unmarshal(body, &errResp); err != nil || errResp.Reason != "bad_json" {
			t.Errorf("%s error body %s, want reason bad_json", path, body)
		}
	}
	// Unknown fields are rejected too — a misspelled option must not be
	// silently ignored.
	status, _ := f.post(t, "/v1/discover", map[string]any{"id": "x", "optionz": 1})
	if status != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400", status)
	}
}

func TestUnknownAnnotation404(t *testing.T) {
	f := newFixture(t, nil)
	status, body := f.post(t, "/v1/discover", map[string]any{"id": "no-such-annotation"})
	if status != http.StatusNotFound {
		t.Fatalf("status %d (%s), want 404", status, body)
	}
}

func TestInvalidRequestOptionsRejected(t *testing.T) {
	f := newFixture(t, nil)
	id := f.addWorkloadAnnotation(t, 0)
	status, body := f.post(t, "/v1/discover", map[string]any{
		"id": id, "options": map[string]any{"parallelism": -2},
	})
	if status != http.StatusBadRequest {
		t.Fatalf("negative parallelism: status %d (%s), want 400", status, body)
	}
	status, _ = f.post(t, "/v1/discover", map[string]any{
		"id": id, "options": map[string]any{"deadline_ms": -5},
	})
	if status != http.StatusBadRequest {
		t.Fatalf("negative deadline: status %d, want 400", status)
	}
	status, _ = f.post(t, "/v1/discover", map[string]any{
		"id": id, "options": map[string]any{"plan": "on"},
	})
	if status != http.StatusBadRequest {
		t.Fatalf("removed plan option: status %d, want 400", status)
	}
}

func TestBatchDiscoverMixedResults(t *testing.T) {
	f := newFixture(t, nil)
	id := f.addWorkloadAnnotation(t, 0)
	status, body := f.post(t, "/v1/discover/batch", map[string]any{
		"ids": []string{id, "missing-annotation"},
	})
	if status != http.StatusOK {
		t.Fatalf("batch status %d: %s", status, body)
	}
	var resp struct {
		Results []struct {
			ID    string `json:"id"`
			Error string `json:"error"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(resp.Results))
	}
	if resp.Results[0].Error != "" {
		t.Errorf("known annotation errored: %q", resp.Results[0].Error)
	}
	if resp.Results[1].Error != "unknown_annotation" {
		t.Errorf("unknown annotation error %q, want unknown_annotation", resp.Results[1].Error)
	}
}

func TestProcessPendingAndVerdicts(t *testing.T) {
	f := newFixture(t, nil)
	// Process every workload annotation until one yields pending tasks.
	for i := range f.ds.Workload {
		id := f.addWorkloadAnnotation(t, i)
		status, body := f.post(t, "/v1/process", map[string]any{"id": id})
		if status != http.StatusOK {
			t.Fatalf("process status %d: %s", status, body)
		}
		var resp struct {
			Outcome struct {
				Pending []struct {
					VID int64 `json:"vid"`
				} `json:"pending"`
			} `json:"outcome"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Outcome.Pending) == 0 {
			continue
		}

		status, body = f.get(t, "/v1/pending")
		if status != http.StatusOK {
			t.Fatalf("pending status %d", status)
		}
		var pending struct {
			Tasks []struct {
				VID   int64  `json:"vid"`
				Tuple string `json:"tuple"`
			} `json:"tasks"`
		}
		if err := json.Unmarshal(body, &pending); err != nil {
			t.Fatal(err)
		}
		if len(pending.Tasks) == 0 {
			t.Fatal("process reported pending tasks but /v1/pending is empty")
		}

		vid := pending.Tasks[0].VID
		status, body = f.post(t, fmt.Sprintf("/v1/pending/%d/accept", vid), map[string]any{})
		if status != http.StatusOK {
			t.Fatalf("accept status %d: %s", status, body)
		}
		// Accepting twice must 404: the task left the pending set.
		status, _ = f.post(t, fmt.Sprintf("/v1/pending/%d/accept", vid), map[string]any{})
		if status != http.StatusNotFound {
			t.Errorf("double accept status %d, want 404", status)
		}
		if len(pending.Tasks) > 1 {
			vid2 := pending.Tasks[1].VID
			status, _ = f.post(t, fmt.Sprintf("/v1/pending/%d/reject", vid2), map[string]any{})
			if status != http.StatusOK {
				t.Errorf("reject status %d, want 200", status)
			}
		}
		status, _ = f.post(t, "/v1/pending/999999/accept", map[string]any{})
		if status != http.StatusNotFound {
			t.Errorf("bogus vid status %d, want 404", status)
		}
		status, _ = f.post(t, "/v1/pending/not-a-vid/reject", map[string]any{})
		if status != http.StatusBadRequest {
			t.Errorf("non-integer vid status %d, want 400", status)
		}
		return
	}
	t.Skip("no workload annotation yielded pending tasks under default bounds")
}

// TestBudgetDeadlineDegradedRun drives a discovery into its deadline: the
// response must be HTTP 200 with the partial results clearly marked, and
// the run must surface in the budget-exceeded and degraded counters.
func TestBudgetDeadlineDegradedRun(t *testing.T) {
	f := newFixture(t, func(ds *workload.Dataset, opts *nebula.Options, cfg *server.Config) {
		opts.SearcherFactory = latencyFactory(ds, 150*time.Millisecond)
	})
	id := f.addWorkloadAnnotation(t, 0)

	status, body := f.post(t, "/v1/discover", map[string]any{
		"id": id, "options": map[string]any{"deadline_ms": 30},
	})
	if status != http.StatusOK {
		t.Fatalf("deadline run status %d (%s), want 200 with partial results", status, body)
	}
	var resp struct {
		Partial  bool     `json:"partial"`
		Error    string   `json:"error"`
		Degraded []string `json:"degraded"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Partial || resp.Error != "budget_exceeded" {
		t.Errorf("partial=%v error=%q, want partial=true error=budget_exceeded", resp.Partial, resp.Error)
	}
	if len(resp.Degraded) == 0 {
		t.Error("degraded reasons empty; the deadline interruption must be listed")
	}
	if n := f.metric(t, "nebula_runs_budget_exceeded_total"); n < 1 {
		t.Errorf("nebula_runs_budget_exceeded_total = %v, want >= 1", n)
	}
	if n := f.metric(t, "nebula_runs_degraded_total"); n < 1 {
		t.Errorf("nebula_runs_degraded_total = %v, want >= 1", n)
	}
}

// TestQueueFullSheds429 saturates a one-slot, one-queue-position server
// with slow discoveries and checks the overflow is shed with typed 429s.
func TestQueueFullSheds429(t *testing.T) {
	f := newFixture(t, func(ds *workload.Dataset, opts *nebula.Options, cfg *server.Config) {
		opts.SearcherFactory = latencyFactory(ds, 300*time.Millisecond)
		cfg.MaxInFlight = 1
		cfg.QueueDepth = 1
	})
	id := f.addWorkloadAnnotation(t, 0)

	const clients = 8
	statuses := make([]int, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			payload, _ := json.Marshal(map[string]any{"id": id})
			resp, err := http.Post(f.ts.URL+"/v1/discover", "application/json", bytes.NewReader(payload))
			if err != nil {
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			statuses[i] = resp.StatusCode
			if resp.StatusCode == http.StatusTooManyRequests && resp.Header.Get("Retry-After") == "" {
				t.Error("429 without Retry-After header")
			}
		}(i)
	}
	wg.Wait()

	var ok, shed int
	for _, s := range statuses {
		switch s {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
		}
	}
	if ok == 0 {
		t.Error("no request completed")
	}
	if shed == 0 {
		t.Errorf("no request shed with 429 (statuses %v); the bounded queue did not shed", statuses)
	}
	if n := f.metric(t, `nebula_rejected_total{reason="queue_full"}`); n < 1 {
		t.Errorf("queue_full rejection counter = %v, want >= 1", n)
	}
}

// TestRetryAfterScalesWithLoad checks the Retry-After header is derived
// from live admission state, not hardcoded: after slow requests establish a
// latency history, a shed client on a deep queue is told to wait roughly
// queue-backlog × mean-latency seconds (≥ 2 here), clamped at 30.
func TestRetryAfterScalesWithLoad(t *testing.T) {
	f := newFixture(t, func(ds *workload.Dataset, opts *nebula.Options, cfg *server.Config) {
		opts.SearcherFactory = latencyFactory(ds, 500*time.Millisecond)
		opts.Cache.Disabled = true // every discovery pays the injected latency
		cfg.MaxInFlight = 1
		cfg.QueueDepth = 8
	})
	id := f.addWorkloadAnnotation(t, 0)
	payload, _ := json.Marshal(map[string]any{"id": id})

	// Prime the latency ring with completed slow discoveries so the
	// estimator has history before the overload.
	for i := 0; i < 2; i++ {
		status, body := f.postRaw(t, "/v1/discover", payload)
		if status != http.StatusOK {
			t.Fatalf("priming discover: status %d: %s", status, body)
		}
	}

	// Saturate: 1 executing + 8 queued; the rest shed with 429. Each shed
	// response must carry a Retry-After that reflects the backlog.
	const clients = 16
	retryAfters := make([]string, clients)
	statuses := make([]int, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(f.ts.URL+"/v1/discover", "application/json", bytes.NewReader(payload))
			if err != nil {
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			statuses[i] = resp.StatusCode
			retryAfters[i] = resp.Header.Get("Retry-After")
		}(i)
	}
	wg.Wait()

	maxRetry := 0
	for i, s := range statuses {
		if s != http.StatusTooManyRequests {
			continue
		}
		sec, err := strconv.Atoi(retryAfters[i])
		if err != nil {
			t.Fatalf("429 Retry-After %q is not an integer: %v", retryAfters[i], err)
		}
		if sec < 1 || sec > 30 {
			t.Errorf("Retry-After = %d, want within [1, 30]", sec)
		}
		if sec > maxRetry {
			maxRetry = sec
		}
	}
	if maxRetry == 0 {
		t.Fatalf("no request shed with 429 (statuses %v)", statuses)
	}
	// With ~500ms mean latency and up to 8 queued, at least one shed
	// response must admit a wait of 2s or more — the old hardcoded "1"
	// fails this.
	if maxRetry < 2 {
		t.Errorf("max Retry-After = %d, want >= 2 (header does not scale with backlog)", maxRetry)
	}
}

// TestDiscoverTraceResponse checks the wire contract of request-scoped
// tracing: options.trace attaches a span tree to the response, its absence
// leaves the response without one, and the traced and untraced responses
// are otherwise byte-identical (tracing is observe-only).
func TestDiscoverTraceResponse(t *testing.T) {
	f := newFixture(t, func(ds *workload.Dataset, opts *nebula.Options, cfg *server.Config) {
		// Caching off so both requests run the full pipeline: a cache hit
		// would (correctly) short-circuit the second run — trace is
		// excluded from the cache key — and its stats would reflect no work.
		opts.Cache.Disabled = true
	})
	id := f.addWorkloadAnnotation(t, 0)

	status, plain := f.post(t, "/v1/discover", map[string]any{"id": id})
	if status != http.StatusOK {
		t.Fatalf("untraced discover: status %d: %s", status, plain)
	}
	status, traced := f.post(t, "/v1/discover", map[string]any{
		"id": id, "options": map[string]any{"trace": true},
	})
	if status != http.StatusOK {
		t.Fatalf("traced discover: status %d: %s", status, traced)
	}

	var plainResp, tracedResp map[string]json.RawMessage
	if err := json.Unmarshal(plain, &plainResp); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(traced, &tracedResp); err != nil {
		t.Fatal(err)
	}
	if _, ok := plainResp["trace"]; ok {
		t.Error("untraced response carries a trace object")
	}
	raw, ok := tracedResp["trace"]
	if !ok {
		t.Fatal("traced response has no trace object")
	}
	var root struct {
		Name       string            `json:"name"`
		DurationNS int64             `json:"duration_ns"`
		Children   []json.RawMessage `json:"children"`
	}
	if err := json.Unmarshal(raw, &root); err != nil {
		t.Fatalf("trace object does not decode: %v", err)
	}
	if root.Name != "discover" {
		t.Errorf("trace root = %q, want discover", root.Name)
	}
	if root.DurationNS <= 0 {
		t.Errorf("trace root duration = %d, want > 0", root.DurationNS)
	}
	if len(root.Children) == 0 {
		t.Error("trace root has no child spans; pipeline phases were not instrumented")
	}

	// Everything except the trace must be byte-identical.
	delete(tracedResp, "trace")
	for k, v := range plainResp {
		if got, ok := tracedResp[k]; !ok || !bytes.Equal(got, v) {
			t.Errorf("traced response field %q differs from untraced: %s vs %s", k, got, v)
		}
	}
	if len(tracedResp) != len(plainResp) {
		t.Errorf("traced response has %d fields, untraced %d", len(tracedResp)+1, len(plainResp))
	}
}

// TestSlowRequestLog checks the structured slow-request log: with a zero
// threshold nothing is logged at Warn; with a tiny threshold a discovery
// logs one Warn record with its span tree inlined, while the response stays
// free of the trace the server forced for its own logging.
func TestSlowRequestLog(t *testing.T) {
	var buf bytes.Buffer
	mu := &sync.Mutex{}
	locked := &lockedWriter{w: &buf, mu: mu}
	f := newFixture(t, func(ds *workload.Dataset, opts *nebula.Options, cfg *server.Config) {
		cfg.Logger = slog.New(slog.NewTextHandler(locked, nil))
		cfg.SlowRequestThreshold = time.Nanosecond // everything is slow
	})
	id := f.addWorkloadAnnotation(t, 0)
	status, body := f.post(t, "/v1/discover", map[string]any{"id": id})
	if status != http.StatusOK {
		t.Fatalf("discover: status %d: %s", status, body)
	}
	var resp map[string]json.RawMessage
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if _, ok := resp["trace"]; ok {
		t.Error("forced server-side tracing leaked into the response body")
	}
	mu.Lock()
	logged := buf.String()
	mu.Unlock()
	if !strings.Contains(logged, "slow request") {
		t.Fatalf("no slow-request record logged:\n%s", logged)
	}
	if !strings.Contains(logged, "endpoint=/v1/discover") {
		t.Errorf("slow-request record lacks endpoint attr:\n%s", logged)
	}
	if !strings.Contains(logged, "discover") || !strings.Contains(logged, "trace=") {
		t.Errorf("slow-request record lacks the inlined span tree:\n%s", logged)
	}
}

// lockedWriter serializes concurrent slog writes in tests.
type lockedWriter struct {
	w  io.Writer
	mu *sync.Mutex
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// TestMetricsCounters checks the acceptance-level /metrics contract:
// request counters and queue-depth gauges are non-zero after traffic, and
// the exposition parses as prometheus text lines.
func TestMetricsCounters(t *testing.T) {
	f := newFixture(t, nil)
	id := f.addWorkloadAnnotation(t, 0)
	for i := 0; i < 3; i++ {
		if status, body := f.post(t, "/v1/discover", map[string]any{"id": id}); status != http.StatusOK {
			t.Fatalf("discover status %d: %s", status, body)
		}
	}

	if n := f.metric(t, `nebula_requests_total{endpoint="/v1/discover",code="200"}`); n < 3 {
		t.Errorf("discover request counter = %v, want >= 3", n)
	}
	if n := f.metric(t, "nebula_queue_depth_peak"); n < 1 {
		t.Errorf("nebula_queue_depth_peak = %v, want >= 1 (every admission passes through the queue)", n)
	}
	if n := f.metric(t, "nebula_admitted_total"); n < 4 {
		t.Errorf("nebula_admitted_total = %v, want >= 4", n)
	}
	if n := f.metric(t, "nebula_exec_structured_queries_total"); n < 1 {
		t.Errorf("nebula_exec_structured_queries_total = %v, want >= 1", n)
	}
	if n := f.metric(t, `nebula_request_seconds_count{endpoint="/v1/discover"}`); n < 3 {
		t.Errorf("latency histogram count = %v, want >= 3", n)
	}

	// Every sample line must be "name{labels} value" or "name value".
	_, body := f.get(t, "/metrics")
	sample := regexp.MustCompile(`^[a-z_]+(\{[^}]*\})? -?[0-9.e+-]+$`)
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !sample.MatchString(line) {
			t.Errorf("unparseable metrics line: %q", line)
		}
	}
}

func TestSnapshotSaveLoadEndpoints(t *testing.T) {
	f := newFixture(t, nil)
	id := f.addWorkloadAnnotation(t, 0)
	path := filepath.Join(t.TempDir(), "state.snapshot")

	status, body := f.post(t, "/v1/snapshot/save", map[string]any{"path": path})
	if status != http.StatusOK {
		t.Fatalf("save status %d: %s", status, body)
	}
	var save struct {
		Annotations int   `json:"annotations"`
		Bytes       int64 `json:"bytes"`
	}
	if err := json.Unmarshal(body, &save); err != nil {
		t.Fatal(err)
	}
	if save.Annotations == 0 || save.Bytes == 0 {
		t.Errorf("save reported %d annotations, %d bytes; want both > 0", save.Annotations, save.Bytes)
	}

	if n := f.metric(t, "nebula_snapshot_restore_seconds{"); n != 0 {
		t.Errorf("restore seconds = %v before any load, want 0", n)
	}
	status, body = f.post(t, "/v1/snapshot/load", map[string]any{"path": path})
	if status != http.StatusOK {
		t.Fatalf("load status %d: %s", status, body)
	}
	// The response accounts the restore, and /metrics then reports the
	// same numbers.
	var load struct {
		Restore struct {
			Bytes        int64   `json:"bytes"`
			Sections     int     `json:"sections"`
			Rows         int     `json:"rows"`
			Workers      int     `json:"workers"`
			BuildSeconds float64 `json:"build_seconds"`
			TotalSeconds float64 `json:"total_seconds"`
		} `json:"restore"`
	}
	if err := json.Unmarshal(body, &load); err != nil {
		t.Fatal(err)
	}
	if r := load.Restore; r.Bytes != save.Bytes || r.Sections < 4 || r.Rows == 0 || r.Workers < 1 || r.BuildSeconds <= 0 || r.TotalSeconds < r.BuildSeconds {
		t.Errorf("load reported restore %+v for a %d-byte snapshot", r, save.Bytes)
	}
	if n := f.metric(t, "nebula_snapshot_restore_bytes"); n != float64(save.Bytes) {
		t.Errorf("nebula_snapshot_restore_bytes = %v, want %d", n, save.Bytes)
	}
	for _, stage := range []string{"verify", "decode", "build", "total"} {
		if n := f.metric(t, `nebula_snapshot_restore_seconds{stage="`+stage+`"}`); n <= 0 {
			t.Errorf("nebula_snapshot_restore_seconds{stage=%q} = %v after a load, want > 0", stage, n)
		}
	}
	if n := f.metric(t, `nebula_snapshot_restore_seconds{stage="total"}`); n != load.Restore.TotalSeconds {
		t.Errorf("metrics report a %vs restore, the load response %vs", n, load.Restore.TotalSeconds)
	}
	// The restored engine must still serve the annotation saved above.
	status, body = f.post(t, "/v1/discover", map[string]any{"id": id})
	if status != http.StatusOK {
		t.Fatalf("discover after load: status %d: %s", status, body)
	}
	if n := f.metric(t, "nebula_snapshot_saves_total"); n < 1 {
		t.Errorf("snapshot saves counter = %v, want >= 1", n)
	}
	if n := f.metric(t, "nebula_snapshot_loads_total"); n < 1 {
		t.Errorf("snapshot loads counter = %v, want >= 1", n)
	}

	// A corrupted snapshot must be refused with a typed 422, and must not
	// replace the serving engine.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	corrupt := filepath.Join(t.TempDir(), "corrupt.snapshot")
	if err := os.WriteFile(corrupt, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	status, body = f.post(t, "/v1/snapshot/load", map[string]any{"path": corrupt})
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("corrupt load status %d (%s), want 422", status, body)
	}
	if status, _ = f.post(t, "/v1/discover", map[string]any{"id": id}); status != http.StatusOK {
		t.Error("server stopped serving after refusing a corrupt snapshot")
	}

	status, _ = f.post(t, "/v1/snapshot/load", map[string]any{"path": filepath.Join(t.TempDir(), "missing")})
	if status != http.StatusNotFound {
		t.Errorf("missing snapshot load status %d, want 404", status)
	}
	status, _ = f.post(t, "/v1/snapshot/save", map[string]any{})
	if status != http.StatusBadRequest {
		t.Errorf("save with no path status %d, want 400 (no default configured)", status)
	}
}

// TestConcurrentDiscoverAndSnapshot exercises the engine's reader–writer
// contract through the serving layer: discoveries and snapshot saves run
// concurrently (both read-locked) while annotation inserts interleave
// (write-locked). Run under -race this is the concurrency acceptance test.
func TestConcurrentDiscoverAndSnapshot(t *testing.T) {
	f := newFixture(t, nil)
	ids := []string{
		f.addWorkloadAnnotation(t, 0),
		f.addWorkloadAnnotation(t, 1),
		f.addWorkloadAnnotation(t, 2),
	}
	dir := t.TempDir()

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				payload, _ := json.Marshal(map[string]any{"id": ids[(w+i)%len(ids)]})
				resp, err := http.Post(f.ts.URL+"/v1/discover", "application/json", bytes.NewReader(payload))
				if err != nil {
					errs <- err.Error()
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Sprintf("discover status %d", resp.StatusCode)
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			path := filepath.Join(dir, fmt.Sprintf("snap-%d", i))
			payload, _ := json.Marshal(map[string]any{"path": path})
			resp, err := http.Post(f.ts.URL+"/v1/snapshot/save", "application/json", bytes.NewReader(payload))
			if err != nil {
				errs <- err.Error()
				continue
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Sprintf("snapshot status %d", resp.StatusCode)
			}
		}
	}()
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
