package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"nebula"
	"nebula/internal/snapshot"
)

// ---- JSON wire types -------------------------------------------------------

type errorResponse struct {
	Error  string `json:"error"`
	Reason string `json:"reason"`
}

type annotationRequest struct {
	ID       string   `json:"id"`
	Author   string   `json:"author,omitempty"`
	Body     string   `json:"body"`
	Kind     string   `json:"kind,omitempty"`
	AttachTo []string `json:"attach_to"` // "Table/Key" tuple references
}

type discoverRequest struct {
	ID      string                `json:"id"`
	Options nebula.RequestOptions `json:"options"`
}

type batchRequest struct {
	IDs     []string              `json:"ids"`
	Process bool                  `json:"process,omitempty"`
	Options nebula.RequestOptions `json:"options"`
}

type verdictRequest struct{} // accept/reject carry the VID in the path

// asyncAnnotationRequest is annotationRequest plus a drain priority for the
// queued discovery job.
type asyncAnnotationRequest struct {
	ID       string   `json:"id"`
	Author   string   `json:"author,omitempty"`
	Body     string   `json:"body"`
	Kind     string   `json:"kind,omitempty"`
	AttachTo []string `json:"attach_to"`
	Priority int      `json:"priority,omitempty"`
}

type ingestJobJSON struct {
	Annotation string `json:"annotation"`
	Kind       string `json:"kind"`
	Priority   int    `json:"priority"`
	Seq        uint64 `json:"seq"`
	WaitingMS  int64  `json:"waiting_ms"`
}

type ingestStatusResponse struct {
	Stats nebula.IngestStats `json:"stats"`
	Jobs  []ingestJobJSON    `json:"jobs"`
	// Shards reports the engine's hash-partitioned synchronization domain:
	// how queued work and annotation state distribute across shards.
	Shards nebula.ShardStats `json:"shards"`
	// Segments reports the disk-backed index substrate (segment files,
	// flush/compaction counters, in-heap tail). Enabled false when the
	// engine runs the pure in-heap index.
	Segments nebula.StoreStats `json:"segments"`
}

type ingestFlushRequest struct {
	// Max bounds the jobs drained; 0 or absent flushes the whole queue.
	Max int `json:"max,omitempty"`
}

type ingestFlushResponse struct {
	Popped   int `json:"popped"`
	Drained  int `json:"drained"`
	Requeued int `json:"requeued"`
	Skipped  int `json:"skipped"`
	Failed   int `json:"failed"`
}

type snapshotRequest struct {
	Path string `json:"path,omitempty"`
}

type candidateJSON struct {
	Tuple      string   `json:"tuple"`
	Confidence float64  `json:"confidence"`
	Evidence   []string `json:"evidence,omitempty"`
}

type statsJSON struct {
	Queries           int  `json:"queries"`
	SearchedDB        int  `json:"searched_db"`
	MiniDBUsed        bool `json:"minidb_used,omitempty"`
	StructuredQueries int  `json:"structured_queries"`
	SharedQueries     int  `json:"shared_queries"`
	TuplesScanned     int  `json:"tuples_scanned"`
	Workers           int  `json:"workers,omitempty"`
	ParallelBatches   int  `json:"parallel_batches,omitempty"`
	Retries           int  `json:"retries,omitempty"`
	CacheHits         int  `json:"cache_hits,omitempty"`
}

type taskJSON struct {
	VID        int64    `json:"vid"`
	Annotation string   `json:"annotation"`
	Tuple      string   `json:"tuple"`
	Confidence float64  `json:"confidence"`
	Evidence   []string `json:"evidence,omitempty"`
}

type outcomeJSON struct {
	Accepted []taskJSON `json:"accepted"`
	Pending  []taskJSON `json:"pending"`
	Rejected []taskJSON `json:"rejected"`
}

// discoverResponse reports one run. Degraded lists every governance
// shortcut the run took; Partial+Error mark a run interrupted by its
// deadline or cancellation (the candidates are the partial prefix). A
// degraded or partial run is therefore always distinguishable from a clean
// success by the response body alone.
type discoverResponse struct {
	ID         string          `json:"id"`
	Candidates []candidateJSON `json:"candidates"`
	Degraded   []string        `json:"degraded,omitempty"`
	Partial    bool            `json:"partial,omitempty"`
	Error      string          `json:"error,omitempty"`
	Stats      statsJSON       `json:"stats"`
	Outcome    *outcomeJSON    `json:"outcome,omitempty"`
	// Trace is the request's span tree, present only when the client set
	// options.trace. Tracing is observe-only: the rest of the response is
	// byte-identical with and without it.
	Trace *nebula.TraceNode `json:"trace,omitempty"`
}

type batchResponse struct {
	Results []discoverResponse `json:"results"`
}

type pendingResponse struct {
	Tasks []taskJSON `json:"tasks"`
}

type snapshotResponse struct {
	Path        string `json:"path"`
	Bytes       int64  `json:"bytes,omitempty"`
	Annotations int    `json:"annotations,omitempty"`
	Tuples      int    `json:"tuples,omitempty"`
	// Restore accounts a load: bytes, sections, workers and the seconds
	// each stage took, the numbers /metrics then reports.
	Restore *nebula.RestoreStats `json:"restore,omitempty"`
}

type healthResponse struct {
	Status   string `json:"status"`
	Queued   int    `json:"queued"`
	InFlight int    `json:"inflight"`
}

// ---- helpers ---------------------------------------------------------------

// jsonContentType is the Content-Type header value of every JSON response.
// Responses share the one slice; net/http only reads it.
var jsonContentType = []string{"application/json"}

// responseEncoder is a response buffer with the JSON encoder that fills it.
type responseEncoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var encoderPool = sync.Pool{New: func() any {
	e := new(responseEncoder)
	e.enc = json.NewEncoder(&e.buf)
	return e
}}

// maxPooledResponse is the largest response buffer that goes back to the
// pool: one huge batch reply must not pin its buffer for good.
const maxPooledResponse = 64 << 10

// writeJSON encodes v as compact JSON (one line; `| jq .` for humans) into
// a pooled buffer and only then writes status and body, in one Write. A
// value encoding/json refuses (a NaN confidence, say) therefore reaches the
// client as a 500 `internal` with nothing sent before it, not as a 200 cut
// short; the request counter records the 500.
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	e := encoderPool.Get().(*responseEncoder)
	e.buf.Reset()
	if err := e.enc.Encode(v); err != nil {
		s.cfg.Logf("server: encoding a %T response: %v", v, err)
		e.buf.Reset()
		code = http.StatusInternalServerError
		// An errorResponse is two strings: this encode cannot fail.
		_ = e.enc.Encode(errorResponse{Error: "response could not be encoded", Reason: "internal"})
	}
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(code)
	_, _ = w.Write(e.buf.Bytes()) // a failed write means the client is gone
	if e.buf.Cap() <= maxPooledResponse {
		encoderPool.Put(e)
	}
}

func (s *Server) writeError(w http.ResponseWriter, code int, reason, msg string) {
	s.writeJSON(w, code, errorResponse{Error: msg, Reason: reason})
}

// decodeJSON parses a request body, answering 400 on malformed or
// unexpected input. It reports whether decoding succeeded.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad_json", fmt.Sprintf("malformed request body: %v", err))
		return false
	}
	return true
}

// parseTupleID parses the wire form "Table/Key" (the String() rendering of
// a TupleID; keys may themselves contain slashes).
func parseTupleID(s string) (nebula.TupleID, error) {
	table, key, ok := strings.Cut(s, "/")
	if !ok || table == "" || key == "" {
		return nebula.TupleID{}, fmt.Errorf("tuple reference %q is not Table/Key", s)
	}
	return nebula.TupleID{Table: table, Key: key}, nil
}

func candidatesJSON(cands []nebula.Candidate) []candidateJSON {
	out := make([]candidateJSON, len(cands))
	for i, c := range cands {
		out[i] = candidateJSON{
			Tuple:      c.Tuple.ID.String(),
			Confidence: c.Confidence,
			Evidence:   c.Evidence,
		}
	}
	return out
}

func tasksJSON(tasks []*nebula.VerificationTask) []taskJSON {
	out := make([]taskJSON, len(tasks))
	for i, t := range tasks {
		out[i] = taskJSON{
			VID:        t.VID,
			Annotation: string(t.Annotation),
			Tuple:      t.Tuple.String(),
			Confidence: t.Confidence,
			Evidence:   t.Evidence,
		}
	}
	return out
}

func outcomeToJSON(o nebula.VerificationOutcome) *outcomeJSON {
	return &outcomeJSON{
		Accepted: tasksJSON(o.Accepted),
		Pending:  tasksJSON(o.Pending),
		Rejected: tasksJSON(o.Rejected),
	}
}

// discoveryToJSON renders a (possibly partial) run. runErr is the typed
// pipeline error, nil for a clean run.
func discoveryToJSON(id string, disc *nebula.Discovery, runErr error) discoverResponse {
	resp := discoverResponse{ID: id, Candidates: []candidateJSON{}}
	if disc != nil {
		resp.Candidates = candidatesJSON(disc.Candidates)
		resp.Degraded = disc.Degraded()
		resp.Trace = disc.Trace
		resp.Stats = statsJSON{
			Queries:           len(disc.Queries),
			SearchedDB:        disc.ExecStats.SearchedDB,
			MiniDBUsed:        disc.ExecStats.MiniDBUsed,
			StructuredQueries: disc.ExecStats.Exec.StructuredQueries,
			SharedQueries:     disc.ExecStats.Exec.SharedQueries,
			TuplesScanned:     disc.ExecStats.Exec.TuplesScanned,
			Workers:           disc.ExecStats.Exec.Workers,
			ParallelBatches:   disc.ExecStats.Exec.ParallelBatches,
			Retries:           disc.ExecStats.Retries,
			CacheHits:         disc.ExecStats.Exec.CacheHits,
		}
	}
	switch {
	case runErr == nil:
	case errors.Is(runErr, nebula.ErrBudgetExceeded):
		resp.Partial = true
		resp.Error = "budget_exceeded"
	case errors.Is(runErr, nebula.ErrCancelled):
		resp.Partial = true
		resp.Error = "cancelled"
	case errors.Is(runErr, nebula.ErrSpamAnnotation):
		resp.Error = "spam_annotation"
	case errors.Is(runErr, nebula.ErrInternal):
		resp.Error = "internal"
	default:
		resp.Error = runErr.Error()
	}
	return resp
}

// classifyRun maps a pipeline error to the metrics outcome.
func classifyRun(err error) runOutcome {
	switch {
	case err == nil:
		return runOK
	case errors.Is(err, nebula.ErrBudgetExceeded):
		return runBudgetExceeded
	case errors.Is(err, nebula.ErrCancelled):
		return runCancelled
	case errors.Is(err, nebula.ErrInternal):
		return runInternalError
	default:
		return runOK
	}
}

// observeDiscovery folds one run into the metrics registry.
func (s *Server) observeDiscovery(disc *nebula.Discovery, err error) {
	if disc == nil {
		s.metrics.observeRun(nil, classifyRun(err), nebula.DiscoveryStats{}.Exec)
		return
	}
	s.metrics.observeRun(disc.Degraded(), classifyRun(err), disc.ExecStats.Exec)
}

// ---- handlers --------------------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	queued, inflight := s.admission.state()
	resp := healthResponse{Status: "ok", Queued: queued, InFlight: inflight}
	code := http.StatusOK
	if s.admission.isDraining() {
		// A draining replica must fail its health check so load balancers
		// stop routing to it, while /metrics stays scrapable.
		resp.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	s.writeJSON(w, code, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	queued, inflight := s.admission.state()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.render(w, queued, inflight, s.admission.isDraining())
	renderCacheMetrics(w, s.Engine().CacheStats())
	renderWALMetrics(w, s.Engine().WALStats(), snapshot.DirSyncFailures())
	renderRestoreMetrics(w, s.Engine().RestoreStats())
	renderIngestMetrics(w, s.Engine().IngestStats())
	renderShardMetrics(w, s.Engine().ShardStats())
	renderSegmentMetrics(w, s.Engine().StoreStats())
}

// handleAddAnnotation implements Stage 0 over the wire: insert an
// annotation with its true attachments.
func (s *Server) handleAddAnnotation(w http.ResponseWriter, r *http.Request) {
	var req annotationRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if req.ID == "" || req.Body == "" {
		s.writeError(w, http.StatusBadRequest, "bad_request", "id and body are required")
		return
	}
	attach := make([]nebula.TupleID, 0, len(req.AttachTo))
	for _, ref := range req.AttachTo {
		t, err := parseTupleID(ref)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "bad_tuple", err.Error())
			return
		}
		attach = append(attach, t)
	}
	err := s.Engine().AddAnnotation(&nebula.Annotation{
		ID:     nebula.AnnotationID(req.ID),
		Author: req.Author,
		Body:   req.Body,
		Kind:   req.Kind,
	}, attach)
	if err != nil {
		s.writeError(w, http.StatusUnprocessableEntity, "rejected", err.Error())
		return
	}
	s.writeJSON(w, http.StatusCreated, map[string]string{"id": req.ID})
}

// handleAddAnnotationAsync is the streaming submit path: the annotation and
// a queued discovery job become durable together, and discovery itself runs
// on a later drain. Accepted submissions answer 202 with the job's queue
// position; a full queue answers 429 with Retry-After — the ingest
// backpressure contract.
func (s *Server) handleAddAnnotationAsync(w http.ResponseWriter, r *http.Request) {
	var req asyncAnnotationRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if req.ID == "" || req.Body == "" {
		s.writeError(w, http.StatusBadRequest, "bad_request", "id and body are required")
		return
	}
	attach := make([]nebula.TupleID, 0, len(req.AttachTo))
	for _, ref := range req.AttachTo {
		t, err := parseTupleID(ref)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "bad_tuple", err.Error())
			return
		}
		attach = append(attach, t)
	}
	eng := s.Engine()
	adm, err := eng.AddAnnotationAsync(&nebula.Annotation{
		ID:     nebula.AnnotationID(req.ID),
		Author: req.Author,
		Body:   req.Body,
		Kind:   req.Kind,
	}, attach, req.Priority)
	switch {
	case err == nil:
		// Position and depth come from the admission itself, not a second
		// IngestStats read: between enqueue and a post-hoc read, concurrent
		// submissions or drains could have moved the queue, and the 202
		// would report a state this job was never actually in.
		s.writeJSON(w, http.StatusAccepted, map[string]any{
			"id":             req.ID,
			"seq":            adm.Seq,
			"priority":       adm.Priority,
			"queue_position": adm.Position,
			"queue_depth":    adm.Depth,
			"coalesced":      adm.Coalesced,
		})
	case errors.Is(err, nebula.ErrIngestQueueFull):
		s.metrics.observeRejection("ingest_queue_full")
		w.Header().Set("Retry-After", s.retryAfterSeconds())
		s.writeError(w, http.StatusTooManyRequests, "ingest_queue_full", err.Error())
	case errors.Is(err, nebula.ErrIngestDisabled):
		s.writeError(w, http.StatusConflict, "ingest_disabled", err.Error())
	default:
		s.writeError(w, http.StatusUnprocessableEntity, "rejected", err.Error())
	}
}

// handleIngestStatus reports the queue state and its lifetime counters.
func (s *Server) handleIngestStatus(w http.ResponseWriter, r *http.Request) {
	eng := s.Engine()
	resp := ingestStatusResponse{
		Stats:    eng.IngestStats(),
		Jobs:     []ingestJobJSON{},
		Shards:   eng.ShardStats(),
		Segments: eng.StoreStats(),
	}
	now := time.Now()
	for _, j := range eng.IngestJobs() {
		resp.Jobs = append(resp.Jobs, ingestJobJSON{
			Annotation: string(j.Annotation),
			Kind:       j.Kind.String(),
			Priority:   j.Priority,
			Seq:        j.Seq,
			WaitingMS:  now.Sub(j.EnqueuedAt).Milliseconds(),
		})
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// handleIngestFlush drains queued jobs synchronously — the operator's
// "make it fresh now" verb. Max bounds one batch; 0 flushes everything.
func (s *Server) handleIngestFlush(w http.ResponseWriter, r *http.Request) {
	var req ingestFlushRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	eng := s.Engine()
	var (
		res nebula.IngestDrainResult
		err error
	)
	if req.Max > 0 {
		res, err = eng.DrainIngest(r.Context(), req.Max)
	} else {
		res, err = eng.FlushIngest(r.Context())
	}
	switch {
	case err == nil:
	case errors.Is(err, nebula.ErrIngestDisabled):
		s.writeError(w, http.StatusConflict, "ingest_disabled", err.Error())
		return
	case errors.Is(err, nebula.ErrCancelled), errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// Interrupted flush: unprocessed jobs are back in the queue; report
		// what completed.
	default:
		s.writeError(w, http.StatusInternalServerError, "flush_failed", err.Error())
		return
	}
	s.writeJSON(w, http.StatusOK, ingestFlushResponse{
		Popped:   res.Popped,
		Drained:  res.Drained,
		Requeued: res.Requeued,
		Skipped:  res.Skipped,
		Failed:   res.Failed,
	})
}

// runDiscover is the shared core of the three single-annotation endpoints.
func (s *Server) runDiscover(w http.ResponseWriter, r *http.Request, kind string) {
	var req discoverRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if req.ID == "" {
		s.writeError(w, http.StatusBadRequest, "bad_request", "id is required")
		return
	}
	if err := req.Options.Validate(); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad_options", err.Error())
		return
	}
	eng := s.Engine()
	id := nebula.AnnotationID(req.ID)
	// When the slow-request log is armed, force tracing so a slow run's
	// span tree is available post hoc. Tracing is observe-only, so the
	// engine's answer is unchanged; clientTrace remembers whether the
	// trace may also appear in the response.
	clientTrace := req.Options.Trace
	if s.cfg.SlowRequestThreshold > 0 {
		req.Options.Trace = true
	}
	var (
		disc    *nebula.Discovery
		outcome nebula.VerificationOutcome
		err     error
	)
	switch kind {
	case "discover":
		disc, err = eng.DiscoverRequest(r.Context(), id, req.Options)
	case "naive":
		disc, err = eng.NaiveDiscoverRequest(r.Context(), id, req.Options)
	case "process":
		disc, outcome, err = eng.ProcessRequest(r.Context(), id, req.Options)
	}
	if disc != nil && disc.Trace != nil {
		if rec, ok := w.(*statusRecorder); ok {
			rec.trace = disc.Trace
		}
		if !clientTrace {
			disc.Trace = nil
		}
	}
	s.observeDiscovery(disc, err)
	switch {
	case err == nil:
		resp := discoveryToJSON(req.ID, disc, nil)
		if kind == "process" {
			resp.Outcome = outcomeToJSON(outcome)
		}
		s.writeJSON(w, http.StatusOK, resp)
	case errors.Is(err, nebula.ErrUnknownAnnotation):
		s.writeError(w, http.StatusNotFound, "unknown_annotation", err.Error())
	case errors.Is(err, nebula.ErrBudgetExceeded), errors.Is(err, nebula.ErrCancelled):
		// Governed interruption is not a server failure: the partial
		// results ship with HTTP 200 and the body says why they are
		// partial, mirroring the CLI's degraded-run reporting.
		s.writeJSON(w, http.StatusOK, discoveryToJSON(req.ID, disc, err))
	case errors.Is(err, nebula.ErrSpamAnnotation):
		s.writeJSON(w, http.StatusUnprocessableEntity, discoveryToJSON(req.ID, disc, err))
	default:
		s.writeError(w, http.StatusInternalServerError, "internal", err.Error())
	}
}

func (s *Server) handleDiscover(w http.ResponseWriter, r *http.Request) {
	s.runDiscover(w, r, "discover")
}

func (s *Server) handleNaiveDiscover(w http.ResponseWriter, r *http.Request) {
	s.runDiscover(w, r, "naive")
}

func (s *Server) handleProcess(w http.ResponseWriter, r *http.Request) {
	s.runDiscover(w, r, "process")
}

func (s *Server) handleDiscoverBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if len(req.IDs) == 0 {
		s.writeError(w, http.StatusBadRequest, "bad_request", "ids is required")
		return
	}
	if err := req.Options.Validate(); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad_options", err.Error())
		return
	}
	ids := make([]nebula.AnnotationID, len(req.IDs))
	for i, id := range req.IDs {
		ids[i] = nebula.AnnotationID(id)
	}
	eng := s.Engine()
	var results []nebula.BatchResult
	if req.Process {
		results = eng.ProcessBatchRequest(r.Context(), ids, req.Options)
	} else {
		results = eng.DiscoverBatchRequest(r.Context(), ids, req.Options)
	}
	resp := batchResponse{Results: make([]discoverResponse, len(results))}
	for i, res := range results {
		s.observeDiscovery(res.Discovery, res.Err)
		one := discoveryToJSON(string(res.ID), res.Discovery, res.Err)
		if errors.Is(res.Err, nebula.ErrUnknownAnnotation) {
			one.Error = "unknown_annotation"
		}
		if req.Process && res.Err == nil {
			one.Outcome = outcomeToJSON(res.Outcome)
		}
		resp.Results[i] = one
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handlePending(w http.ResponseWriter, r *http.Request) {
	eng := s.Engine()
	var tasks []*nebula.VerificationTask
	if r.URL.Query().Get("order") == "priority" {
		tasks = eng.PendingTasksByPriority()
	} else {
		tasks = eng.PendingTasks()
	}
	s.writeJSON(w, http.StatusOK, pendingResponse{Tasks: tasksJSON(tasks)})
}

// handleVerdict resolves one pending verification task — the wire form of
// the extended SQL `Verify/Reject Attachement <vid>` commands.
func (s *Server) handleVerdict(accept bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		vid, err := strconv.ParseInt(r.PathValue("vid"), 10, 64)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "bad_vid", fmt.Sprintf("vid %q is not an integer", r.PathValue("vid")))
			return
		}
		eng := s.Engine()
		if accept {
			err = eng.VerifyAttachment(vid)
		} else {
			err = eng.RejectAttachment(vid)
		}
		if err != nil {
			s.writeError(w, http.StatusNotFound, "unknown_task", err.Error())
			return
		}
		verdict := "rejected"
		if accept {
			verdict = "accepted"
		}
		s.writeJSON(w, http.StatusOK, map[string]any{"vid": vid, "verdict": verdict})
	}
}

func (s *Server) handleSnapshotSave(w http.ResponseWriter, r *http.Request) {
	var req snapshotRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	path := req.Path
	if path == "" {
		path = s.cfg.SnapshotPath
	}
	if path == "" {
		s.writeError(w, http.StatusBadRequest, "no_path", "no snapshot path given or configured")
		return
	}
	eng := s.Engine()
	if err := eng.SaveSnapshotFile(path); err != nil {
		s.writeError(w, http.StatusInternalServerError, "snapshot_failed", err.Error())
		return
	}
	s.metrics.observeSnapshot(false)
	resp := snapshotResponse{
		Path:        path,
		Annotations: eng.Store().Len(),
		Tuples:      eng.DB().TotalRows(),
	}
	if info, err := os.Stat(path); err == nil {
		resp.Bytes = info.Size()
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSnapshotLoad(w http.ResponseWriter, r *http.Request) {
	var req snapshotRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	path := req.Path
	if path == "" {
		path = s.cfg.SnapshotPath
	}
	if path == "" {
		s.writeError(w, http.StatusBadRequest, "no_path", "no snapshot path given or configured")
		return
	}
	f, err := os.Open(path)
	if err != nil {
		s.writeError(w, http.StatusNotFound, "no_snapshot", err.Error())
		return
	}
	defer f.Close()
	restored, err := nebula.RestoreEngine(f, s.cfg.ConfigureMeta, s.Engine().Options())
	if err != nil {
		if errors.Is(err, nebula.ErrSnapshotCorrupt) {
			s.writeError(w, http.StatusUnprocessableEntity, "snapshot_corrupt", err.Error())
			return
		}
		s.writeError(w, http.StatusInternalServerError, "restore_failed", err.Error())
		return
	}
	s.setEngine(restored)
	s.metrics.observeSnapshot(true)
	stats := restored.RestoreStats()
	s.writeJSON(w, http.StatusOK, snapshotResponse{
		Path:        path,
		Annotations: restored.Store().Len(),
		Tuples:      restored.DB().TotalRows(),
		Restore:     &stats,
	})
}
