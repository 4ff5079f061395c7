// Package server is nebulad's concurrent HTTP/JSON serving layer over one
// nebula.Engine. It owns the production concerns the library deliberately
// does not: admission control through a bounded work queue with typed
// 429/503 backpressure, global and per-connection in-flight limits,
// per-request panic isolation, live /healthz and /metrics endpoints, and a
// graceful drain that finishes accepted work and persists a checksummed
// snapshot before the process exits.
//
// Request lifecycle: every work endpoint passes through the admission gate
// (queue position → execution slot), then maps its JSON body onto the
// engine's serializable RequestOptions surface and calls the corresponding
// context-aware engine method. Discovery endpoints run under the engine's
// read lock, so the serving layer fans concurrent discoveries over one
// engine; mutating endpoints (process, verify/reject, annotation inserts)
// serialize on its write lock.
package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"log/slog"
	"math"
	"net/http"
	"os"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"nebula"
	"nebula/internal/meta"
)

// Config parameterizes a Server. The zero value of every field selects a
// sensible default (see the field comments).
type Config struct {
	// Engine is the annotation engine to serve. Required.
	Engine *nebula.Engine
	// MaxInFlight bounds the requests executing concurrently across all
	// connections. Default 8.
	MaxInFlight int
	// QueueDepth bounds the requests waiting for an execution slot; beyond
	// it new work is shed with 429. Default 64.
	QueueDepth int
	// MaxPerConn bounds one connection's queued+executing requests
	// (0 = no per-connection limit).
	MaxPerConn int
	// RequestTimeout caps one request's wall clock (0 = none). Individual
	// requests may still set tighter deadlines via options.deadline_ms.
	RequestTimeout time.Duration
	// SnapshotPath, when non-empty, is where the drain sequence persists
	// the engine state (checksummed, atomic) during Shutdown, and the
	// default path for POST /v1/snapshot/save.
	SnapshotPath string
	// ConfigureMeta rebuilds the NebulaMeta repository for a database
	// restored by POST /v1/snapshot/load. Defaults to an empty repository
	// with the built-in lexicon (matching nebulactl's snapshot command).
	ConfigureMeta func(*nebula.Database) (*nebula.MetaRepository, error)
	// Logf receives one line per lifecycle event (start, drain, snapshot).
	// Defaults to log.Printf; use a no-op in tests.
	Logf func(format string, args ...any)
	// Logger receives structured request logs: one Debug record per
	// completed request and a Warn record (with the request's span tree
	// inlined) for requests slower than SlowRequestThreshold. Defaults to
	// a text handler on stderr at Info level, so per-request Debug records
	// are free unless an operator opts into them.
	Logger *slog.Logger
	// SlowRequestThreshold turns on the slow-request log: discovery
	// endpoints force request-scoped tracing (observe-only — responses are
	// unchanged unless the client asked for the trace), and any request at
	// or over the threshold logs at Warn with its span tree. 0 disables.
	SlowRequestThreshold time.Duration
}

// Server is the HTTP serving layer. Create with New, expose via Handler,
// stop with Shutdown.
type Server struct {
	cfg       Config
	admission *admission
	metrics   *metrics
	mux       *http.ServeMux

	engMu  sync.RWMutex
	engine *nebula.Engine // swapped by POST /v1/snapshot/load
}

// New builds a Server over cfg.Engine.
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("server: nil engine")
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 8
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.ConfigureMeta == nil {
		cfg.ConfigureMeta = func(db *nebula.Database) (*nebula.MetaRepository, error) {
			return meta.NewRepository(db, nil), nil
		}
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	s := &Server{
		cfg:     cfg,
		engine:  cfg.Engine,
		metrics: newMetrics(),
	}
	s.admission = newAdmission(cfg.MaxInFlight, cfg.QueueDepth, cfg.MaxPerConn, s.metrics)
	s.mux = http.NewServeMux()
	s.routes()
	return s, nil
}

// Engine returns the currently served engine (it changes only when
// POST /v1/snapshot/load installs a restored one).
func (s *Server) Engine() *nebula.Engine {
	s.engMu.RLock()
	defer s.engMu.RUnlock()
	return s.engine
}

// setEngine installs a restored engine. Requests already executing keep the
// engine pointer they loaded — both stay valid; the swap only routes new
// work.
func (s *Server) setEngine(e *nebula.Engine) {
	s.engMu.Lock()
	defer s.engMu.Unlock()
	s.engine = e
}

// Handler returns the root handler, ready for http.Server or httptest.
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) routes() {
	// Liveness endpoints stay outside the admission gate: they must answer
	// while the queue is full and while the server drains.
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)

	s.work("POST /v1/annotations", s.handleAddAnnotation)
	s.work("POST /v1/annotations/async", s.handleAddAnnotationAsync)
	s.work("GET /v1/ingest", s.handleIngestStatus)
	s.work("POST /v1/ingest/flush", s.handleIngestFlush)
	s.work("POST /v1/discover", s.handleDiscover)
	s.work("POST /v1/discover/naive", s.handleNaiveDiscover)
	s.work("POST /v1/discover/batch", s.handleDiscoverBatch)
	s.work("POST /v1/process", s.handleProcess)
	s.work("GET /v1/pending", s.handlePending)
	s.work("POST /v1/pending/{vid}/accept", s.handleVerdict(true))
	s.work("POST /v1/pending/{vid}/reject", s.handleVerdict(false))
	s.work("POST /v1/snapshot/save", s.handleSnapshotSave)
	s.work("POST /v1/snapshot/load", s.handleSnapshotLoad)
}

// work registers a handler behind the admission gate, the panic barrier,
// and the request metrics. The endpoint label for metrics is the route
// pattern without the method, so path wildcards do not explode label
// cardinality.
func (s *Server) work(pattern string, h http.HandlerFunc) {
	endpoint := pattern
	if _, path, ok := cutMethod(pattern); ok {
		endpoint = path
	}
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := recorderPool.Get().(*statusRecorder)
		*rec = statusRecorder{ResponseWriter: w, code: http.StatusOK}
		defer func() {
			if p := recover(); p != nil {
				// One poisoned request must not take down the serving
				// process; surface it as a 500 on its own connection.
				s.metrics.observePanic()
				s.cfg.Logf("server: panic on %s: %v\n%s", endpoint, p, debug.Stack())
				if !rec.wrote {
					s.writeError(rec, http.StatusInternalServerError, "internal", "internal error")
				}
			}
			elapsed := time.Since(start)
			s.metrics.observeRequest(endpoint, rec.code, elapsed)
			s.logRequest(endpoint, r, rec, elapsed)
			*rec = statusRecorder{} // drop the writer and the trace
			recorderPool.Put(rec)
		}()

		ctx := r.Context()
		if s.cfg.RequestTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		connKey := r.RemoteAddr
		if err := s.admission.acquire(ctx, connKey); err != nil {
			s.reject(rec, err)
			return
		}
		defer s.admission.release(connKey)
		h(rec, r)
	})
}

// logRequest emits the structured request record: Debug for ordinary
// requests (invisible under the default Info handler), Warn — with the
// request's span tree inlined, when discovery captured one — for requests
// at or over the slow-request threshold.
func (s *Server) logRequest(endpoint string, r *http.Request, rec *statusRecorder, elapsed time.Duration) {
	slow := s.cfg.SlowRequestThreshold > 0 && elapsed >= s.cfg.SlowRequestThreshold
	if !slow && !s.cfg.Logger.Enabled(r.Context(), slog.LevelDebug) {
		return
	}
	attrs := []any{
		slog.String("method", r.Method),
		slog.String("endpoint", endpoint),
		slog.Int("status", rec.code),
		slog.Duration("elapsed", elapsed),
		slog.String("conn", r.RemoteAddr),
	}
	if !slow {
		s.cfg.Logger.Debug("request", attrs...)
		return
	}
	attrs = append(attrs, slog.Duration("threshold", s.cfg.SlowRequestThreshold))
	if rec.trace != nil {
		attrs = append(attrs, slog.String("trace", "\n"+rec.trace.String()))
	}
	s.cfg.Logger.Warn("slow request", attrs...)
}

// cutMethod splits "METHOD /path" route patterns.
func cutMethod(pattern string) (method, path string, ok bool) {
	for i := 0; i < len(pattern); i++ {
		if pattern[i] == ' ' {
			return pattern[:i], pattern[i+1:], true
		}
	}
	return "", pattern, false
}

// retryAfterSeconds derives the Retry-After header from live admission
// state instead of a constant: the current queue backlog times the recent
// mean request latency approximates when a slot will actually be free,
// clamped to [1, 30] seconds. With no latency history yet (cold server)
// the floor of 1 second applies — dishonest optimism only until the first
// requests complete.
func (s *Server) retryAfterSeconds() string {
	queued, _ := s.admission.state()
	mean := s.metrics.recentMeanLatency()
	est := int(math.Ceil(float64(queued+1) * mean))
	if est < 1 {
		est = 1
	}
	if est > 30 {
		est = 30
	}
	return strconv.Itoa(est)
}

// reject maps an admission error to its typed backpressure response.
func (s *Server) reject(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrDraining):
		s.metrics.observeRejection("draining")
		w.Header().Set("Retry-After", s.retryAfterSeconds())
		s.writeError(w, http.StatusServiceUnavailable, "draining", "server is draining; retry against another replica")
	case errors.Is(err, ErrQueueFull):
		s.metrics.observeRejection("queue_full")
		w.Header().Set("Retry-After", s.retryAfterSeconds())
		s.writeError(w, http.StatusTooManyRequests, "queue_full", "admission queue full; retry with backoff")
	case errors.Is(err, ErrConnLimit):
		s.metrics.observeRejection("conn_limit")
		w.Header().Set("Retry-After", s.retryAfterSeconds())
		s.writeError(w, http.StatusTooManyRequests, "conn_limit", "per-connection in-flight limit reached")
	default:
		// The client abandoned the request while queued; nobody is
		// listening, but complete the exchange for the access log.
		s.metrics.observeRejection("client_gone")
		s.writeError(w, 499, "client_gone", err.Error())
	}
}

// Shutdown drains the server gracefully: the admission gate flips (new work
// is refused with 503), accepted requests run to completion (bounded by
// ctx), and — when a snapshot path is configured — the engine state is
// persisted with the checksummed atomic writer. It returns the drain error
// or the snapshot error, if any; on drain timeout the snapshot is still
// attempted so a slow request cannot cost the state file.
func (s *Server) Shutdown(ctx context.Context) error {
	s.cfg.Logf("server: drain started")
	s.admission.startDrain()
	drainErr := s.admission.drain(ctx)
	if drainErr == nil {
		s.cfg.Logf("server: drain complete")
	} else {
		s.cfg.Logf("server: drain interrupted: %v", drainErr)
	}
	if eng := s.Engine(); eng.IngestEnabled() {
		// Flush queued discovery jobs before the final snapshot so accepted
		// async submissions leave as attachments, not as queue entries. The
		// WAL makes unflushed jobs crash-safe regardless; this is about not
		// handing the next boot a backlog. Bounded by the same ctx as the
		// drain — on timeout the remaining jobs stay queued (and durable).
		res, err := eng.FlushIngest(ctx)
		if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			s.cfg.Logf("server: ingest flush: %v", err)
		} else {
			s.cfg.Logf("server: ingest flushed (%d drained, %d requeued)", res.Drained, res.Requeued)
		}
	}
	if s.cfg.SnapshotPath != "" {
		if err := s.Engine().SaveSnapshotFile(s.cfg.SnapshotPath); err != nil {
			return fmt.Errorf("server: drain snapshot: %w", err)
		}
		s.cfg.Logf("server: snapshot written to %s", s.cfg.SnapshotPath)
	}
	return drainErr
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.admission.isDraining() }

// statusRecorder captures the response code for metrics, plus the request
// trace (stashed by the discovery handlers) for the slow-request log. One
// lives from a request's admission to its log line, then returns to the
// pool; no handler keeps its writer past its own return.
type statusRecorder struct {
	http.ResponseWriter
	code  int
	wrote bool
	trace *nebula.TraceNode
}

var recorderPool = sync.Pool{New: func() any { return new(statusRecorder) }}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.wrote = true
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	r.wrote = true
	return r.ResponseWriter.Write(b)
}
