package server

import (
	"io"
	"net/http"
	"time"
)

// ObservedRequest is one finished request as the counters see it.
type ObservedRequest struct {
	Endpoint string
	Code     int
	Elapsed  time.Duration
}

// RenderRequestMetrics folds a request sequence into a fresh registry and
// writes its exposition text: deterministic, because the durations are
// given and not measured.
func RenderRequestMetrics(w io.Writer, requests []ObservedRequest) {
	m := newMetrics()
	for _, r := range requests {
		m.observeRequest(r.Endpoint, r.Code, r.Elapsed)
	}
	m.render(w, 0, 0, false)
}

// HandleWork registers a work route that answers with whatever respond
// returns, so a test can make the response writer meet any value.
func (s *Server) HandleWork(pattern string, respond func() (code int, v any)) {
	s.work(pattern, func(w http.ResponseWriter, r *http.Request) {
		code, v := respond()
		s.writeJSON(w, code, v)
	})
}
