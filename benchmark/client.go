package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"nebula"
	"nebula/internal/relational"
)

// pendingTask is a verification task one of this client's curate steps left
// pending, with the generator's ground truth for the verdict.
type pendingTask struct {
	vid     int64
	tuple   string
	related []nebula.TupleID
}

// client is one closed-loop caller: it sends its next scripted step only when
// the previous one has returned. Everything in it belongs to its goroutine.
// On curate_mixed client 0 is the curator, the only writer, and walks the
// scripted mix; the other client is the reader, which discovers one recently
// added annotation beside each of the curator's steps.
type client struct {
	r    *run
	id   int
	http *http.Client
	tr   *tracer // nil unless this window is traced

	pos        int // scripted steps taken so far, warm-up included, flushes not
	sinceFlush int // of them, since the curator's last flush
	fifo       []pendingTask
	asyncAt    []time.Time

	done      []sample  // successful steps only
	epoch     time.Time // the window's start
	calls     int64     // HTTP round trips
	respBytes int64
	roundtrip []float64 // ms of an HTTP call not spent inside the engine (traced)
	accepted  int64     // outcomes of this client's process calls
	routed    int64
	drained   int64   // jobs its flush steps popped
	drainMS   float64 // time its flush steps took
	freshMS   []float64
}

func (r *run) newClient(id int) *client {
	c := &client{r: r, id: id}
	if r.w.http {
		c.http = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	}
	return c
}

func (c *client) close() {
	if c.http != nil {
		c.http.CloseIdleConnections()
	}
}

// post sends one JSON request and reads the whole reply.
func (c *client) post(path string, body []byte) (int, []byte, error) {
	resp, err := c.http.Post(c.r.bed.srv.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	c.calls++
	c.respBytes += int64(len(reply))
	return resp.StatusCode, reply, err
}

// discoverReply is the part of a discover/process reply the harness reads.
type discoverReply struct {
	Outcome *struct {
		Accepted []taskReply `json:"accepted"`
		Pending  []taskReply `json:"pending"`
		Rejected []taskReply `json:"rejected"`
	} `json:"outcome"`
	Trace *nebula.TraceNode `json:"trace"`
}

type taskReply struct {
	VID   int64  `json:"vid"`
	Tuple string `json:"tuple"`
}

// discoverBody is the request body of the discover and process routes.
func (c *client) discoverBody(id nebula.AnnotationID) []byte {
	if c.tr != nil {
		return fmt.Appendf(nil, `{"id":%q,"options":{"trace":true}}`, id)
	}
	return fmt.Appendf(nil, `{"id":%q}`, id)
}

// call runs one HTTP exchange expecting status want, under a harness span
// when traced, and returns the decoded reply where the caller needs one.
func (c *client) call(op *opSpan, path string, body []byte, want int, into *discoverReply) bool {
	start := time.Now()
	status, reply, err := c.post(path, body)
	end := time.Now()
	ok := err == nil && status == want
	if c.tr != nil && into == nil {
		into = new(discoverReply) // a traced reply carries the engine's span tree
	}
	if ok && into != nil {
		ok = json.Unmarshal(reply, into) == nil
	}
	if c.tr != nil {
		c.tr.call(op, "call:POST "+path, start, end, into.Trace)
		if into.Trace != nil {
			c.roundtrip = append(c.roundtrip, float64(end.Sub(start).Nanoseconds()-into.Trace.DurationNS)/1e6)
		}
	}
	return ok
}

// read discovers one annotation through the workload's transport.
func (c *client) read(op *opSpan, id nebula.AnnotationID) bool {
	if c.http != nil {
		return c.call(op, "/v1/discover", c.discoverBody(id), http.StatusOK, nil)
	}
	start := time.Now()
	disc, err := c.r.bed.engine.DiscoverRequest(context.Background(), id, nebula.RequestOptions{Trace: c.tr != nil})
	if c.tr != nil && disc != nil {
		c.tr.call(op, "call:Engine.DiscoverRequest", start, time.Now(), disc.Trace)
	}
	return err == nil
}

// step takes the client's next scripted step and records its outcome.
func (c *client) step() {
	r := c.r
	kind, arg := opRead, int32(0)
	switch {
	case r.w.mixed && c.id == 0 && c.sinceFlush == flushEvery:
		// The curator flushes the ingest queue every few of its own steps:
		// count-driven, so the drains fall at the same script positions in
		// every run, never on a timer.
		kind, c.sinceFlush = opFlush, 0
	case r.w.mixed && c.id == 0:
		op := r.script.ops[c.pos%len(r.script.ops)]
		kind, arg = op.kind, op.arg
		c.sinceFlush++
	case r.w.mixed || r.w.hot:
		ranks := r.script.picks[c.id]
		arg = ranks[c.pos%len(ranks)]
	}
	if kind != opFlush {
		c.pos++
	}

	if r.w.mixed && c.id == 0 {
		select {
		case r.tick <- struct{}{}: // the reader reads beside this step
		default: // it is still waiting behind an earlier one
		}
	}
	start := time.Now()
	op := c.tr.begin(start)
	ok := false
	switch kind {
	case opRead:
		ok = c.read(op, c.target(arg))
	case opCurate:
		ok = c.curate(op, arg)
	case opVerdict:
		kind, ok = c.verdict(op)
	case opAsync:
		ok = c.async(op, arg)
	case opUpdate:
		ok = c.update(op, arg)
	case opFlush:
		ok = c.flush(op)
	}
	end := time.Now()
	c.tr.end(op, "op:"+opNames[kind], end)
	r.attempted.Add(1)
	if !ok {
		r.failed.Add(1)
		return
	}
	c.done = append(c.done, sample{kind: kind, at: end.Sub(c.epoch), ms: float64(end.Sub(start).Nanoseconds()) / 1e6})
}

// sample is one successful step: what it was, when it ended, counted from the
// window's start, and how long it took.
type sample struct {
	kind opKind
	at   time.Duration
	ms   float64
}

// swept reports that a sweeping client has read every publication once. It
// stops there, before the clock if need be: a second lap would find its
// keyword queries in the lower cache layers and run at twice the speed.
func (c *client) swept() bool {
	w := c.r.w
	return !w.hot && !w.mixed && c.pos >= len(c.r.script.sweep)
}

// flushEvery is how many scripted steps the curator takes between two flushes.
// Short, so that a window holds some twenty small drains and not five large
// ones: how many drains fall inside the window then moves ops_s little.
const flushEvery = 5

// target resolves a read step: the next unread base publication on a sweep,
// a Zipf rank into the hot set, or a Zipf rank into the most recently
// added annotations.
func (c *client) target(rank int32) nebula.AnnotationID {
	s := c.r.script
	switch {
	case c.r.w.mixed:
		return c.r.recentPick(int(rank))
	case c.r.w.hot:
		return s.sweep[rank]
	default:
		return s.sweep[c.pos-1]
	}
}

// fresh returns the client's next new annotation. IDs and bodies stay
// distinct even when the script wraps.
func (c *client) fresh(arg int32) noted {
	adds := c.r.script.adds
	n := adds[int(arg)%len(adds)]
	if lap := c.pos / len(c.r.script.ops); lap > 0 {
		n.id = nebula.AnnotationID(fmt.Sprintf("%s~%d", n.id, lap))
		n.body = fmt.Sprintf("%s lap %s", n.body, letters(lap))
	}
	return n
}

// remember appends to the annotations reads pick from; recentPick resolves a
// rank, 0 being the newest. The curator appends while the reader picks.
func (r *run) remember(id nebula.AnnotationID) {
	r.recentMu.Lock()
	defer r.recentMu.Unlock()
	r.recent = append(r.recent, id)
	if keep := r.sz.recent; len(r.recent) > 2*keep {
		r.recent = append(r.recent[:0], r.recent[len(r.recent)-keep:]...)
	}
}

func (r *run) recentPick(rank int) nebula.AnnotationID {
	r.recentMu.Lock()
	defer r.recentMu.Unlock()
	return r.recent[len(r.recent)-1-rank%len(r.recent)]
}

func annotationBody(n noted, extra string) []byte {
	return fmt.Appendf(nil, `{"id":%q,"author":"benchmark","body":%q,"kind":"note","attach_to":[%q]%s}`,
		n.id, n.body, n.related[0].String(), extra)
}

// curate is the workload's primary step: insert a new annotation with its
// one manual attachment, then process it (discover, route to verification).
// The pair is one sample.
func (c *client) curate(op *opSpan, arg int32) bool {
	r := c.r
	n := c.fresh(arg)
	r.userBytes.Add(int64(len(n.body)))
	if !c.call(op, "/v1/annotations", annotationBody(n, ""), http.StatusCreated, nil) {
		return false
	}
	var reply discoverReply
	if !c.call(op, "/v1/process", c.discoverBody(n.id), http.StatusOK, &reply) || reply.Outcome == nil {
		return false
	}
	r.remember(n.id)
	for _, t := range reply.Outcome.Pending {
		c.fifo = append(c.fifo, pendingTask{vid: t.VID, tuple: t.Tuple, related: n.related})
	}
	c.accepted += int64(len(reply.Outcome.Accepted))
	c.routed += int64(len(reply.Outcome.Accepted) + len(reply.Outcome.Pending) + len(reply.Outcome.Rejected))
	return true
}

// verdict resolves the curator's oldest pending task the way the ground truth
// says. With nothing to resolve (a flush has just cleared the work list) the
// step is spent on a read instead, and reported as one.
func (c *client) verdict(op *opSpan) (opKind, bool) {
	if len(c.fifo) == 0 {
		return opRead, c.read(op, c.target(0))
	}
	t := c.fifo[0]
	c.fifo = c.fifo[1:]
	verb := "reject"
	for _, rel := range t.related {
		if rel.String() == t.tuple {
			verb = "accept"
		}
	}
	return opVerdict, c.call(op, fmt.Sprintf("/v1/pending/%d/%s", t.vid, verb), []byte("{}"), http.StatusOK, nil)
}

// async submits an annotation to the ingest queue; its discovery runs at the
// next flush.
func (c *client) async(op *opSpan, arg int32) bool {
	r := c.r
	n := c.fresh(arg)
	r.userBytes.Add(int64(len(n.body)))
	if !c.call(op, "/v1/annotations/async", annotationBody(n, `,"priority":0`), http.StatusAccepted, nil) {
		return false
	}
	c.asyncAt = append(c.asyncAt, time.Now())
	r.remember(n.id)
	return true
}

// update rewrites one cell of a pool tuple. No HTTP route exists for raw
// relational mutations, so it calls the engine directly.
func (c *client) update(op *opSpan, arg int32) bool {
	r := c.r
	target := r.script.pool[int(arg)%len(r.script.pool)]
	cell := r.script.cells[c.pos%len(r.script.cells)]
	r.userBytes.Add(int64(len(cell)))
	r.updates.Add(1)
	start := time.Now()
	err := r.bed.engine.MutateDB(func(db *nebula.Database) error {
		return db.MustTable(target.Table).UpdateByKey(target.Key, "Seq", relational.String(cell))
	})
	c.tr.call(op, "call:Engine.MutateDB", start, time.Now(), nil)
	return err == nil
}

// flush drains the ingest queue. A drain re-discovers the annotations near
// updated tuples and supersedes their pending tasks, so the curator drops its
// work list, as a curation tool drops a stale one; the freshness of every
// queued submission is read off here.
func (c *client) flush(op *opSpan) bool {
	start := time.Now()
	var reply struct {
		Popped int64 `json:"popped"`
		Failed int64 `json:"failed"`
	}
	status, raw, err := c.post("/v1/ingest/flush", []byte("{}"))
	end := time.Now()
	c.tr.call(op, "call:POST /v1/ingest/flush", start, end, nil)
	if err != nil || status != http.StatusOK || json.Unmarshal(raw, &reply) != nil || reply.Failed != 0 {
		return false
	}
	c.drained += reply.Popped
	c.drainMS += float64(end.Sub(start).Nanoseconds()) / 1e6
	c.fifo = c.fifo[:0]
	for _, at := range c.asyncAt {
		c.freshMS = append(c.freshMS, float64(end.Sub(at).Nanoseconds())/1e6)
	}
	c.asyncAt = c.asyncAt[:0]
	return true
}
