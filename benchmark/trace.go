package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"

	"nebula"
)

// maxKeptOps bounds the operations whose spans are kept for the span file; the
// per-name aggregates cover every traced operation regardless.
const maxKeptOps = 2000

// spanRec is one line of the span file. Spans of one operation share req;
// parent is the id of the span that caused this one (0 for the operation's
// root). Harness spans ("op:*", "call:*") are timed by the benchmark around
// calls into public functions; the others are the engine's own span tree for
// that call, re-based onto the harness clock.
type spanRec struct {
	Req      int64            `json:"req"`
	ID       int64            `json:"id"`
	Parent   int64            `json:"parent"`
	Name     string           `json:"name"`
	StartNS  int64            `json:"start_ns"`
	EndNS    int64            `json:"end_ns"`
	SelfNS   int64            `json:"self_ns"`
	Counters map[string]int64 `json:"counters,omitempty"`
}

// spanAgg sums every span of one name.
type spanAgg struct {
	n, durNS, selfNS int64
	counters         map[string]int64
}

// tracer collects the spans of one client goroutine; it is not shared.
type tracer struct {
	epoch  time.Time
	kept   []spanRec
	agg    map[string]*spanAgg
	reqs   int64
	nextID int64
}

func newTracer(epoch time.Time) *tracer {
	return &tracer{epoch: epoch, agg: make(map[string]*spanAgg)}
}

// opSpan is the open root span of one operation. A nil *tracer hands out nil
// opSpans and ignores them, so untraced callers need no branches.
type opSpan struct {
	req, id int64
	start   time.Time
	childNS int64
}

// begin opens a new operation: a fresh request id and the id its root span
// will be recorded under, so child spans can name their parent before it ends.
func (t *tracer) begin(start time.Time) *opSpan {
	if t == nil {
		return nil
	}
	t.reqs++
	t.nextID++
	return &opSpan{req: t.reqs, id: t.nextID, start: start}
}

// end records the operation's root span; its self time is what the calls
// beneath it do not cover.
func (t *tracer) end(op *opSpan, name string, end time.Time) {
	if t == nil {
		return
	}
	t.record(op.req, op.id, 0, name, op.start, end, end.Sub(op.start).Nanoseconds()-op.childNS, nil)
}

// add records one finished span under a new id and returns the id.
func (t *tracer) add(req, parent int64, name string, start, end time.Time, selfNS int64, counters map[string]int64) int64 {
	t.nextID++
	t.record(req, t.nextID, parent, name, start, end, selfNS, counters)
	return t.nextID
}

// record folds one finished span into the aggregates and, for the first
// operations, keeps it for the span file. selfNS is the span's duration minus
// the part of it child spans cover.
func (t *tracer) record(req, id, parent int64, name string, start, end time.Time, selfNS int64, counters map[string]int64) {
	a := t.agg[name]
	if a == nil {
		a = &spanAgg{counters: make(map[string]int64)}
		t.agg[name] = a
	}
	a.n++
	a.durNS += end.Sub(start).Nanoseconds()
	a.selfNS += selfNS
	for k, v := range counters {
		a.counters[k] += v
	}
	if req <= maxKeptOps {
		t.kept = append(t.kept, spanRec{
			Req: req, ID: id, Parent: parent, Name: name,
			StartNS: start.Sub(t.epoch).Nanoseconds(), EndNS: end.Sub(t.epoch).Nanoseconds(),
			SelfNS: selfNS, Counters: counters,
		})
	}
}

// call records a harness span around one call into a public function and
// hangs the engine's span tree for that call, when there is one, beneath it.
// The engine reports offsets from its own root, not wall-clock instants, so
// the tree is centred in the call: what precedes and follows it (transport,
// admission, JSON) is the call span's self time.
func (t *tracer) call(op *opSpan, name string, start, end time.Time, tree *nebula.TraceNode) {
	if t == nil {
		return
	}
	dur := end.Sub(start).Nanoseconds()
	op.childNS += dur
	self := dur
	if tree != nil {
		self -= tree.DurationNS
	}
	id := t.add(op.req, op.id, name, start, end, self, nil)
	if tree != nil {
		t.tree(op.req, id, tree, start.Add(time.Duration(self/2)))
	}
}

func (t *tracer) tree(req, parent int64, n *nebula.TraceNode, origin time.Time) {
	self := n.DurationNS
	for _, c := range n.Children {
		self -= c.DurationNS
	}
	start := origin.Add(time.Duration(n.StartNS))
	id := t.add(req, parent, n.Name, start, start.Add(time.Duration(n.DurationNS)), self, n.Counters)
	for _, c := range n.Children {
		t.tree(req, id, c, origin)
	}
}

// merge folds other's aggregates and kept spans into t.
func (t *tracer) merge(other *tracer) {
	for name, o := range other.agg {
		a := t.agg[name]
		if a == nil {
			a = &spanAgg{counters: make(map[string]int64)}
			t.agg[name] = a
		}
		a.n += o.n
		a.durNS += o.durNS
		a.selfNS += o.selfNS
		for k, v := range o.counters {
			a.counters[k] += v
		}
	}
	// Request and span ids are per client; offset them so the file's stay unique.
	for _, s := range other.kept {
		s.Req += t.reqs
		s.ID += t.nextID
		if s.Parent != 0 {
			s.Parent += t.nextID
		}
		t.kept = append(t.kept, s)
	}
	t.reqs += other.reqs
	t.nextID += other.nextID
}

// meanMS is the mean duration of the spans named name, 0 when none ran.
func (t *tracer) meanMS(name string) float64 {
	a := t.agg[name]
	if a == nil || a.n == 0 {
		return 0
	}
	return float64(a.durNS) / float64(a.n) / 1e6
}

func (t *tracer) count(name string) int64 {
	if a := t.agg[name]; a != nil {
		return a.n
	}
	return 0
}

func (t *tracer) counter(name, counter string) int64 {
	if a := t.agg[name]; a != nil {
		return a.counters[counter]
	}
	return 0
}

// names returns the aggregated span names, largest total self time first.
func (t *tracer) names() []string {
	out := make([]string, 0, len(t.agg))
	for name := range t.agg {
		out = append(out, name)
	}
	sort.Slice(out, func(i, j int) bool {
		if a, b := t.agg[out[i]].selfNS, t.agg[out[j]].selfNS; a != b {
			return a > b
		}
		return out[i] < out[j]
	})
	return out
}

// writeSpans writes the kept spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.kept {
		if err := enc.Encode(&t.kept[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
