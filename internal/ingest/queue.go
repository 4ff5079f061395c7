// Package ingest implements the job queue behind Nebula's streaming
// proactive pipeline: a bounded, prioritized, coalescing queue of discovery
// jobs. Annotation writes enqueue initial-discovery jobs; tuple mutations
// enqueue re-discovery jobs for the attachments their ACG neighborhood can
// affect. The queue is drained in (priority desc, sequence asc) order, so
// under backpressure the freshest-critical work runs first while FIFO
// fairness breaks ties.
//
// The queue is deliberately NOT thread-safe: it lives inside the engine and
// every operation runs under the engine's lock, exactly like the annotation
// store and the ACG. Sequence numbers are assigned here and logged to the
// WAL, so a replayed queue reconstructs the identical drain order.
package ingest

import (
	"container/heap"
	"errors"
	"time"

	"nebula/internal/annotation"
)

// Kind classifies a queued discovery job.
type Kind uint8

const (
	// KindDiscover is an initial asynchronous discovery for a freshly
	// inserted annotation (the submit-async path).
	KindDiscover Kind = 1
	// KindRediscover is a change-driven re-discovery: a tuple mutation
	// landed inside the annotation's K-hop ACG neighborhood, so its
	// machine-derived attachments may be stale.
	KindRediscover Kind = 2
)

func (k Kind) String() string {
	switch k {
	case KindDiscover:
		return "discover"
	case KindRediscover:
		return "rediscover"
	default:
		return "unknown"
	}
}

// Job is one queued discovery unit: run the full pipeline (retract stale
// machine state, then discover + submit) for one annotation.
type Job struct {
	// Annotation is the job's subject.
	Annotation annotation.ID
	// Kind says why the job was queued. A coalesced job keeps the
	// strongest kind (rediscover beats discover: both drain identically,
	// but the metric distinction matters).
	Kind Kind
	// Priority orders draining: higher first. Coalescing keeps the max.
	Priority int
	// Seq is the admission sequence number, assigned by the queue and
	// persisted to the WAL; it breaks priority ties FIFO and makes replay
	// rebuild the identical drain order.
	Seq uint64
	// EnqueuedAt is when the job entered the queue — the start of the
	// enqueue→attached freshness measurement. Not persisted; restored
	// jobs restart the clock at restore time.
	EnqueuedAt time.Time
}

// ErrFull reports that a live enqueue hit the queue's capacity. Callers
// surface it as backpressure (the serving layer maps it to 429 +
// Retry-After). Replay and restore bypass the cap via Force.
var ErrFull = errors.New("ingest: queue full")

// Counters are the queue's monotonic lifetime counters, exported as
// nebula_ingest_* metrics.
type Counters struct {
	// Enqueued counts distinct jobs admitted (coalesced duplicates not
	// included).
	Enqueued uint64
	// Coalesced counts enqueues folded into an already-queued job.
	Coalesced uint64
	// Dropped counts live enqueues rejected by the capacity bound.
	Dropped uint64
	// Rediscoveries counts admitted jobs of KindRediscover.
	Rediscoveries uint64
	// Done counts jobs drained to completion.
	Done uint64
}

// Queue is the bounded prioritized coalescing job queue. Not thread-safe;
// the owning engine's lock guards every call.
type Queue struct {
	cap      int
	heap     jobHeap
	byAnn    map[annotation.ID]*item
	nextSeq  uint64
	counters Counters
}

type item struct {
	job   Job
	index int
}

// New returns an empty queue admitting at most capacity jobs (capacity <= 0
// means unbounded).
func New(capacity int) *Queue {
	return &Queue{cap: capacity, byAnn: make(map[annotation.ID]*item)}
}

// Len returns the number of queued jobs.
func (q *Queue) Len() int { return len(q.heap) }

// Cap returns the capacity bound (0 = unbounded).
func (q *Queue) Cap() int { return q.cap }

// Counters returns a copy of the lifetime counters.
func (q *Queue) Counters() Counters { return q.counters }

// NextSeq returns the sequence number the next admitted job will get.
func (q *Queue) NextSeq() uint64 { return q.nextSeq }

// Enqueue admits a job on the live path. A job for an already-queued
// annotation coalesces: priority and kind are upgraded to the max and no
// second job is created. The returned bool reports whether queue state
// changed — a no-op coalesce needs no WAL record. A fresh job beyond
// capacity returns ErrFull (counted in Dropped).
func (q *Queue) Enqueue(id annotation.ID, kind Kind, priority int, now time.Time) (Job, bool, error) {
	if it, ok := q.byAnn[id]; ok {
		changed := false
		if priority > it.job.Priority {
			it.job.Priority = priority
			changed = true
		}
		if kind > it.job.Kind {
			it.job.Kind = kind
			changed = true
		}
		if changed {
			heap.Fix(&q.heap, it.index)
		}
		q.counters.Coalesced++
		return it.job, changed, nil
	}
	if q.cap > 0 && len(q.heap) >= q.cap {
		q.counters.Dropped++
		return Job{}, false, ErrFull
	}
	j := Job{Annotation: id, Kind: kind, Priority: priority, Seq: q.nextSeq, EnqueuedAt: now}
	q.nextSeq++
	q.admit(j)
	return j, true, nil
}

// Force inserts or overwrites a job with an explicit sequence number — the
// WAL-replay and snapshot-restore path. The capacity bound is not enforced
// (the job was already admitted live before the crash), and nextSeq
// advances past the forced sequence so later live enqueues never collide.
func (q *Queue) Force(j Job) {
	if j.Seq >= q.nextSeq {
		q.nextSeq = j.Seq + 1
	}
	if it, ok := q.byAnn[j.Annotation]; ok {
		// A replayed coalesce: the WAL logs the job's upgraded shape under
		// its original sequence.
		it.job.Kind, it.job.Priority, it.job.Seq = j.Kind, j.Priority, j.Seq
		heap.Fix(&q.heap, it.index)
		return
	}
	q.admit(j)
}

// RestoreSeq advances the admission counter to at least next — the
// snapshot-restore path, so a recovered engine assigns the same sequence
// numbers the live engine would have.
func (q *Queue) RestoreSeq(next uint64) {
	if next > q.nextSeq {
		q.nextSeq = next
	}
}

func (q *Queue) admit(j Job) {
	it := &item{job: j}
	q.byAnn[j.Annotation] = it
	heap.Push(&q.heap, it)
	q.counters.Enqueued++
	if j.Kind == KindRediscover {
		q.counters.Rediscoveries++
	}
}

// PopBatch removes and returns up to n jobs in drain order (priority desc,
// sequence asc). n <= 0 drains everything queued.
func (q *Queue) PopBatch(n int) []Job {
	if n <= 0 || n > len(q.heap) {
		n = len(q.heap)
	}
	out := make([]Job, 0, n)
	for len(out) < n {
		it := heap.Pop(&q.heap).(*item)
		delete(q.byAnn, it.job.Annotation)
		out = append(out, it.job)
	}
	return out
}

// Requeue puts popped-but-unprocessed jobs back (a cancelled drain). Jobs
// keep their original sequence and enqueue time; the capacity bound is not
// re-checked — the jobs never logically left the queue.
func (q *Queue) Requeue(jobs []Job) {
	for _, j := range jobs {
		if it, ok := q.byAnn[j.Annotation]; ok {
			// Something re-enqueued the annotation while the drain held the
			// job; keep the queued entry (it coalesces the returned one).
			if j.Priority > it.job.Priority || (j.Priority == it.job.Priority && j.Seq < it.job.Seq) {
				it.job.Priority, it.job.Seq = max(it.job.Priority, j.Priority), min(it.job.Seq, j.Seq)
				heap.Fix(&q.heap, it.index)
			}
			continue
		}
		it := &item{job: j}
		q.byAnn[j.Annotation] = it
		heap.Push(&q.heap, it)
	}
}

// Position returns the annotation's 1-based drain position: 1 means the
// job drains next, Len() means last. 0 reports the annotation not queued.
// Computed against the same queue state as the enqueue when called under
// the owning lock — which is how the engine pins the admission contract
// (the position returned with a 202 is exact as of admission, not a
// post-hoc racy read).
func (q *Queue) Position(id annotation.ID) int {
	it, ok := q.byAnn[id]
	if !ok {
		return 0
	}
	pos := 1
	for _, other := range q.heap {
		if other == it {
			continue
		}
		if other.job.Priority > it.job.Priority ||
			(other.job.Priority == it.job.Priority && other.job.Seq < it.job.Seq) {
			pos++
		}
	}
	return pos
}

// NoteDrop counts a rejection decided by the engine before Enqueue ran
// (the async-submit path checks capacity before storing the annotation).
func (q *Queue) NoteDrop() { q.counters.Dropped++ }

// MarkDone removes the annotation's queued job if present and counts a
// completion — the apply of a completion record, live (the drain popped
// the job already) and replayed alike.
func (q *Queue) MarkDone(id annotation.ID) {
	q.counters.Done++
	it, ok := q.byAnn[id]
	if !ok {
		return
	}
	heap.Remove(&q.heap, it.index)
	delete(q.byAnn, id)
}

// Remove drops the annotation's queued job without counting a completion —
// the hook for annotation deletion.
func (q *Queue) Remove(id annotation.ID) bool {
	it, ok := q.byAnn[id]
	if !ok {
		return false
	}
	heap.Remove(&q.heap, it.index)
	delete(q.byAnn, id)
	return true
}

// Jobs returns the queued jobs in drain order without removing them — the
// snapshot-capture and status-endpoint view.
func (q *Queue) Jobs() []Job {
	c := Queue{byAnn: make(map[annotation.ID]*item, len(q.heap))}
	c.heap = make(jobHeap, len(q.heap))
	for i, it := range q.heap {
		ci := &item{job: it.job, index: i}
		c.heap[i] = ci
		c.byAnn[ci.job.Annotation] = ci
	}
	return c.PopBatch(0)
}

// OldestEnqueuedAt returns the earliest enqueue time among queued jobs —
// the queue-lag metric. ok is false when the queue is empty.
func (q *Queue) OldestEnqueuedAt() (oldest time.Time, ok bool) {
	for _, it := range q.heap {
		if !ok || it.job.EnqueuedAt.Before(oldest) {
			oldest, ok = it.job.EnqueuedAt, true
		}
	}
	return oldest, ok
}

// jobHeap orders items by priority desc, then sequence asc.
type jobHeap []*item

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(i, j int) bool {
	if h[i].job.Priority != h[j].job.Priority {
		return h[i].job.Priority > h[j].job.Priority
	}
	return h[i].job.Seq < h[j].job.Seq
}
func (h jobHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}
func (h *jobHeap) Push(x any) {
	it := x.(*item)
	it.index = len(*h)
	*h = append(*h, it)
}
func (h *jobHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	it.index = -1
	*h = old[:n-1]
	return it
}
