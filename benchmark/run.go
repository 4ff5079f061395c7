package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nebula"
	"nebula/internal/workload"
)

// run is one workload executed once: generate, set up, measure, epilogue.
type run struct {
	w      *spec
	sz     sizes
	seed   int64
	window time.Duration
	traced bool
	dir    string // scratch directory of this run, removed when it ends
	log    io.Writer

	script  *script
	bed     *bed
	clients []*client
	tr      *tracer // merged spans of a traced run

	// recent are the annotations curate_mixed's reads pick from: the seeding
	// writes, then whatever the curator has added, newest last.
	recentMu sync.Mutex
	recent   []nebula.AnnotationID
	// tick paces curate_mixed's reader: the curator offers one token as it
	// starts each step, and the reader spends it on one read beside that step.
	tick chan struct{}

	attempted, failed atomic.Int64
	userBytes         atomic.Int64 // annotation bodies and cell values written
	updates           atomic.Int64
	walBytes          uint64 // appended to logs of beds this run has since crashed
	walRecords        uint64
	// What the window, with the ingest flush that follows it, appended to the
	// log and wrote of user data; both 0 where the window only reads.
	windowWAL, windowUser float64
	addMS                 []float64 // direct Engine.AddAnnotation calls

	metrics  map[string]float64
	problems []string // correctness checks that did not hold
	aborted  bool     // a phase returned an error; the metrics are incomplete
}

func (r *run) set(name string, v float64) { r.metrics[name] = v }

func (r *run) problemf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *run) logf(format string, args ...any) {
	fmt.Fprintf(r.log, "# %s: %s\n", r.w.name, fmt.Sprintf(format, args...))
}

// execute runs the four phases and leaves the metrics in r.metrics.
func (r *run) execute() error {
	r.metrics = make(map[string]float64)
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(r.dir)

	// Phase 1: generate (untimed work, reported as harness.gen_s): the
	// dataset from fixtureSeed, the script from the run's seed.
	setups := r.w.setups
	if r.traced {
		setups = 1 // a traced run reports no setup_s
	}
	t0 := time.Now()
	datasets, err := generate(r.sz.data, setups)
	if err != nil {
		return err
	}
	if r.script, err = buildScript(datasets[0], r.w, r.sz, r.seed); err != nil {
		return err
	}
	r.set("harness.gen_s", time.Since(t0).Seconds())
	r.logf("seed=%d script_sha=%s", r.seed, r.script.sha)
	if r.w.mixed {
		r.logf("update pool: %d tuples, %.1f annotations re-queued per update", len(r.script.pool), r.script.fanout)
	}

	// Phase 2: set-up, repeated on identical datasets; the last bed stays.
	var setupS []float64
	for i, ds := range datasets {
		datasets[i] = nil
		if r.bed != nil {
			r.retire()
		}
		runtime.GC()
		t0 := time.Now()
		if err := r.setUp(ds, filepath.Join(r.dir, fmt.Sprintf("bed%d", i))); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer func() {
		for _, c := range r.clients {
			c.close()
		}
		if r.bed != nil {
			r.bed.close()
		}
	}()
	r.set("setup_s", median(setupS))
	r.logf("setup_s samples=%v", setupS)

	// Resident heap, taken here and not after the window: a warmed engine that
	// has done a fixed amount of work holds the same bytes in every run, while
	// what the window leaves in the caches follows how many steps it fitted.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.set("heap_mb", float64(ms.HeapAlloc)/(1<<20))

	// Phase 3: the measured window. A traced run splits it: the first half
	// untraced, the second traced, so the tracing overhead comes from one
	// process and one warmed engine.
	walBefore, userBefore := r.bed.engine.WALStats().Log.AppendedBytes, r.userBytes.Load()
	if !r.traced {
		r.measure(r.runWindow(r.window, false))
	} else {
		plain := r.runWindow(r.window/2, false)
		traced := r.runWindow(r.window/2, true)
		r.layerMetrics(plain, traced)
	}
	if r.w.mixed {
		// Leave nothing queued: the epilogue compares states, and a drained
		// queue makes every async submission's freshness known.
		if _, err := r.bed.engine.FlushIngest(context.Background()); err != nil {
			return fmt.Errorf("final ingest flush: %w", err)
		}
	}
	r.windowWAL = float64(r.bed.engine.WALStats().Log.AppendedBytes - walBefore)
	r.windowUser = float64(r.userBytes.Load() - userBefore)

	// Phase 4: the epilogue, identical on every workload.
	return r.epilogue()
}

// generate builds n identical datasets, two at a time (the machine's cores).
func generate(cfg workload.Config, n int) ([]*workload.Dataset, error) {
	out := make([]*workload.Dataset, n)
	errs := make([]error, n)
	sem := make(chan struct{}, 2)
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			out[i], errs[i] = workload.Generate(cfg)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// retire closes a bed an earlier set-up repetition built and forgets what was
// counted against it; only the last set-up's engine is measured.
func (r *run) retire() {
	for _, c := range r.clients {
		c.close()
	}
	r.bed.close()
	os.RemoveAll(r.dir)
	os.MkdirAll(r.dir, 0o755)
	r.bed, r.clients = nil, nil
	r.attempted.Store(0)
	r.failed.Store(0)
	r.userBytes.Store(0)
	r.walBytes, r.walRecords, r.addMS = 0, 0, nil
}

// setUp is the timed phase 2: boot on an empty WAL, the seeding writes (the
// first of which pays any lazy index build), and the fixed warm-up. On
// restart_disk it also checkpoints two thirds of the way through the seeding
// writes, crashes and recovers, so the window runs on adopted segments.
func (r *run) setUp(ds *workload.Dataset, dir string) error {
	var err error
	if r.bed, err = r.w.boot(ds, dir); err != nil {
		return err
	}
	ckptAt := -1
	if r.w.disk {
		ckptAt = len(r.script.seeds) * 2 / 3
	}
	for i, n := range r.script.seeds {
		if i == ckptAt {
			if err := r.bed.engine.Checkpoint(r.bed.snapPath()); err != nil {
				return fmt.Errorf("set-up checkpoint: %w", err)
			}
		}
		if err := r.write(n, nil); err != nil {
			return err
		}
	}
	if r.w.disk {
		if _, err := r.crashAndRecover(dir+"-recovered", 1); err != nil {
			return err
		}
		if st := r.bed.engine.StoreStats(); st.FullPending || st.Store.Segments == 0 {
			r.problemf("restart did not adopt the segments: %+v", st)
		}
	}
	for i := 0; i < r.w.clients; i++ {
		r.clients = append(r.clients, r.newClient(i))
	}
	r.tick = make(chan struct{}, 1)
	r.recent = r.recent[:0]
	for _, n := range r.script.seeds {
		r.recent = append(r.recent, n.id)
	}
	return r.warmUp()
}

// write is one durable write: insert the annotation with its one manual
// attachment, then process it. Both calls are acknowledged only once their
// WAL records are synced.
func (r *run) write(n noted, op *opSpan) error {
	r.attempted.Add(1)
	r.userBytes.Add(int64(len(n.body)))
	start := time.Now()
	err := r.bed.engine.AddAnnotation(n.annotation(), n.related[:1])
	end := time.Now()
	r.addMS = append(r.addMS, float64(end.Sub(start).Nanoseconds())/1e6)
	r.tr.call(op, "call:Engine.AddAnnotation", start, end, nil)
	if err == nil {
		var disc *nebula.Discovery
		start = time.Now()
		disc, _, err = r.bed.engine.ProcessRequest(context.Background(), n.id, nebula.RequestOptions{Trace: r.tr != nil})
		if err == nil {
			r.tr.call(op, "call:Engine.ProcessRequest", start, time.Now(), disc.Trace)
		}
	}
	if err != nil {
		r.failed.Add(1)
		return fmt.Errorf("durable write %s: %w", n.id, err)
	}
	return nil
}

// recoveries is how many times the epilogue restarts from its crash image;
// recover_s is their median.
const recoveries = 3

// crashAndRecover abandons the bed mid-flight and boots a new one from what
// it had on disk plus a torn tail, times times over from identical copies of
// the image. It returns the last restart, with the median of how long each
// took from the first byte read to the first discovery answered.
func (r *run) crashAndRecover(image string, times int) (recovery, error) {
	st := r.bed.engine.WALStats().Log
	r.walBytes += st.AppendedBytes
	r.walRecords += st.Appended
	if err := r.bed.crash(image); err != nil {
		return recovery{}, fmt.Errorf("crash: %w", err)
	}
	images := []string{image}
	for i := 1; i < times; i++ {
		// Recovery heals the torn tail in place, so each restart needs an
		// image no earlier one has touched.
		images = append(images, fmt.Sprintf("%s-%d", image, i))
		if err := copyTree(image, images[i]); err != nil {
			return recovery{}, err
		}
	}
	r.bed = nil
	var rec recovery
	var totals []float64
	for _, dir := range images {
		if r.bed != nil {
			if err := r.bed.close(); err != nil {
				return rec, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		b, this, err := r.w.recoverBed(dir)
		if err != nil {
			return rec, fmt.Errorf("recover: %w", err)
		}
		r.bed, rec = b, this
		if _, err := b.engine.Discover(r.script.sweep[0]); err != nil {
			return rec, fmt.Errorf("first discovery after recovery: %w", err)
		}
		totals = append(totals, time.Since(t0).Seconds())
		if !rec.replay.CorruptTail || rec.replay.ApplyErrors != 0 {
			r.problemf("recovery replay: torn tail discarded=%v, apply errors=%d", rec.replay.CorruptTail, rec.replay.ApplyErrors)
		}
	}
	rec.totalS = median(totals)
	return rec, nil
}

// warmUp is the fixed-count tail of set-up: it fills the caches the window's
// reads will hit, or, on the sweeps, brings the runtime to a steady state on
// annotations the window never touches.
func (r *run) warmUp() error {
	if r.w.hot {
		// Each hot annotation once, so the window starts on a full cache.
		var wg sync.WaitGroup
		for _, c := range r.clients {
			wg.Add(1)
			go func(c *client) {
				defer wg.Done()
				for i := c.id; i < r.sz.hotSet; i += len(r.clients) {
					r.attempted.Add(1)
					if !c.read(nil, r.script.sweep[i]) {
						r.failed.Add(1)
					}
				}
			}(c)
		}
		wg.Wait()
	} else {
		steps := r.sz.warmups
		if r.w.mixed {
			steps = r.sz.mixedWarm
		}
		r.drive(func(n int) bool { return n < steps/len(r.clients) })
	}
	if n := r.failed.Load(); n != 0 {
		return fmt.Errorf("%d warm-up operations failed", n)
	}
	for _, c := range r.clients {
		c.done = nil
		c.calls, c.respBytes = 0, 0
	}
	return nil
}

// drive runs every client's closed loop for as long as more, given the number
// of steps the client has taken in this call, says so, and, on a sweep, for as
// long as there are publications left to read. curate_mixed's reader
// is the exception: it reads once per token the curator offers and stops when
// the curator does. A free-running reader soaks up whatever time the curator
// leaves the engine idle, so that one stalled fsync hands it thousands of
// cached reads, and ops_s and read_p95_ms measure the stall, not the engine.
func (r *run) drive(more func(n int) bool) {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, c := range r.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			if r.w.mixed && c.id != 0 {
				for {
					select {
					case <-r.tick:
						c.step()
					case <-stop:
						return
					}
				}
			}
			for n := 0; more(n) && !c.swept(); n++ {
				c.step()
			}
			if r.w.mixed {
				close(stop)
			}
		}(c)
	}
	wg.Wait()
}

// window is what one measured window observed.
type window struct {
	// span is the time the statistics cover: the window's length, or the time
	// to the last completion where a sweep ran out of publications before it.
	span     time.Duration
	elapsed  time.Duration // to the last completion, steps in flight at the deadline included
	samples  []sample      // every successful step of every client
	lat      [numOpKinds][]float64
	ops      int64
	cache    nebula.CacheStats // counter deltas over the window
	memPrior runtime.MemStats  // before the window
	mem      runtime.MemStats  // after it
	gcShare  float64
}

// runWindow drives every client for d of wall clock. The window ends on the
// clock, never on a count; steps in flight at the deadline finish and count.
func (r *run) runWindow(d time.Duration, traced bool) *window {
	w := &window{}
	for _, c := range r.clients {
		c.done = c.done[:0]
		c.tr = nil
	}
	cacheBefore := r.bed.engine.CacheStats()
	gcBefore := readGCCPU()
	runtime.ReadMemStats(&w.memPrior)
	start := time.Now()
	deadline := start.Add(d)
	for _, c := range r.clients {
		c.epoch = start
		if traced {
			c.tr = newTracer(start)
		}
	}
	r.drive(func(int) bool { return time.Now().Before(deadline) })
	w.elapsed = time.Since(start)
	w.span = min(d, w.elapsed)
	runtime.ReadMemStats(&w.mem)
	w.gcShare = readGCCPU().shareSince(gcBefore)
	w.cache = cacheDelta(cacheBefore, r.bed.engine.CacheStats())
	for _, c := range r.clients {
		w.samples = append(w.samples, c.done...)
		if traced {
			if r.tr == nil {
				r.tr = newTracer(start)
			}
			r.tr.merge(c.tr)
			c.tr = nil
		}
	}
	w.ops = int64(len(w.samples))
	for _, s := range w.samples {
		w.lat[s.kind] = append(w.lat[s.kind], s.ms)
	}
	return w
}

// windowParts is how many equal parts a read-only window is cut into, some
// thousand reads to a part. Every window statistic is taken in each part and
// the median over the parts is reported: on a shared machine a neighbour takes
// the processor or the memory bus away for seconds at a time, and whatever
// share of the steps fell into such a stall would otherwise sit in the mean
// rate and fill the latency tail.
const windowParts = 10

// parts is how many parts the window's statistics are taken over.
// curate_mixed's window is not cut: its second-long drains, a few per window,
// are events of the workload itself, and a part would hold too few of them,
// or of the hundred curate steps.
func (r *run) parts() int {
	if r.w.mixed {
		return 1
	}
	return windowParts
}

// part is the index of the part of the span a step ended in, -1 for a step
// that was in flight when the span ended.
func (w *window) part(s sample, parts int) int {
	if s.at >= w.span {
		return -1
	}
	return int(int64(s.at) * int64(parts) / int64(w.span))
}

// rate is the median over the parts of the successful steps completed per
// second.
func (w *window) rate(parts int) float64 {
	counts := make([]float64, parts)
	for _, s := range w.samples {
		if i := w.part(s, parts); i >= 0 {
			counts[i]++
		}
	}
	for i := range counts {
		counts[i] /= w.span.Seconds() / float64(parts)
	}
	return median(counts)
}

// latency is the median over the parts of the rank-th percentile of the
// latencies of the steps of one kind that ended in the part; a part without
// any is skipped.
func (w *window) latency(kind opKind, parts int, rank float64) float64 {
	byPart := make([][]float64, parts)
	for _, s := range w.samples {
		if i := w.part(s, parts); i >= 0 && s.kind == kind {
			byPart[i] = append(byPart[i], s.ms)
		}
	}
	var stats []float64
	for _, vs := range byPart {
		if len(vs) > 0 {
			stats = append(stats, percentile(vs, rank))
		}
	}
	return median(stats)
}

// perSecond counts the successful steps completed in each whole second.
func (w *window) perSecond() []int {
	out := make([]int, int(w.span/time.Second))
	for _, s := range w.samples {
		if i := int(s.at / time.Second); i < len(out) {
			out[i]++
		}
	}
	return out
}

func cacheDelta(a, b nebula.CacheStats) nebula.CacheStats {
	sub := func(x, y nebula.CacheCounters) nebula.CacheCounters {
		y.Hits -= x.Hits
		y.Misses -= x.Misses
		y.Evictions -= x.Evictions
		y.Invalidations -= x.Invalidations
		return y
	}
	b.Scan, b.Query = sub(a.Scan, b.Scan), sub(a.Query, b.Query)
	b.Mapping, b.Discovery = sub(a.Mapping, b.Mapping), sub(a.Discovery, b.Discovery)
	return b
}

// primary is the operation op_p50_ms and op_p95_ms describe.
func (r *run) primary() opKind {
	if r.w.mixed {
		return opCurate
	}
	return opRead
}

// measure turns the untraced window into the window-derived end-to-end
// metrics and applies the checks that the workload did what its row says.
func (r *run) measure(w *window) {
	parts, prim := r.parts(), r.primary()
	// The tail rank is the highest the whole window's samples support.
	primTail, readTail := tailRank(len(w.lat[prim])), tailRank(len(w.lat[opRead]))
	r.set("ops_s", w.rate(parts))
	r.set("op_p50_ms", w.latency(prim, parts, 0.50))
	r.set("op_p95_ms", w.latency(prim, parts, primTail))
	var counts []string
	for k, name := range opNames {
		if n := len(w.lat[k]); n > 0 {
			counts = append(counts, fmt.Sprintf("%s=%d", name, n))
			r.logf("  %-8s n=%-7d mean=%.3fms p50=%.3fms total=%.2fs", name, n, mean(w.lat[k]), median(w.lat[k]), mean(w.lat[k])*float64(n)/1e3)
		}
	}
	r.logf("window=%.3fs ops=%d (%s), %.1f ops/s over the whole of it", w.elapsed.Seconds(), w.ops, strings.Join(counts, " "), float64(w.ops)/w.elapsed.Seconds())
	r.logf("medians over %d equal part(s) of %.3fs; primary=%s, %d samples, tail=p%.1f; reads, %d samples, tail=p%.1f: %.3fms",
		parts, w.span.Seconds(), opNames[prim], len(w.lat[prim]), 100*primTail,
		len(w.lat[opRead]), 100*readTail, w.latency(opRead, parts, readTail))
	r.logf("steps completed per second: %v", w.perSecond())
	for _, c := range r.clients {
		if c.swept() {
			r.logf("client %d read every publication once after %.3fs and stopped there", c.id, w.elapsed.Seconds())
		} else if laps := c.pos / r.scriptLen(); laps > 0 {
			r.logf("client %d exhausted its script and wrapped %d times", c.id, laps)
		}
	}
	r.checkHitShare(w)
}

// scriptLen is the number of steps before a client's script repeats.
func (r *run) scriptLen() int {
	switch {
	case r.w.mixed:
		return len(r.script.ops)
	case r.w.hot:
		return len(r.script.picks[0])
	default:
		return len(r.script.sweep)
	}
}

func discoveryHitShare(c nebula.CacheStats) float64 {
	return ratio(float64(c.Discovery.Hits), float64(c.Discovery.Hits+c.Discovery.Misses))
}

// checkHitShare fails the run when the workload is not doing what its row
// says: discover_hot must be served from the discovery cache, and the sweeps
// must never be.
func (r *run) checkHitShare(w *window) {
	share := discoveryHitShare(w.cache)
	r.logf("discovery-cache hit share in the window: %.4f", share)
	if !r.sz.strict {
		return
	}
	switch {
	case r.w.hot && share < 0.95:
		r.problemf("discover_hot hit share %.3f < 0.95: the hot set does not stay cached", share)
	case !r.w.hot && !r.w.mixed && share > 0.05:
		r.problemf("%s hit share %.3f > 0.05: the sweep repeats itself", r.w.name, share)
	}
}

// fingerprint digests the state a recovery must reproduce: every annotation,
// every attachment with its type, the pending tasks and the bounds.
func fingerprint(e *nebula.Engine) string {
	h := sha256.New()
	ids := e.Store().IDs()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		a, _ := e.Store().Get(id)
		fmt.Fprintf(h, "a %s %d\n", id, len(a.Body))
		atts := e.Store().Attachments(id, -1)
		lines := make([]string, len(atts))
		for i, att := range atts {
			lines[i] = fmt.Sprintf("  %s %d", att.Tuple, att.Type)
		}
		sort.Strings(lines)
		io.WriteString(h, strings.Join(lines, "\n"))
	}
	for _, t := range e.PendingTasks() {
		fmt.Fprintf(h, "p %d %s %s %.9f\n", t.VID, t.Annotation, t.Tuple, t.Confidence)
	}
	b := e.Bounds()
	fmt.Fprintf(h, "b %.9f %.9f\n", b.Lower, b.Upper)
	return hex.EncodeToString(h.Sum(nil))
}

// render discovers the fixed render set and prints every candidate.
func (r *run) render(e *nebula.Engine) (string, error) {
	var b strings.Builder
	for _, id := range r.script.renders {
		r.attempted.Add(1)
		d, err := e.Discover(id)
		if err != nil {
			r.failed.Add(1)
			return "", fmt.Errorf("render %s: %w", id, err)
		}
		fmt.Fprintf(&b, "%s:", id)
		for _, c := range d.Candidates {
			fmt.Fprintf(&b, " %v=%.9f", c.Tuple.ID, c.Confidence)
		}
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// heldBytes is the user data the engine holds: every annotation body and
// every cell value.
func heldBytes(e *nebula.Engine) int64 {
	var n int64
	for _, id := range e.Store().IDs() {
		a, _ := e.Store().Get(id)
		n += int64(len(a.Body))
	}
	db := e.DB()
	for _, name := range db.TableNames() {
		for _, row := range db.MustTable(name).Rows() {
			for _, v := range row.Values {
				n += int64(len(v.Str()))
			}
		}
	}
	return n
}

// epilogue is phase 4: prediction quality, checkpoint, a WAL-only tail,
// crash, timed recovery, and the durability check.
func (r *run) epilogue() error {
	e := r.bed.engine

	// (a) quality probe: annotations nobody has seen, one manual attachment
	// each; what discovery predicts at or above β_lower is held against the
	// generator's ground truth.
	lower := e.Bounds().Lower
	var hidden, found, predicted, wrong int
	for _, n := range r.script.probes {
		r.attempted.Add(1)
		r.userBytes.Add(int64(len(n.body)))
		err := e.AddAnnotation(n.annotation(), n.related[:1])
		var d *nebula.Discovery
		if err == nil {
			d, err = e.Discover(n.id)
		}
		if err != nil {
			r.failed.Add(1)
			return fmt.Errorf("quality probe %s: %w", n.id, err)
		}
		truth := make(map[nebula.TupleID]bool, len(n.related))
		for _, t := range n.related {
			truth[t] = true
		}
		hidden += len(n.related) - 1
		for _, c := range d.Candidates {
			if c.Confidence < lower {
				continue
			}
			predicted++
			switch {
			case !truth[c.Tuple.ID]:
				wrong++
			case c.Tuple.ID != n.related[0]:
				found++
			}
		}
	}
	r.set("recall_share", ratio(float64(found), float64(hidden)))
	r.set("fp_share", ratio(float64(wrong), float64(predicted)))
	r.logf("quality probe: %d annotations, %d hidden attachments, %d found, %d predicted, %d wrong",
		len(r.script.probes), hidden, found, predicted, wrong)

	// (b) checkpoint, and what is on disk behind it.
	t0 := time.Now()
	if err := e.Checkpoint(r.bed.snapPath()); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	r.set("snapshot.checkpoint_s", time.Since(t0).Seconds())
	disk, err := treeBytes(r.bed.dir)
	if err != nil {
		return err
	}
	snap, err := os.Stat(r.bed.snapPath())
	if err != nil {
		return err
	}
	r.set("snapshot.bytes_mb", float64(snap.Size())/(1<<20))
	r.set("disk_bytes_per_user_byte", ratio(float64(disk), float64(heldBytes(e))))

	// (c) a tail of durable writes the snapshot does not cover.
	for _, n := range r.script.tail {
		op := r.tr.begin(time.Now())
		if err := r.write(n, op); err != nil {
			return err
		}
		r.tr.end(op, "op:write", time.Now())
	}

	// (d) what the crash must not lose.
	r.walStats(e.WALStats())
	before := fingerprint(e)
	rendered, err := r.render(e)
	if err != nil {
		return err
	}
	r.storeStats()

	// (e) crash, (f) timed recovery up to the first discovery answered.
	rec, err := r.crashAndRecover(filepath.Join(r.dir, "epilogue-recovered"), recoveries)
	if err != nil {
		return err
	}
	r.set("recover_s", rec.totalS)
	r.set("snapshot.restore_s", rec.restoreS)
	r.set("wal.replay_ms_per_record", ratio(rec.replay.Duration.Seconds()*1e3, float64(rec.replay.Records)))
	r.logf("recovery: restore %.3fs, replay %d records in %.3fs, %d torn bytes discarded",
		rec.restoreS, rec.replay.Records, rec.replay.Duration.Seconds(), rec.replay.DiscardedBytes)

	// (g) every acknowledged write present, the torn tail gone, discoveries
	// byte-identical.
	if after := fingerprint(r.bed.engine); after != before {
		r.problemf("durability: state fingerprint %s before the crash, %s after recovery", before[:12], after[:12])
	}
	again, err := r.render(r.bed.engine)
	if err != nil {
		return err
	}
	if again != rendered {
		r.problemf("durability: the %d rendered discoveries differ after recovery", len(r.script.renders))
	}
	if _, ok := r.bed.engine.Store().Get("torn"); ok {
		r.problemf("durability: the torn, never-acknowledged write was replayed")
	}

	// Log bytes per user byte: over the window where the window writes, over
	// the run's fixed writes (seeding, probes, tail) where it only reads. Not
	// over both together: the two have different ratios, and how many steps
	// the window fitted would set their weights, and with them the metric.
	wal, user := float64(r.walBytes), float64(r.userBytes.Load())
	if r.windowUser > 0 {
		wal, user = r.windowWAL, r.windowUser
	}
	r.set("wal_bytes_per_user_byte", ratio(wal, user))
	if r.traced {
		return r.probeLayers()
	}
	return nil
}
