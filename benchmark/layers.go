package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"nebula"
	"nebula/internal/cache"
	"nebula/internal/keyword"
	"nebula/internal/meta"
	"nebula/internal/relational"
	"nebula/internal/segment"
	"nebula/internal/sigmap"
	"nebula/internal/textutil"
	"nebula/internal/wal"
)

// gcCPU is a reading of the runtime's CPU-time classes.
type gcCPU struct{ gc, busy float64 }

func readGCCPU() gcCPU {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return gcCPU{gc: s[0].Value.Float64(), busy: s[1].Value.Float64() - s[2].Value.Float64()}
}

// shareSince is the share of the busy CPU time since before that the garbage
// collector took.
func (g gcCPU) shareSince(before gcCPU) float64 {
	return ratio(g.gc-before.gc, g.busy-before.busy)
}

// layerMetrics derives the per-layer numbers a traced run takes from its two
// half windows: counters and runtime statistics from the untraced half, span
// times from the traced half, and the cost of tracing from the two together.
func (r *run) layerMetrics(plain, traced *window) {
	tr := r.tr
	e := r.bed.engine
	plainRate := float64(plain.ops) / plain.elapsed.Seconds()
	tracedRate := float64(traced.ops) / traced.elapsed.Seconds()
	r.set("harness.trace_overhead_share", 1-ratio(tracedRate, plainRate))
	r.logf("untraced half %.1f ops/s, traced half %.1f ops/s", plainRate, tracedRate)
	r.checkHitShare(plain)

	// server: what an HTTP call costs outside the engine's own span.
	var roundtrip []float64
	var calls, respBytes int64
	for _, c := range r.clients {
		roundtrip = append(roundtrip, c.roundtrip...)
		calls += c.calls
		respBytes += c.respBytes
	}
	r.set("server.roundtrip_p50_ms", median(roundtrip))
	r.set("server.json_kb_per_op", ratio(float64(respBytes)/1024, float64(calls)))
	if r.w.http {
		shed, total, err := scrapeRequests(r.bed.srv.URL)
		if err != nil {
			r.problemf("GET /metrics: %v", err)
		}
		r.set("server.shed_share", ratio(shed, total))
	}

	// cache and shard.
	cs := e.CacheStats()
	r.set("cache.hit_share", discoveryHitShare(plain.cache))
	lower := plain.cache.Scan
	lower.Add(plain.cache.Query)
	lower.Add(plain.cache.Mapping)
	r.set("cache.lower_hit_share", ratio(float64(lower.Hits), float64(lower.Hits+lower.Misses)))
	r.set("cache.evictions", float64(cs.Totals().Evictions))
	r.set("cache.bytes_mb", float64(cs.Totals().Bytes)/(1<<20))
	r.set("shard.survive_share", ratio(float64(plain.cache.Discovery.Hits), float64(len(plain.lat[opRead]))))
	r.set("shard.read_p95_ms", plain.latency(opRead, r.parts(), tailRank(len(plain.lat[opRead]))))
	var maxMut, sumMut float64
	shards := e.ShardStats()
	for _, s := range shards.PerShard {
		sumMut += float64(s.Mutations)
		if float64(s.Mutations) > maxMut {
			maxMut = float64(s.Mutations)
		}
	}
	r.set("shard.mutation_skew", ratio(maxMut, sumMut/float64(len(shards.PerShard))))

	// The engine's own span tree splits a discovery into its stages.
	r.set("sigmap.generate_ms", tr.meanMS("generate"))
	r.set("sigmap.queries_per_ann", ratio(float64(tr.counter("generate", "queries")), float64(tr.count("generate"))))
	r.set("keyword.execute_ms", tr.meanMS("execute"))
	r.set("keyword.structured_per_query", ratio(float64(tr.counter("execute", "structured_queries")), float64(tr.counter("execute", "keyword_queries"))))
	r.set("relational.rows_scanned_per_result", ratio(float64(tr.counter("execute", "tuples_scanned")), float64(tr.counter("rank", "candidates"))))
	r.set("discovery.identify_ms", tr.meanMS("execute")+tr.meanMS("aggregate")+tr.meanMS("adjust_focal")+tr.meanMS("rank"))
	r.set("discovery.rank_ms", tr.meanMS("rank"))
	r.set("discovery.adjust_focal_ms", tr.meanMS("adjust_focal"))
	r.set("discovery.candidates_per_op", ratio(float64(tr.counter("rank", "candidates")), float64(tr.count("rank"))))

	// verification and ingest, from the harness spans and the clients' tallies.
	r.set("verification.verdict_ms", tr.meanMS("op:verdict"))
	r.set("verification.pending_depth", float64(len(e.PendingTasks())))
	var accepted, routed, drained int64
	var drainMS float64
	var fresh []float64
	for _, c := range r.clients {
		accepted += c.accepted
		routed += c.routed
		drained += c.drained
		drainMS += c.drainMS
		fresh = append(fresh, c.freshMS...)
	}
	r.set("verification.auto_accept_share", ratio(float64(accepted), float64(routed)))
	r.set("ingest.enqueue_us", tr.meanMS("op:async")*1e3)
	r.set("ingest.drain_ms_per_job", ratio(drainMS, float64(drained)))
	r.set("ingest.fresh_p50_ms", percentile(fresh, 0.50))
	r.set("ingest.fresh_p95_ms", percentile(fresh, 0.95))
	is := e.IngestStats()
	r.set("ingest.cdc_jobs_per_mutation", ratio(float64(is.Rediscoveries), float64(r.updates.Load())))
	r.set("ingest.coalesced_share", ratio(float64(is.Coalesced), float64(is.Enqueued+is.Coalesced)))
	r.set("ingest.dropped", float64(is.Dropped))

	// proc: the Go runtime over the untraced half.
	r.set("proc.alloc_kb_per_op", ratio(float64(plain.mem.TotalAlloc-plain.memPrior.TotalAlloc)/1024, float64(plain.ops)))
	r.set("proc.gc_cpu_share", plain.gcShare)
	var pauses []float64
	for n := plain.memPrior.NumGC; n < plain.mem.NumGC && n < plain.memPrior.NumGC+256; n++ {
		pauses = append(pauses, float64(plain.mem.PauseNs[n%256])/1e6)
	}
	r.set("proc.gc_pause_p95_ms", percentile(pauses, 0.95))
}

// spanSummary prints, per span name, how often it ran, its mean duration and
// its total self time: the table that says where a traced operation's time
// went.
func (r *run) spanSummary() {
	tr := r.tr
	r.logf("span summary over %d traced operations (mean = per occurrence, self = not covered by child spans):", tr.reqs)
	var totalSelf int64
	for _, a := range tr.agg {
		totalSelf += a.selfNS
	}
	for _, name := range tr.names() {
		a := tr.agg[name]
		r.logf("  span %-32s n=%-7d mean=%9.4fms self=%9.1fms (%5.1f%%)", name, a.n,
			float64(a.durNS)/float64(a.n)/1e6, float64(a.selfNS)/1e6, 100*ratio(float64(a.selfNS), float64(totalSelf)))
	}
}

// scrapeRequests reads GET /metrics and returns the refused and the total
// request counts.
func scrapeRequests(base string) (shed, total float64, err error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, perr := strconv.ParseFloat(line[i+1:], 64)
		if perr != nil {
			continue
		}
		switch {
		case strings.HasPrefix(line, "nebula_rejected_total{"):
			shed += v
		case strings.HasPrefix(line, "nebula_requests_total{"):
			total += v
		}
	}
	return shed, total, sc.Err()
}

// walStats records the log's counters over the whole run, taken just before
// the crash that closes it.
func (r *run) walStats(st nebula.WALStats) {
	l := st.Log
	appended := float64(r.walRecords + l.Appended)
	r.set("wal.fsync_ms", ratio(float64(l.SyncNanos)/1e6, float64(l.Syncs)))
	r.set("wal.syncs_per_write", ratio(float64(l.Syncs), float64(l.Appended)))
	r.set("wal.absorbed_share", ratio(float64(l.SyncAbsorbed), float64(l.Syncs+l.SyncAbsorbed)))
	r.set("wal.bytes_per_record", ratio(float64(r.walBytes+l.AppendedBytes), appended))
	r.set("annotation.add_ms", mean(r.addMS))
	r.logf("wal: mode=%s records=%d bytes=%d syncs=%d absorbed=%d mean fsync=%.3fms", st.Mode, l.Appended, l.AppendedBytes,
		l.Syncs, l.SyncAbsorbed, ratio(float64(l.SyncNanos)/1e6, float64(l.Syncs)))
}

// storeStats records the segment store as the epilogue's checkpoint left it.
func (r *run) storeStats() {
	st := r.bed.engine.StoreStats()
	r.set("segment.count", float64(st.Store.Segments))
	r.set("segment.bytes_mb", float64(st.Store.SizeBytes)/(1<<20))
}

// timeCalls runs fn n times and returns the mean in nanoseconds.
func timeCalls(n int, fn func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// probeLayers is source (iii) of the per-layer numbers: a fixed count of
// direct calls into each layer's public functions, on inputs taken from the
// run's own script, against the recovered engine once every check is done.
func (r *run) probeLayers() error {
	e := r.bed.engine
	n := r.sz.layerCalls
	tr := r.tr
	r.set("verification.submit_ms", tr.meanMS("verify"))

	// Inputs: the probe annotations' bodies, their words, their tuples.
	notes := r.script.probes
	var words []string
	for _, nt := range notes[:min(len(notes), 20)] {
		for _, tok := range textutil.Tokenize(nt.body) {
			words = append(words, tok.Text)
		}
	}

	r.set("textutil.tokenize_us", timeCalls(n, func(i int) { textutil.Tokenize(notes[i%len(notes)].body) })/1e3)
	r.set("textutil.jw_ns", timeCalls(n*100, func(i int) { textutil.JaroWinkler(words[i%len(words)], words[(i*7+1)%len(words)]) }))

	lru := cache.New[int](1 << 20)
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("probe-key-%04d", i)
		lru.Put(keys[i], 1, i, 64)
	}
	r.set("cache.get_ns", timeCalls(n*100, func(i int) { lru.Get(keys[i%len(keys)], 1) }))

	repo := e.Meta()
	r.set("meta.value_match_us", timeCalls(n*10, func(i int) { repo.ValueMatches(words[i%len(words)]) })/1e3)

	// A fixed selection on an unindexed column: the scan the metadata search
	// technique falls back to for every name reference.
	db := e.DB()
	genes := db.MustTable("Gene").Rows()
	batch := make([]relational.Query, 8)
	for i := range batch {
		name, _ := genes[(i*131)%len(genes)].Get("Name")
		batch[i] = relational.Query{Table: "Gene", Predicates: []relational.Predicate{{Column: "Name", Op: relational.OpEq, Operand: name}}}
	}
	est := meta.NewEstimator(repo)
	r.set("meta.estimate_us", timeCalls(n*10, func(i int) { est.EstimateSelect(batch[i%len(batch)]) })/1e3)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var scanErr error
	r.set("relational.scan_ms", timeCalls(n, func(int) {
		if _, _, err := db.SelectMultiUncached(batch, 1); err != nil {
			scanErr = err
		}
	})/1e6)
	runtime.ReadMemStats(&after)
	if scanErr != nil {
		return fmt.Errorf("probe SelectMultiUncached: %w", scanErr)
	}
	r.set("relational.scan_alloc_kb", float64(after.TotalAlloc-before.TotalAlloc)/1024/float64(n))

	fam, _ := genes[0].Get("Family")
	selection := relational.Query{Table: "Gene", Predicates: []relational.Predicate{{Column: "Family", Op: relational.OpEq, Operand: fam}}}
	var propErr error
	r.set("annotation.propagate_ms", timeCalls(max(n/10, 1), func(int) {
		if _, err := e.PropagateQuery(selection, nil); err != nil {
			propErr = err
		}
	})/1e6)
	if propErr != nil {
		return fmt.Errorf("probe PropagateQuery: %w", propErr)
	}

	// acg: the two graph walks the write path and CDC run. The engine is
	// quiescent, so its graph may be read directly.
	g := e.Graph()
	r.set("acg.nodes", float64(g.Nodes()))
	r.set("acg.edges", float64(g.Edges()))
	r.set("acg.hops_ms", timeCalls(n, func(i int) {
		rel := notes[i%len(notes)].related
		g.HopsToAny(rel[len(rel)-1], rel[:1])
	})/1e6)
	r.set("acg.affected_ms", timeCalls(n, func(i int) {
		g.AffectedAnnotations(notes[i%len(notes)].related[:1], 1)
	})/1e6)

	// wal: appends to a log of the probe's own, in the run's scratch
	// directory, so the engine's log and its counters stay as they are.
	log, err := wal.Open(filepath.Join(r.dir, "probe-wal"), wal.Options{Sync: wal.SyncGroup})
	if err != nil {
		return err
	}
	var walErr error
	r.set("wal.append_us", timeCalls(n, func(i int) {
		nt := notes[i%len(notes)]
		if _, err := log.Append(&wal.Record{Op: wal.OpAddAnnotation, Ann: string(nt.id), Body: nt.body}); err != nil {
			walErr = err
		}
	})/1e3)
	if err := log.Close(); err != nil || walErr != nil {
		return fmt.Errorf("probe wal append: %v %v", err, walErr)
	}

	if r.w.disk {
		if err := r.probeStore(words); err != nil {
			return err
		}
	}
	r.spanSummary()
	return nil
}

// probeStore times the disk substrate: an operator flush and compaction on
// the recovered engine, raw segment lookups, and the tiered searcher, the
// last two on a private copy of the segment directory.
func (r *run) probeStore(words []string) error {
	e := r.bed.engine
	n := r.sz.layerCalls
	ctx := context.Background()
	// Three operator flushes of a tail that 200 rewritten rows left behind,
	// then one compaction of the segments they added.
	genes := e.DB().MustTable("Gene").Rows()
	var flushMS []float64
	for round := 0; round < 3; round++ {
		err := e.MutateDB(func(db *nebula.Database) error {
			gene := db.MustTable("Gene")
			for i := 0; i < min(200, len(genes)); i++ {
				cell := r.script.probes[(round+i)%len(r.script.probes)].body[:16]
				if err := gene.UpdateByKey(genes[i].ID.Key, "Seq", relational.String(cell)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("probe row updates: %w", err)
		}
		t0 := time.Now()
		if err := e.FlushStore(ctx); err != nil {
			return fmt.Errorf("probe FlushStore: %w", err)
		}
		flushMS = append(flushMS, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	r.set("segment.flush_ms", median(flushMS))
	t0 := time.Now()
	if err := e.CompactStore(ctx); err != nil {
		return fmt.Errorf("probe CompactStore: %w", err)
	}
	r.set("segment.compact_ms", float64(time.Since(t0).Nanoseconds())/1e6)

	copyDir := filepath.Join(r.dir, "probe-store")
	if err := copyTree(r.bed.storeDir(), copyDir); err != nil {
		return err
	}
	st, err := segment.Open(copyDir, nil, nebula.DefaultStoreMaxSegments)
	if err != nil {
		return err
	}
	defer st.Close()
	var dst []segment.Posting
	r.set("segment.lookup_us", timeCalls(n*10, func(i int) {
		dst = st.Lookup(strings.ToLower(words[i%len(words)]), dst[:0])
	})/1e3)

	tiered := keyword.NewTieredEngine(e.DB(), st, false)
	gen := sigmap.NewGenerator(e.Meta(), e.Options().Epsilon)
	batches := make([][]keyword.Query, len(r.script.probes))
	for i, nt := range r.script.probes {
		batches[i], _ = gen.Generate(nt.body)
	}
	var execErr error
	r.set("keyword.symbol_exec_ms", timeCalls(n, func(i int) {
		if _, _, err := tiered.ExecuteBatchContext(ctx, batches[i%len(batches)], true, keyword.Limits{MaxWorkers: 1}); err != nil {
			execErr = err
		}
	})/1e6)
	if execErr != nil {
		return fmt.Errorf("probe tiered ExecuteBatchContext: %w", execErr)
	}
	return nil
}
