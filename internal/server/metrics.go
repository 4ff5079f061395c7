package server

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"nebula"
	"nebula/internal/keyword"
)

// latencyBuckets are the histogram upper bounds in seconds, spanning
// sub-millisecond index hits to multi-second governed scans.
var latencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// histogram is a fixed-bucket latency histogram (cumulative counts are
// computed at render time, so observation is a single index increment).
type histogram struct {
	counts []int64 // one per bucket, plus a final +Inf slot
	sum    float64
	total  int64
}

func newHistogram() *histogram {
	return &histogram{counts: make([]int64, len(latencyBuckets)+1)}
}

func (h *histogram) observe(seconds float64) {
	h.counts[sort.SearchFloat64s(latencyBuckets, seconds)]++
	h.sum += seconds
	h.total++
}

// runOutcome classifies one engine run for the counters.
type runOutcome int

const (
	runOK runOutcome = iota
	runBudgetExceeded
	runCancelled
	runInternalError
)

// recentLatencyWindow sizes the ring of recently completed request
// durations backing the Retry-After estimate: large enough to smooth one
// odd request, small enough that the estimate tracks load shifts.
const recentLatencyWindow = 32

// metrics is the server's counter registry. Everything is guarded by one
// mutex — the serving path touches it a handful of times per request, which
// is noise next to a discovery run.
type metrics struct {
	mu sync.Mutex

	requests  map[requestKey]int64
	latencies map[string]*histogram
	rejected  map[string]int64 // reason → count

	// recentLat is a ring of the last completed request durations in
	// seconds (recentIdx = next write slot, recentN = valid entries).
	recentLat [recentLatencyWindow]float64
	recentIdx int
	recentN   int

	queueDepthPeak int
	admittedTotal  int64

	degradedRuns   int64
	budgetExceeded int64
	cancelledRuns  int64
	internalErrors int64
	panics         int64

	execWorkersMax  int
	parallelBatches int64
	structuredQs    int64
	sharedQs        int64
	tuplesScanned   int64
	cacheHits       int64

	snapshotSaves int64
	snapshotLoads int64
}

// requestKey labels one nebula_requests_total series. The labels are
// rendered only when /metrics is scraped, never while a request holds mu.
type requestKey struct {
	endpoint string
	code     int
}

func newMetrics() *metrics {
	return &metrics{
		requests:  make(map[requestKey]int64),
		latencies: make(map[string]*histogram),
		rejected:  make(map[string]int64),
	}
}

func (m *metrics) observeRequest(endpoint string, code int, elapsed time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests[requestKey{endpoint, code}]++
	h := m.latencies[endpoint]
	if h == nil {
		h = newHistogram()
		m.latencies[endpoint] = h
	}
	h.observe(elapsed.Seconds())
	// Shed requests (429/503) finish in microseconds; folding them into the
	// ring would collapse the mean exactly when the server is overloaded and
	// the Retry-After estimate matters most. Only served work counts.
	if code != 429 && code != 503 {
		m.recentLat[m.recentIdx] = elapsed.Seconds()
		m.recentIdx = (m.recentIdx + 1) % recentLatencyWindow
		if m.recentN < recentLatencyWindow {
			m.recentN++
		}
	}
}

// recentMeanLatency is the mean duration of the last completed requests
// (up to recentLatencyWindow of them), or 0 with no history yet. It feeds
// the Retry-After estimate: queue position times this mean approximates
// how long a shed client would have waited.
func (m *metrics) recentMeanLatency() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.recentN == 0 {
		return 0
	}
	sum := 0.0
	for i := 0; i < m.recentN; i++ {
		sum += m.recentLat[i]
	}
	return sum / float64(m.recentN)
}

func (m *metrics) observeRejection(reason string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rejected[reason]++
}

// observeAdmission records one pass through the admission queue; depth is
// the queue occupancy the request saw on entry.
func (m *metrics) observeAdmission(depth int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.admittedTotal++
	if depth > m.queueDepthPeak {
		m.queueDepthPeak = depth
	}
}

// observeRun folds one discovery/process outcome into the run counters:
// degraded-but-complete runs, budget-interrupted runs, and cancellations
// stay distinguishable from clean successes.
func (m *metrics) observeRun(degraded []string, outcome runOutcome, stats keyword.ExecStats) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(degraded) > 0 {
		m.degradedRuns++
	}
	switch outcome {
	case runBudgetExceeded:
		m.budgetExceeded++
	case runCancelled:
		m.cancelledRuns++
	case runInternalError:
		m.internalErrors++
	}
	if stats.Workers > m.execWorkersMax {
		m.execWorkersMax = stats.Workers
	}
	m.parallelBatches += int64(stats.ParallelBatches)
	m.structuredQs += int64(stats.StructuredQueries)
	m.sharedQs += int64(stats.SharedQueries)
	m.tuplesScanned += int64(stats.TuplesScanned)
	m.cacheHits += int64(stats.CacheHits)
}

func (m *metrics) observePanic() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.panics++
}

func (m *metrics) observeSnapshot(load bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if load {
		m.snapshotLoads++
	} else {
		m.snapshotSaves++
	}
}

// render writes the registry in the Prometheus text exposition format.
// Output is sorted so scrapes (and tests) see a stable document.
func (m *metrics) render(w io.Writer, queued, inflight int, draining bool) {
	m.mu.Lock()
	defer m.mu.Unlock()

	fmt.Fprintf(w, "# TYPE nebula_requests_total counter\n")
	requests := make([]requestKey, 0, len(m.requests))
	for k := range m.requests {
		requests = append(requests, k)
	}
	// By endpoint, then code: the order of the exposition text's series.
	slices.SortFunc(requests, func(a, b requestKey) int {
		return cmp.Or(strings.Compare(a.endpoint, b.endpoint), cmp.Compare(a.code, b.code))
	})
	for _, k := range requests {
		fmt.Fprintf(w, "nebula_requests_total{endpoint=%q,code=\"%d\"} %d\n", k.endpoint, k.code, m.requests[k])
	}

	fmt.Fprintf(w, "# TYPE nebula_rejected_total counter\n")
	for _, reason := range sortedKeys(m.rejected) {
		fmt.Fprintf(w, "nebula_rejected_total{reason=%q} %d\n", reason, m.rejected[reason])
	}

	fmt.Fprintf(w, "# TYPE nebula_queue_depth gauge\nnebula_queue_depth %d\n", queued)
	fmt.Fprintf(w, "# TYPE nebula_queue_depth_peak gauge\nnebula_queue_depth_peak %d\n", m.queueDepthPeak)
	fmt.Fprintf(w, "# TYPE nebula_inflight gauge\nnebula_inflight %d\n", inflight)
	fmt.Fprintf(w, "# TYPE nebula_draining gauge\nnebula_draining %d\n", boolGauge(draining))
	fmt.Fprintf(w, "# TYPE nebula_admitted_total counter\nnebula_admitted_total %d\n", m.admittedTotal)

	fmt.Fprintf(w, "# TYPE nebula_runs_degraded_total counter\nnebula_runs_degraded_total %d\n", m.degradedRuns)
	fmt.Fprintf(w, "# TYPE nebula_runs_budget_exceeded_total counter\nnebula_runs_budget_exceeded_total %d\n", m.budgetExceeded)
	fmt.Fprintf(w, "# TYPE nebula_runs_cancelled_total counter\nnebula_runs_cancelled_total %d\n", m.cancelledRuns)
	fmt.Fprintf(w, "# TYPE nebula_runs_internal_error_total counter\nnebula_runs_internal_error_total %d\n", m.internalErrors)
	fmt.Fprintf(w, "# TYPE nebula_panics_total counter\nnebula_panics_total %d\n", m.panics)

	fmt.Fprintf(w, "# TYPE nebula_exec_workers_max gauge\nnebula_exec_workers_max %d\n", m.execWorkersMax)
	fmt.Fprintf(w, "# TYPE nebula_exec_parallel_batches_total counter\nnebula_exec_parallel_batches_total %d\n", m.parallelBatches)
	fmt.Fprintf(w, "# TYPE nebula_exec_structured_queries_total counter\nnebula_exec_structured_queries_total %d\n", m.structuredQs)
	fmt.Fprintf(w, "# TYPE nebula_exec_shared_queries_total counter\nnebula_exec_shared_queries_total %d\n", m.sharedQs)
	fmt.Fprintf(w, "# TYPE nebula_exec_tuples_scanned_total counter\nnebula_exec_tuples_scanned_total %d\n", m.tuplesScanned)
	fmt.Fprintf(w, "# TYPE nebula_exec_cache_hits_total counter\nnebula_exec_cache_hits_total %d\n", m.cacheHits)

	fmt.Fprintf(w, "# TYPE nebula_snapshot_saves_total counter\nnebula_snapshot_saves_total %d\n", m.snapshotSaves)
	fmt.Fprintf(w, "# TYPE nebula_snapshot_loads_total counter\nnebula_snapshot_loads_total %d\n", m.snapshotLoads)

	fmt.Fprintf(w, "# TYPE nebula_request_seconds histogram\n")
	for _, endpoint := range sortedKeys(m.latencies) {
		h := m.latencies[endpoint]
		var cum int64
		for i, le := range latencyBuckets {
			cum += h.counts[i]
			fmt.Fprintf(w, "nebula_request_seconds_bucket{endpoint=%q,le=\"%g\"} %d\n", endpoint, le, cum)
		}
		cum += h.counts[len(latencyBuckets)]
		fmt.Fprintf(w, "nebula_request_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", endpoint, cum)
		fmt.Fprintf(w, "nebula_request_seconds_sum{endpoint=%q} %g\n", endpoint, h.sum)
		fmt.Fprintf(w, "nebula_request_seconds_count{endpoint=%q} %d\n", endpoint, h.total)
	}
}

// renderCacheMetrics writes the engine's live cache series: hit/miss/
// eviction/invalidation counters plus occupancy gauges of the discovery
// cache, the one layer, each labelled layer="discovery". Unlike the
// counters above these read straight from the engine, so a snapshot load
// (fresh engine, cold cache) legitimately resets them.
func renderCacheMetrics(w io.Writer, cs nebula.CacheStats) {
	fmt.Fprintf(w, "# TYPE nebula_cache_enabled gauge\nnebula_cache_enabled %d\n", boolGauge(cs.Enabled))
	d := cs.Discovery
	for _, m := range []struct {
		series, typ string
		value       int64
	}{
		{"nebula_cache_hits_total", "counter", d.Hits},
		{"nebula_cache_misses_total", "counter", d.Misses},
		{"nebula_cache_evictions_total", "counter", d.Evictions},
		{"nebula_cache_invalidations_total", "counter", d.Invalidations},
		{"nebula_cache_entries", "gauge", int64(d.Entries)},
		{"nebula_cache_bytes", "gauge", d.Bytes},
		{"nebula_cache_max_bytes", "gauge", d.MaxBytes},
	} {
		fmt.Fprintf(w, "# TYPE %s %s\n%s{layer=\"discovery\"} %d\n", m.series, m.typ, m.series, m.value)
	}
}

// renderWALMetrics writes the engine's durability series: append/sync
// counters and fsync latency from the write-ahead log, checkpoint counts,
// the boot-time replay summary, and the snapshot layer's directory-sync
// failure counter (satellite of the same durability story: a dir-sync
// failure means a just-renamed snapshot may not survive a crash). All
// series render even without a WAL attached, so dashboards do not break
// on a WAL-less deployment — nebula_wal_attached distinguishes the modes.
func renderWALMetrics(w io.Writer, ws nebula.WALStats, dirSyncFailures int64) {
	fmt.Fprintf(w, "# TYPE nebula_wal_attached gauge\nnebula_wal_attached %d\n", boolGauge(ws.Attached))
	fmt.Fprintf(w, "# TYPE nebula_wal_appended_records_total counter\nnebula_wal_appended_records_total %d\n", ws.Log.Appended)
	fmt.Fprintf(w, "# TYPE nebula_wal_appended_bytes_total counter\nnebula_wal_appended_bytes_total %d\n", ws.Log.AppendedBytes)
	fmt.Fprintf(w, "# TYPE nebula_wal_durable_records counter\nnebula_wal_durable_records %d\n", ws.Log.Durable)
	fmt.Fprintf(w, "# TYPE nebula_wal_syncs_total counter\nnebula_wal_syncs_total %d\n", ws.Log.Syncs)
	fmt.Fprintf(w, "# TYPE nebula_wal_syncs_absorbed_total counter\nnebula_wal_syncs_absorbed_total %d\n", ws.Log.SyncAbsorbed)
	fmt.Fprintf(w, "# TYPE nebula_wal_sync_seconds_total counter\nnebula_wal_sync_seconds_total %g\n", float64(ws.Log.SyncNanos)/1e9)
	fmt.Fprintf(w, "# TYPE nebula_wal_rotations_total counter\nnebula_wal_rotations_total %d\n", ws.Log.Rotations)
	fmt.Fprintf(w, "# TYPE nebula_wal_active_segment gauge\nnebula_wal_active_segment %d\n", ws.Log.ActiveSegment)
	fmt.Fprintf(w, "# TYPE nebula_wal_checkpoints_total counter\nnebula_wal_checkpoints_total %d\n", ws.Checkpoints)
	fmt.Fprintf(w, "# TYPE nebula_wal_replay_records counter\nnebula_wal_replay_records %d\n", ws.Replay.Records)
	fmt.Fprintf(w, "# TYPE nebula_wal_replay_searches counter\nnebula_wal_replay_searches %d\n", ws.Replay.Searches)
	fmt.Fprintf(w, "# TYPE nebula_wal_replay_seconds gauge\nnebula_wal_replay_seconds %g\n", ws.Replay.Duration.Seconds())
	fmt.Fprintf(w, "# TYPE nebula_wal_replay_corrupt_tail gauge\nnebula_wal_replay_corrupt_tail %d\n", boolGauge(ws.Replay.CorruptTail))
	fmt.Fprintf(w, "# TYPE nebula_wal_replay_discarded_bytes gauge\nnebula_wal_replay_discarded_bytes %d\n", ws.Replay.DiscardedBytes)
	fmt.Fprintf(w, "# TYPE nebula_snapshot_dirsync_failures_total counter\nnebula_snapshot_dirsync_failures_total %d\n", dirSyncFailures)
}

// renderRestoreMetrics writes the boot-time snapshot restore summary beside
// the WAL replay one: together they are the restart's cost. The stages run
// one after the other; total also covers reading the file and building the
// engine around the restored state. All zero for an engine that was not
// restored from a snapshot.
func renderRestoreMetrics(w io.Writer, rs nebula.RestoreStats) {
	fmt.Fprintf(w, "# TYPE nebula_snapshot_restore_seconds gauge\n")
	for _, stage := range []struct {
		name    string
		seconds float64
	}{{"verify", rs.VerifySeconds}, {"decode", rs.DecodeSeconds}, {"build", rs.BuildSeconds}, {"total", rs.TotalSeconds}} {
		fmt.Fprintf(w, "nebula_snapshot_restore_seconds{stage=%q} %g\n", stage.name, stage.seconds)
	}
	fmt.Fprintf(w, "# TYPE nebula_snapshot_restore_bytes gauge\nnebula_snapshot_restore_bytes %d\n", rs.Bytes)
}

// renderIngestMetrics writes the streaming-ingest series: queue depth and
// lag, admission/coalescing/drop counters, drain outcomes, and the
// enqueue→attached freshness aggregate. Like the cache series these read
// straight from the engine, so a snapshot load resets them with it.
func renderIngestMetrics(w io.Writer, is nebula.IngestStats) {
	fmt.Fprintf(w, "# TYPE nebula_ingest_enabled gauge\nnebula_ingest_enabled %d\n", boolGauge(is.Enabled))
	fmt.Fprintf(w, "# TYPE nebula_ingest_queue_depth gauge\nnebula_ingest_queue_depth %d\n", is.QueueDepth)
	fmt.Fprintf(w, "# TYPE nebula_ingest_queue_cap gauge\nnebula_ingest_queue_cap %d\n", is.QueueCap)
	fmt.Fprintf(w, "# TYPE nebula_ingest_oldest_wait_seconds gauge\nnebula_ingest_oldest_wait_seconds %g\n", float64(is.OldestWaitMS)/1e3)
	fmt.Fprintf(w, "# TYPE nebula_ingest_enqueued_total counter\nnebula_ingest_enqueued_total %d\n", is.Enqueued)
	fmt.Fprintf(w, "# TYPE nebula_ingest_coalesced_total counter\nnebula_ingest_coalesced_total %d\n", is.Coalesced)
	fmt.Fprintf(w, "# TYPE nebula_ingest_dropped_total counter\nnebula_ingest_dropped_total %d\n", is.Dropped)
	fmt.Fprintf(w, "# TYPE nebula_ingest_rediscoveries_total counter\nnebula_ingest_rediscoveries_total %d\n", is.Rediscoveries)
	fmt.Fprintf(w, "# TYPE nebula_ingest_done_total counter\nnebula_ingest_done_total %d\n", is.Done)
	fmt.Fprintf(w, "# TYPE nebula_ingest_drains_total counter\nnebula_ingest_drains_total %d\n", is.Drains)
	fmt.Fprintf(w, "# TYPE nebula_ingest_requeued_total counter\nnebula_ingest_requeued_total %d\n", is.Requeued)
	fmt.Fprintf(w, "# TYPE nebula_ingest_skipped_total counter\nnebula_ingest_skipped_total %d\n", is.Skipped)
	fmt.Fprintf(w, "# TYPE nebula_ingest_failed_total counter\nnebula_ingest_failed_total %d\n", is.Failed)
	fmt.Fprintf(w, "# TYPE nebula_ingest_freshness_seconds_sum counter\nnebula_ingest_freshness_seconds_sum %g\n", is.MeanFreshnessMS*float64(is.FreshnessJobs)/1e3)
	fmt.Fprintf(w, "# TYPE nebula_ingest_freshness_seconds_count counter\nnebula_ingest_freshness_seconds_count %d\n", is.FreshnessJobs)
}

// renderSegmentMetrics writes the disk-backed index series: live segment
// counts and sizes, flush/compaction/fallback counters, and the in-heap
// tail the segments have not absorbed yet. All zero (enabled 0) when the
// engine runs the pure in-heap index.
func renderSegmentMetrics(w io.Writer, ss nebula.StoreStats) {
	fmt.Fprintf(w, "# TYPE nebula_segment_enabled gauge\nnebula_segment_enabled %d\n", boolGauge(ss.Enabled))
	fmt.Fprintf(w, "# TYPE nebula_segment_files gauge\nnebula_segment_files %d\n", ss.Store.Segments)
	fmt.Fprintf(w, "# TYPE nebula_segment_terms gauge\nnebula_segment_terms %d\n", ss.Store.Terms)
	fmt.Fprintf(w, "# TYPE nebula_segment_postings gauge\nnebula_segment_postings %d\n", ss.Store.Postings)
	fmt.Fprintf(w, "# TYPE nebula_segment_size_bytes gauge\nnebula_segment_size_bytes %d\n", ss.Store.SizeBytes)
	fmt.Fprintf(w, "# TYPE nebula_segment_generation gauge\nnebula_segment_generation %d\n", ss.Store.Seq)
	fmt.Fprintf(w, "# TYPE nebula_segment_tail_terms gauge\nnebula_segment_tail_terms %d\n", ss.TailTerms)
	fmt.Fprintf(w, "# TYPE nebula_segment_tail_postings gauge\nnebula_segment_tail_postings %d\n", ss.TailPostings)
	fmt.Fprintf(w, "# TYPE nebula_segment_dirty_rows gauge\nnebula_segment_dirty_rows %d\n", ss.DirtyRows)
	fmt.Fprintf(w, "# TYPE nebula_segment_full_pending gauge\nnebula_segment_full_pending %d\n", boolGauge(ss.FullPending))
	fmt.Fprintf(w, "# TYPE nebula_segment_flushes_total counter\nnebula_segment_flushes_total %d\n", ss.Store.Flushes)
	fmt.Fprintf(w, "# TYPE nebula_segment_flushed_postings_total counter\nnebula_segment_flushed_postings_total %d\n", ss.Store.FlushedPostings)
	fmt.Fprintf(w, "# TYPE nebula_segment_compactions_total counter\nnebula_segment_compactions_total %d\n", ss.Store.Compactions)
	fmt.Fprintf(w, "# TYPE nebula_segment_compact_errors_total counter\nnebula_segment_compact_errors_total %d\n", ss.Store.CompactErrors)
	fmt.Fprintf(w, "# TYPE nebula_segment_replaced_total counter\nnebula_segment_replaced_total %d\n", ss.Store.SegmentsReplaced)
	fmt.Fprintf(w, "# TYPE nebula_segment_manifest_fallbacks_total counter\nnebula_segment_manifest_fallbacks_total %d\n", ss.Store.Fallbacks)
	fmt.Fprintf(w, "# TYPE nebula_segment_resets_total counter\nnebula_segment_resets_total %d\n", ss.Store.Resets)
	fmt.Fprintf(w, "# TYPE nebula_segment_lookups_total counter\nnebula_segment_lookups_total %d\n", ss.Store.Lookups)
}

// renderShardMetrics writes the sharding series: the configured shard
// count plus per-shard gauges for homed annotations, their attachment
// edges, the distinct rows those edges touch, and the shard's mutation
// counter. Single-shard engines render one shard owning everything, so
// dashboards work unchanged across deployments.
func renderShardMetrics(w io.Writer, ss nebula.ShardStats) {
	fmt.Fprintf(w, "# TYPE nebula_shards gauge\nnebula_shards %d\n", ss.Shards)
	emit := func(series, typ string, value func(nebula.ShardStat) int64) {
		fmt.Fprintf(w, "# TYPE %s %s\n", series, typ)
		for _, s := range ss.PerShard {
			fmt.Fprintf(w, "%s{shard=\"%d\"} %d\n", series, s.Shard, value(s))
		}
	}
	emit("nebula_shard_annotations", "gauge", func(s nebula.ShardStat) int64 { return int64(s.Annotations) })
	emit("nebula_shard_attachments", "gauge", func(s nebula.ShardStat) int64 { return int64(s.Attachments) })
	emit("nebula_shard_rows", "gauge", func(s nebula.ShardStat) int64 { return int64(s.Tuples) })
	emit("nebula_shard_mutations_total", "counter", func(s nebula.ShardStat) int64 { return int64(s.Mutations) })
}

func boolGauge(b bool) int {
	if b {
		return 1
	}
	return 0
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
