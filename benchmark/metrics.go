package main

// metricDef names one metric of BENCHMARK.json; the smoke test holds the two
// lists below against that file, so neither can drift from the other.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: the share of the parent's median it may worsen by
}

// endToEnd is what a user of the system sees, emitted for every workload by
// an untraced run. failed_share is not among them: a metric must never read
// 0, and the workloads are chosen so that nothing fails; failures are the
// result line's attempted/failed pair and fail the run. Nor is read_p95_ms:
// it equals op_p95_ms wherever the primary operation is the read, and on
// curate_mixed it spread 16 to 36 % between runs of the same code, against a
// largest allowed bound of 25 % (see README.md); it is shard.read_p95_ms among
// the per-layer metrics.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p95_ms", "ms", "lower", 0.25},
	{"recover_s", "s", "lower", 0.25},
	{"wal_bytes_per_user_byte", "ratio", "lower", 0.25},
	{"disk_bytes_per_user_byte", "ratio", "lower", 0.02},
	{"heap_mb", "MiB", "lower", 0.05},
	{"recall_share", "ratio", "higher", 0.02},
	{"fp_share", "ratio", "lower", 0.05},
}

// perLayer is what a traced run emits, one group per module. A layer that a
// workload does not exercise reads 0 there.
var perLayer = []metricDef{
	{name: "server.roundtrip_p50_ms", unit: "ms", better: "lower"},
	{name: "server.shed_share", unit: "ratio", better: "lower"},
	{name: "server.json_kb_per_op", unit: "KiB", better: "lower"},
	{name: "cache.hit_share", unit: "ratio", better: "higher"},
	{name: "cache.lower_hit_share", unit: "ratio", better: "higher"},
	{name: "cache.evictions", unit: "count", better: "lower"},
	{name: "cache.bytes_mb", unit: "MiB", better: "lower"},
	{name: "cache.get_ns", unit: "ns", better: "lower"},
	{name: "shard.mutation_skew", unit: "ratio", better: "lower"},
	{name: "shard.survive_share", unit: "ratio", better: "higher"},
	{name: "shard.read_p95_ms", unit: "ms", better: "lower"},
	{name: "sigmap.generate_ms", unit: "ms", better: "lower"},
	{name: "sigmap.queries_per_ann", unit: "count", better: "lower"},
	{name: "meta.value_match_us", unit: "us", better: "lower"},
	{name: "meta.estimate_us", unit: "us", better: "lower"},
	{name: "keyword.execute_ms", unit: "ms", better: "lower"},
	{name: "keyword.structured_per_query", unit: "count", better: "lower"},
	{name: "keyword.symbol_exec_ms", unit: "ms", better: "lower"},
	{name: "relational.scan_ms", unit: "ms", better: "lower"},
	{name: "relational.rows_scanned_per_result", unit: "count", better: "lower"},
	{name: "relational.scan_alloc_kb", unit: "KiB", better: "lower"},
	{name: "discovery.identify_ms", unit: "ms", better: "lower"},
	{name: "discovery.rank_ms", unit: "ms", better: "lower"},
	{name: "discovery.adjust_focal_ms", unit: "ms", better: "lower"},
	{name: "discovery.candidates_per_op", unit: "count", better: "lower"},
	{name: "acg.hops_ms", unit: "ms", better: "lower"},
	{name: "acg.affected_ms", unit: "ms", better: "lower"},
	{name: "acg.nodes", unit: "count", better: "lower"},
	{name: "acg.edges", unit: "count", better: "lower"},
	{name: "verification.submit_ms", unit: "ms", better: "lower"},
	{name: "verification.verdict_ms", unit: "ms", better: "lower"},
	{name: "verification.pending_depth", unit: "count", better: "lower"},
	{name: "verification.auto_accept_share", unit: "ratio", better: "higher"},
	{name: "annotation.add_ms", unit: "ms", better: "lower"},
	{name: "annotation.propagate_ms", unit: "ms", better: "lower"},
	{name: "ingest.enqueue_us", unit: "us", better: "lower"},
	{name: "ingest.drain_ms_per_job", unit: "ms", better: "lower"},
	{name: "ingest.fresh_p50_ms", unit: "ms", better: "lower"},
	{name: "ingest.fresh_p95_ms", unit: "ms", better: "lower"},
	{name: "ingest.cdc_jobs_per_mutation", unit: "count", better: "lower"},
	{name: "ingest.coalesced_share", unit: "ratio", better: "higher"},
	{name: "ingest.dropped", unit: "count", better: "lower"},
	{name: "wal.append_us", unit: "us", better: "lower"},
	{name: "wal.fsync_ms", unit: "ms", better: "lower"},
	{name: "wal.syncs_per_write", unit: "ratio", better: "lower"},
	{name: "wal.absorbed_share", unit: "ratio", better: "higher"},
	{name: "wal.bytes_per_record", unit: "B", better: "lower"},
	{name: "wal.replay_ms_per_record", unit: "ms", better: "lower"},
	{name: "snapshot.checkpoint_s", unit: "s", better: "lower"},
	{name: "snapshot.restore_s", unit: "s", better: "lower"},
	{name: "snapshot.bytes_mb", unit: "MiB", better: "lower"},
	{name: "segment.flush_ms", unit: "ms", better: "lower"},
	{name: "segment.lookup_us", unit: "us", better: "lower"},
	{name: "segment.count", unit: "count", better: "lower"},
	{name: "segment.bytes_mb", unit: "MiB", better: "lower"},
	{name: "segment.compact_ms", unit: "ms", better: "lower"},
	{name: "textutil.jw_ns", unit: "ns", better: "lower"},
	{name: "textutil.tokenize_us", unit: "us", better: "lower"},
	{name: "proc.alloc_kb_per_op", unit: "KiB", better: "lower"},
	{name: "proc.gc_cpu_share", unit: "ratio", better: "lower"},
	{name: "proc.gc_pause_p95_ms", unit: "ms", better: "lower"},
	{name: "harness.gen_s", unit: "s", better: "lower"},
	{name: "harness.trace_overhead_share", unit: "ratio", better: "lower"},
}
