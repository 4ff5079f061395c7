# Convenience targets; the repository builds with the plain Go toolchain
# (stdlib only, no module downloads needed).

GO ?= go

.PHONY: all build test race cover bench bench-parallel bench-plan bench-cache bench-trace bench-wal bench-stream bench-shard bench-store bench-scan run-server experiments examples fmt fmt-check vet check clean

all: build test

# Full pre-merge gate: static checks, build, race-enabled tests, the
# fault-injection / governance smoke suite, the fuzz seed corpora, the
# parallel-determinism + trace byte-identity suites with the cache-hit
# allocation budgets (engine and /v1/discover handler), the WAL
# crash-recovery matrix (cut the log at every boundary and interior byte;
# the recovered engine must match the durable prefix exactly), and the
# differential restore suites (the concurrent bulk-load restore against the
# one-insert-at-a-time reference, repeated under the race detector).
check:
	$(MAKE) fmt-check
	$(GO) vet ./...
	$(GO) vet ./cmd/...
	$(GO) build ./...
	$(GO) test -race ./...
	$(GO) test -run 'Fault|Inject|Governor|Deadline|Cancel|Budget|Degraded|Retry|Panic|Truncat|BitFlip|SaveFile' ./internal/faultinject/ ./internal/snapshot/ .
	$(GO) test -run Fuzz ./internal/sqlish/ ./internal/snapshot/ ./internal/wal/ ./internal/segment/ ./internal/relational/ ./internal/textutil/ .
	$(GO) test -run 'Determinis|Cache|Trace|Unicode' ./internal/cache/ ./internal/keyword/ ./internal/relational/ ./internal/trace/ ./internal/server/ .
	$(GO) test -race -run 'WAL' ./internal/wal/ .
	$(GO) test -race -count=5 -run 'Restore|Load|Snapshot' ./internal/snapshot/ ./internal/relational/ ./internal/annotation/ ./internal/acg/ .
	$(GO) test -race -run 'Plan|Golden|Estimate' ./internal/discovery/ ./internal/keyword/ ./internal/meta/
	$(GO) test -race -run 'Ingest|Stream|Queue' ./internal/ingest/ ./internal/bench/ ./internal/server/ .
	$(GO) test -race -run 'Shard' ./internal/shard/ .
	$(GO) test -race -run 'Segment|Store|Tiered' ./internal/segment/ ./internal/keyword/ .
	$(MAKE) bench-stream
	$(MAKE) bench-shard
	$(MAKE) bench-store
	$(MAKE) bench-scan

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

bench:
	$(GO) test -bench=. -benchmem ./... | tee bench_output.txt
	$(MAKE) bench-parallel

# Sequential vs parallel keyword-batch execution; the JSON artifact records
# the measured speedups (bounded by GOMAXPROCS) and the byte-identity check.
bench-parallel:
	$(GO) run ./cmd/nebulactl bench-parallel --size large --workers 2,4,8 --rounds 3 --out BENCH_parallel.json

# Cost-based planner: exhaustive vs planned top-k discovery over the stock
# workload (where sound pruning is rarely possible — the row proves the
# planner never trades exactness for speed) and the identifier-dense
# reference workload (the planner's target class); the JSON artifact records
# prune counts, scan counts, the speedup, and the byte-identity check.
bench-plan:
	$(GO) run ./cmd/nebulactl bench-plan --size large --topk 10 --rounds 3 --out BENCH_plan.json

# Measure the multi-level result cache: cold vs warm discovery sweeps at two
# dataset sizes; the JSON artifact records the speedup, hit rates, occupancy,
# and the byte-identity check against an uncached control engine.
bench-cache:
	$(GO) run ./cmd/nebulactl bench-cache --sizes small,mid --rounds 3 --out BENCH_cache.json

# Bound the observe-only tracing overhead: the same discovery sweep with
# tracing off and on; the JSON artifact records both timings, the overhead
# percentage, the span count, and the byte-identity check.
bench-trace:
	$(GO) run ./cmd/nebulactl bench-trace --size small --seed 42 --rounds 3 --out BENCH_trace.json

# Measure WAL mutation overhead: the same concurrent annotation-insert
# workload with no WAL, log-only, group commit, and fsync-per-append; the
# JSON artifact records per-op cost, overhead vs baseline, and the sync
# absorption that makes group commit cheaper than fsync-per-append.
bench-wal:
	$(GO) run ./cmd/nebulactl bench-wal --size tiny --seed 42 --writers 4 --mutations 400 --out BENCH_wal.json

# Measure the streaming ingest pipeline: async submission with interleaved
# drains, tuple mutations driving K-hop CDC re-discovery, and a convergence
# flush; the JSON artifact records queue counters, enqueue-to-attached
# freshness, and the byte-identity check against a synchronous from-scratch
# control engine. The grep enforces the identity contract on the artifact.
bench-stream:
	$(GO) run ./cmd/nebulactl bench-stream --size tiny --seed 42 --mutations 24 --drain-every 4 --out BENCH_stream.json
	grep -q '"identical": true' BENCH_stream.json

# Measure the hash-partitioned engine: a mixed write+discover workload at
# 1/2/4/8 shards (per-shard mutation locks and per-shard cache invalidation
# epochs) plus a sequential identity phase; the JSON artifact records
# throughput, cache hits, the speedup over the single-shard row, and the
# byte-identity check. The grep enforces the identity contract — and the
# command itself exits nonzero if any shard count diverges.
bench-shard:
	$(GO) run ./cmd/nebulactl bench-shard --size small --seed 42 --shards 1,2,4,8 --out BENCH_shard.json
	grep -q '"identical": true' BENCH_shard.json

# Disk-backed index substrate: restart from the same checkpoint in heap
# mode (deferred full re-index at first discovery) and disk mode (mmap'd
# segment files adopted via the snapshot-paired manifest), measuring time
# to first answer and resident heap; the JSON artifact records both rows.
# The grep enforces the identity contract — the post-restart discovery
# sweep must be byte-identical across substrates — and the command itself
# exits nonzero on divergence.
bench-store:
	$(GO) run ./cmd/nebulactl bench-store --size small --seed 42 --out BENCH_store.json
	grep -q '"identical": true' BENCH_store.json

# Shared-scan row kernel: the distinct structured queries of each dataset's
# whole workload as one exhaustive SelectMulti batch, through the
# Key()-per-row reference pass and the folded-hash kernel; the JSON artifact
# records ns/op, allocs/op and bytes/op of both. The grep enforces the
# identity contract — same rows, same order, same stats — and the command
# itself exits nonzero on divergence.
bench-scan:
	$(GO) run ./cmd/nebulactl bench-scan --size mid,large --seed 42 --out BENCH_scan.json
	grep -q '"identical": true' BENCH_scan.json

# Serving smoke test: boot nebulad on an ephemeral port, hit /healthz, run
# one discovery round trip, SIGTERM it, and verify the drain snapshot
# reloads — all self-driven by the daemon's --smoke mode.
run-server:
	$(GO) run ./cmd/nebulad --smoke

experiments:
	$(GO) run ./cmd/nebulactl experiment --figure all --size small

experiments-large:
	$(GO) run ./cmd/nebulactl experiment --figure all --size large

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/biocuration
	$(GO) run ./examples/audit
	$(GO) run ./examples/propagation

fmt:
	gofmt -w .

# Fail if any file needs reformatting (gofmt -l prints offenders; the test
# fails the target when the list is non-empty).
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

clean:
	rm -f bench_output.txt test_output.txt nebula-state.gob
