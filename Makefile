# Convenience targets; the repository builds with the plain Go toolchain
# (stdlib only, no module downloads needed).

GO ?= go

.PHONY: all build test race cover bench run-server experiments experiments-large examples fmt fmt-check vet check clean

all: build test

# Full pre-merge gate: static checks and the smoke test of the nested
# benchmark module (which `go test ./...` never builds; the smoke test runs
# every workload at Tiny size, the durability, render and torn-tail checks
# included), build, race-enabled tests, the
# fault-injection / governance smoke suite, the fuzz seed corpora, the
# determinism, cache, trace and Unicode suites (parallel determinism, cache
# on/off and trace byte-identity, the cache-hit allocation budgets of the
# engine and the /v1/discover handler), every command run
# twice in one process (state must not leak between runs), the WAL
# crash-recovery matrix (cut the log at every boundary and interior byte;
# the recovered engine must match the durable prefix exactly), the
# differential restore suites (the concurrent bulk-load restore against the
# one-insert-at-a-time reference, repeated under the race detector, beside
# the scan kernel's hash columns and hash orders held to every row
# mutation), the
# ACG and annotation-store model invariants with their retained-heap
# budgets per edge, and the ingest, shard and segment identity suites
# under -race.
# Performance is measured by benchmark/ (see benchmark/README.md), not here.
check:
	$(MAKE) fmt-check
	$(GO) vet ./...
	$(GO) vet ./cmd/...
	cd benchmark && $(GO) vet ./...
	cd benchmark && $(GO) test ./...
	$(GO) build ./...
	$(GO) test -race ./...
	$(GO) test -run 'Fault|Inject|Governor|Deadline|Cancel|Budget|Degraded|Retry|Panic|Truncat|BitFlip|SaveFile' ./internal/faultinject/ ./internal/snapshot/ .
	$(GO) test -run Fuzz ./internal/sqlish/ ./internal/snapshot/ ./internal/wal/ ./internal/segment/ ./internal/relational/ ./internal/textutil/ .
	$(GO) test -run 'Determinis|Cache|Trace|Unicode' ./internal/cache/ ./internal/keyword/ ./internal/relational/ ./internal/server/ .
	$(GO) test -count=2 ./cmd/...
	$(GO) test -race -run 'WAL' ./internal/wal/ .
	$(GO) test -race -count=5 -run 'Restore|Load|Snapshot|Folded' ./internal/snapshot/ ./internal/relational/ ./internal/annotation/ ./internal/acg/ .
	$(GO) test -count=3 -run 'Heap|Invariant' ./internal/acg/ ./internal/annotation/
	$(GO) test -race -run 'Ingest|Stream|Queue' ./internal/ingest/ ./internal/server/ .
	$(GO) test -race -run 'Shard' ./internal/shard/ .
	$(GO) test -race -run 'Segment|Store|Tiered' ./internal/segment/ ./internal/keyword/ .

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
	rm -f bench_output.txt test_output.txt nebula-state.nebsnap
