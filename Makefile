# Build, test, and verification entry points. `make check` is the
# pre-commit gate, mirroring .github/workflows/ci.yml: gofmt + vet + build
# + full test suite + the whole module under the race detector (-short
# skips only the heavy soak matrices; the lifecycle stress cases always
# run).

GO ?= go

.PHONY: check fmt vet build test race escape api sim fuzz-smoke proc-smoke query-smoke churn-smoke bench bench-ab metrics-smoke watch-demo examples clean

check: fmt vet build test race

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./...

# Escape check: the rank hands every callback one reused Ctx, and
# rank.warm keeps its read-ahead slot buffer on the stack, so the compiler
# must never move a ctx/pctx or warm's slots to the heap in internal/core
# (an allocation per callback or per drain window on the hot path). The
# CI test job runs this.
escape:
	@out="$$($(GO) build -gcflags=-m ./internal/core 2>&1 | grep -E 'moved to heap: (p?ctx|slots)$$' || true)"; \
		if [ -n "$$out" ]; then echo "Hot-path buffer escapes to the heap:"; echo "$$out"; exit 1; fi

# Public-API size guard: the facade's `go doc -short .` listing (one line
# per exported name) must stay at or below 70 lines. The CI test job runs
# this.
api:
	@n=$$($(GO) doc -short . | wc -l); echo "go doc -short . : $$n lines (max 70)"; \
		if [ "$$n" -gt 70 ]; then echo "public API grew past 70 lines"; exit 1; fi

# Deterministic-simulation sweep: SIM_SEEDS seeds × every algorithm ×
# coalescing on/off under the seeded scheduler (see internal/sim), built
# with the invariants tag so the engine's soundness assertions run too.
# Replay any failing line from sim-failures.txt with SIM_REPLAY=....
SIM_SEEDS ?= 200
sim:
	SIM_SWEEP_SEEDS=$(SIM_SEEDS) SIM_SWEEP_OUT=$(CURDIR)/sim-failures.txt \
		$(GO) test -tags invariants ./internal/sim/ -run TestSimSweep -v

# Short native-fuzzing burst over every fuzz target (one -fuzz per
# invocation, as go test requires). FUZZTIME=30s matches the CI job.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test ./internal/stream/ -fuzz FuzzReadText -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/stream/ -fuzz FuzzReadBinary -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/core/ -fuzz FuzzReadCheckpoint -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/core/ -fuzz FuzzFrameDecode -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/sim/ -fuzz FuzzSimDifferential -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/sim/ -fuzz FuzzDeleteInterleaving -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./cmd/ingest/ -fuzz FuzzQueryRequest -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/graph/ -fuzz FuzzSegFind -fuzztime $(FUZZTIME) -run '^$$'

# Multi-OS-process loopback smoke: a real cluster run of cmd/ingest
# (PROCS processes joined over 127.0.0.1), its merged -dump shards diffed
# against a single-process run of the same dataset. See
# scripts/proc_smoke.sh.
proc-smoke:
	./scripts/proc_smoke.sh

# Mixed-workload smoke for the MVCC query plane: cmd/ingest with -serve,
# hammered through /query during live ingestion (epoch monotonicity), then
# exact-diffed against the converged -dump. See scripts/query_smoke.sh.
query-smoke:
	./scripts/query_smoke.sh

# Deletion-protocol smoke: cmd/ingest with -churn (live deletes and
# re-adds interleaved by gen.Churn) across every algorithm, each run
# -verify'd against a static recompute of the surviving topology; 1-rank
# cc and st runs that must re-point witnesses; and a determinism check
# (bfs, cc and st must -dump identically at 1 and 4 ranks). See
# scripts/churn_smoke.sh.
churn-smoke:
	./scripts/churn_smoke.sh

# The repository's benchmark (bench/, see bench/README.md): every workload,
# each in a fresh child process, checked against a static oracle. ARGS go to
# igbench, e.g. make bench ARGS='-workload sssp-r2 -trace 1'.
bench:
	sh bench/igbench.sh $(ARGS)

# A/B of the working tree against BASE on workload W: igbench built on both
# sides, PAIRS runs each in alternating order, then igbench -compare. See
# scripts/bench_ab.sh.
BASE ?= HEAD
W ?= con-r1
PAIRS ?= 10
bench-ab:
	BASE=$(BASE) W=$(W) PAIRS=$(PAIRS) ./scripts/bench_ab.sh $(ARGS)

# Telemetry-pipeline smoke: the exposition golden/lint tests — including
# the federated /cluster/metrics golden — plus the debug-endpoint suite
# (what the CI metrics job runs).
metrics-smoke:
	$(GO) test ./internal/metrics/ ./cmd/ingest/ -run 'Prom|Lint|Metrics|Stats|Debug|Lineage|Cluster|Flight' -v

# Live telemetry walkthrough: a small RMAT ingest with the -watch terminal
# view (rates, lag, p50/p99/p999). Scale up -rmat to watch longer.
watch-demo:
	$(GO) run ./cmd/ingest -rmat 18 -ranks 4 -algo bfs -sample 64 -watch

# Every example program; each panics on any divergence from its static
# baseline, so a clean exit is a real check of the public API (CI test job).
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/checkpoint
	$(GO) run ./examples/fraud
	$(GO) run ./examples/social
	$(GO) run ./examples/webcrawl

clean:
	$(GO) clean ./...
