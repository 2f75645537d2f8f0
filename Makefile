# Single source of truth for the build/test/fuzz/bench commands; the CI
# workflow (.github/workflows/ci.yml) invokes these same targets.

# bash for pipefail: bench-compare pipes `go test` into the comparison
# script and must fail when the benchmark run itself fails mid-suite.
SHELL := /bin/bash

GO ?= go

.PHONY: all build vet lint fmt-check test test-norace chaos-smoke chaos-restart chaos-failover fuzz-smoke bench-smoke bench bench-ab run-dmcd ci

all: build vet lint fmt-check test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The project's own analyzer suite (cmd/dmclint): faultpoint, lockheld,
# poolescape, atomicmix — see the "Static analysis" section of the
# README. It runs twice: standalone, which adds the module-global
# checks, and as go vet's -vettool, which adds the test files; the tool
# binary is built under .bench_build. staticcheck and govulncheck run
# when installed (CI installs them; offline checkouts skip without
# failing).
lint:
	$(GO) run ./cmd/dmclint ./...
	$(GO) build -o .bench_build/dmclint ./cmd/dmclint
	$(GO) vet -vettool=$(CURDIR)/.bench_build/dmclint ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
		else echo "lint: staticcheck not installed; skipping"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
		else echo "lint: govulncheck not installed; skipping"; fi

# Fails (and lists the offenders) when any file needs gofmt.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

test:
	$(GO) test -race ./...

# The same suite without the race detector. Allocation pins and
# CG-scale solves skip under -race (TestSessionFootprint,
# TestServedSolveAllocs, TestCGPoolAllocationsPerColumn,
# TestCGConvergesAtScale, and the allocation checks that end
# TestQualityUpperBound and TestRiskReportMatchesSolution), so this is
# the run that checks them.
test-norace:
	$(GO) test ./...

# The serving stack's chaos drill: the fault-storm invariant test
# (internal/serve TestChaosFleetSurvivesFaultStorms) at full length —
# CHAOS_ITERS randomized storms under the race detector. The regular
# `make test` runs the same test at a few iterations; this target is
# the long soak CI runs on the serving path.
CHAOS_ITERS ?= 100
chaos-smoke:
	DMC_CHAOS_ITERS=$(CHAOS_ITERS) $(GO) test -race -count=1 -run '^TestChaosFleetSurvivesFaultStorms$$' -v ./internal/serve

# The durability chaos drill: RESTART_ITERS kill-9/restart cycles of a
# loaded fleet under seeded fault storms (internal/serve
# TestCrashRestartFleet), each cycle tearing the journal and asserting
# restored estimator state matches an uninterrupted reference exactly.
# `make test` runs the same test at 2 cycles; this is the long soak.
RESTART_ITERS ?= 10
chaos-restart:
	DMC_RESTART_ITERS=$(RESTART_ITERS) $(GO) test -race -count=1 -run '^TestCrashRestartFleet$$' -v ./internal/serve

# The replication chaos drill: FAILOVER_ITERS kill-9/promote cycles of
# a loaded primary/standby pair in sync-ack mode under seeded fault
# storms (internal/serve TestFailoverFleet), each cycle promoting the
# standby, fencing the dead primary's stale incarnation, and rejoining
# it as a follower — asserting bit-exact estimator state and zero
# acked-write loss across every failover. `make test` runs the same
# test at 2 cycles; this is the long soak.
FAILOVER_ITERS ?= 10
chaos-failover:
	DMC_FAILOVER_ITERS=$(FAILOVER_ITERS) $(GO) test -race -count=1 -run '^TestFailoverFleet$$' -v ./internal/serve

# Ten seconds per seed fuzz target. `go test -fuzz` accepts exactly one
# target per invocation, so each runs separately.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzSolveSmallLP$$' -fuzztime=$(FUZZTIME) ./internal/lp
	$(GO) test -run='^$$' -fuzz='^FuzzRevisedMatchesExact$$' -fuzztime=$(FUZZTIME) ./internal/lp
	$(GO) test -run='^$$' -fuzz='^FuzzCGMatchesDense$$' -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz='^FuzzPricerMatchesEnumeration$$' -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz='^FuzzLoadNetwork$$' -fuzztime=$(FUZZTIME) ./internal/scenario
	$(GO) test -run='^$$' -fuzz='^FuzzSolveRoundTrip$$' -fuzztime=$(FUZZTIME) ./internal/scenario
	$(GO) test -run='^$$' -fuzz='^FuzzSolveWire$$' -fuzztime=$(FUZZTIME) ./internal/scenario
	$(GO) test -run='^$$' -fuzz='^FuzzLoadSimulation$$' -fuzztime=$(FUZZTIME) ./internal/scenario
	$(GO) test -run='^$$' -fuzz='^FuzzSnapshotRoundTrip$$' -fuzztime=$(FUZZTIME) ./internal/scenario
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeFrames$$' -fuzztime=$(FUZZTIME) ./internal/serve

# One iteration of every benchmark: proves they run, not how fast.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# The real benchmark suite (the paper's evaluation artifacts live in
# bench_test.go at the repo root); compare against BENCH_baseline.json.
BENCHTIME ?= 1s
bench:
	$(GO) test -run='^$$' -bench=. -benchmem -benchtime=$(BENCHTIME) .

# Runs the root benchmarks and diffs ns/op against BENCH_baseline.json:
# >25% regressions in the solve-core benchmarks (benchcmp's -critical
# set) fail the run, regressions in sweep/simulation benchmarks only
# warn. Override BENCHTIME (e.g. 100ms) for a quicker, noisier pass;
# set BENCH_WRITE to also snapshot the results.
BENCH_WRITE ?=
bench-compare:
	set -o pipefail; \
	$(GO) test -run='^$$' -bench=. -benchmem -benchtime=$(BENCHTIME) . \
		| $(GO) run ./scripts/benchcmp -baseline BENCH_baseline.json \
			$(if $(BENCH_WRITE),-write $(BENCH_WRITE),)

# Paired A/B run of the solve-core benchmarks (benchcmp's -critical set)
# against a git ref: builds the root test binary at REF, from a `git
# archive` of it under .bench_build/ab, and at the working tree, then
# runs `benchcmp -ab` on the two, which alternates pairs of runs with
# -benchmem on 2 CPUs. PAIRS and AB_BENCHTIME, when set, override its
# -pairs and -benchtime defaults. Fails when a benchmark's median
# per-pair ns/op ratio exceeds 1.25, or its allocs/op exceed REF's by
# more than max(2, 10%). Both sides run on the same machine at the same
# time, so unlike bench-compare the verdict does not follow the
# machine's speed.
REF ?= HEAD~1
bench-ab:
	rm -rf .bench_build/ab
	mkdir -p .bench_build/ab/ref
	set -o pipefail; git archive $(REF) | tar -x -C .bench_build/ab/ref
	cd .bench_build/ab/ref && $(GO) test -c -o ../ref.test .
	rm -rf .bench_build/ab/ref
	$(GO) test -c -o .bench_build/ab/cur.test .
	$(GO) run ./scripts/benchcmp -ab $(if $(PAIRS),-pairs $(PAIRS)) \
		$(if $(AB_BENCHTIME),-benchtime $(AB_BENCHTIME)) \
		.bench_build/ab/ref.test .bench_build/ab/cur.test

# The online solver daemon (cmd/dmcd) on its default port; override
# DMCD_FLAGS for address/shard/queue tuning.
DMCD_FLAGS ?= -addr :7117
run-dmcd:
	$(GO) run ./cmd/dmcd $(DMCD_FLAGS)

ci: all test-norace chaos-smoke chaos-restart chaos-failover fuzz-smoke bench-smoke
