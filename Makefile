# pyro — build/test entry points. CI (.github/workflows/ci.yml) invokes
# exactly these targets so local runs and CI runs are identical.

GO ?= go
# bench-ab sampling: raise locally (e.g. ABCOUNT=5 ABTIME=2s) for stable
# deltas; CI keeps the cheap smoke defaults.
ABCOUNT ?= 1
ABTIME ?= 1x
# The A/B benchmark set: every arm that reports the deterministic work
# counters (comparisons, radix passes, page I/O) bench-gate diffs.
ABBENCH = 'RunFormation|TimeToFirstRow|TopKPlanned|Throughput'
# bench-gate tolerance in percent. The gated counters are deterministic,
# so the slack only absorbs float formatting, not machine variance.
TOLERANCE ?= 2

.PHONY: build test race race-serve chaos bench bench-ab bench-gate bench-baseline fmt vet lint-pyro ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One iteration of every benchmark: a smoke test that the benchmark
# harness itself stays healthy, not a measurement.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# A/B ablations — time-to-first-row (pipelined cursor vs full sort vs
# materialising Execute), Top-K exit path (planned Limit vs consumer
# early-Close) and row vs chunk execution — with a benchstat-style delta
# table, so a regression in any arm is visible at a glance; the
# RunFormation benchmarks ride along for their gated counters. The bench run lands in
# a temp file first: piping straight into the formatter would let a
# failing benchmark exit 0 through the pipe.
bench-ab:
	@out=$$(mktemp); \
	if ! $(GO) test -run '^$$' -bench $(ABBENCH) -benchtime $(ABTIME) -count $(ABCOUNT) . > $$out 2>&1; then \
		cat $$out; rm -f $$out; exit 1; \
	fi; \
	$(GO) run ./cmd/pyro-abdiff < $$out; rc=$$?; rm -f $$out; exit $$rc

# Regression gate on the deterministic work counters: run the A/B set once
# and diff every comparisons/radix-passes/io-pages/run-pages counter
# against the checked-in baseline. The counters replicate bit-for-bit on
# any machine (golden tests pin their parallelism invariance), so the gate
# fails on real plan or engine regressions while staying immune to CI
# wall-clock noise.
bench-gate:
	@out=$$(mktemp); \
	if ! $(GO) test -run '^$$' -bench $(ABBENCH) -benchtime 1x . > $$out 2>&1; then \
		cat $$out; rm -f $$out; exit 1; \
	fi; \
	$(GO) run ./cmd/pyro-abdiff -baseline testdata/bench-baseline.txt -tolerance $(TOLERANCE) < $$out; \
	rc=$$?; rm -f $$out; exit $$rc

# Refresh the bench-gate baseline after an intentional counter change
# (new plan shape, algorithm change); commit the updated file with the
# change that moved the counters.
bench-baseline:
	@mkdir -p testdata
	$(GO) test -run '^$$' -bench $(ABBENCH) -benchtime 1x . > testdata/bench-baseline.txt
	@echo "wrote testdata/bench-baseline.txt"

# The serving layer's concurrency under the race detector at a forced
# GOMAXPROCS: governor fairness/starvation, admission, plan cache, the
# concurrent-cursor tests and the chunked executor's pooled-buffer paths.
race-serve:
	GOMAXPROCS=8 $(GO) test -race -count=1 -run 'Govern|Gate|Admission|Concurrent|Starv|PlanCache|Serving|Grant|Override|Chunk' ./...

# Fault-sweep harness at full resolution: every page transfer of every
# plan-matrix arm is failed (and panicked) in turn, under the race
# detector with GOMAXPROCS forced, plus the temp-quota ENOSPC and
# deadline arms. The default `make test` runs the same sweep strided.
chaos:
	PYRO_CHAOS_FULL=1 GOMAXPROCS=8 $(GO) test -race -count=1 -run 'Chaos|QueryTimeout|WithDeadline|Deadline' .

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# pyro's own static-analysis suite (internal/lint, cmd/pyro-lint): arena
# release discipline, abort polling, %w error wrapping, I/O-ledger routing
# and counter determinism, proved over the whole module with zero
# pyro:nolint suppressions allowed. Stdlib-only — needs nothing beyond
# the Go toolchain.
lint-pyro:
	$(GO) run ./cmd/pyro-lint -max-suppressions 0 ./...

ci: build vet fmt lint-pyro test race race-serve chaos bench bench-ab bench-gate
