# Local development and CI invoke the same targets (.github/workflows/ci.yml).

GO ?= go

.PHONY: all build test test-short lint fmt vet bench bench-base bench-compare bench-e2e-test run-all determinism quickstart fuzz loc clean

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

test-short:
	$(GO) test -short ./...

lint: fmt vet

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# One iteration per benchmark: a smoke pass that keeps bench_test.go and
# ablation_bench_test.go compiling and running without a full measurement.
# -run '^$$' skips the tests, which `make test` already runs.
bench:
	$(GO) test -run '^$$' -bench=. -benchtime=1x ./...

# The gated hot-path benchmarks — the event kernel, the streaming work-plan
# executor every runner/sweep/API request rides on, and the population job
# stream (which must stay ~0 allocs/job at any client count) — measured long
# enough to gate on.
BENCH_KERNEL = $(GO) test -run '^$$' -bench 'BenchmarkKernel|BenchmarkExecStream|BenchmarkWorldTick|BenchmarkPopulationStream' -benchmem -benchtime 1s ./internal/sim ./internal/exec ./internal/mmog ./internal/workload

# Regenerate the committed perf baseline (run on the reference machine after
# an intentional kernel change, and commit the result).
bench-base:
	$(BENCH_KERNEL) | $(GO) run ./cmd/bench2json -suite kernel-base > BENCH_base.json

# Fail on a >20% ns/op or allocs/op regression of any kernel benchmark vs the
# committed baseline (the allocs gate has a +2 absolute slack so near-zero
# baselines tolerate an incidental allocation). CI runs this on every push;
# baselines from different hardware shift both sides of later comparisons
# together once regenerated. (A temp file instead of a pipe so a failing
# benchmark run fails the target under POSIX sh.)
bench-compare:
	@set -e; tmp=$$(mktemp); trap 'rm -f "$$tmp"' EXIT; \
	$(BENCH_KERNEL) > "$$tmp"; \
	$(GO) run ./cmd/bench2json -compare BENCH_base.json -tolerance 0.20 -allocs-tolerance 0.20 < "$$tmp"

# Vet and test the end-to-end benchmark harness (bench/, a module of its own
# that builds against this one through a replace directive), so a refactor of
# a package the harness imports fails here instead of in the benchmark.
bench-e2e-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...

run-all:
	$(GO) run ./cmd/atlarge run --all --parallel 4

# Repeat the determinism, parity and fingerprint tests of every package five
# times in one process each: a result that follows map iteration order
# passes a single run by chance far more often than five.
determinism:
	$(GO) test -count=5 -run 'Determinism|Deterministic|Parity|Fingerprint' ./...

# Run the library example, the one caller of the framework re-exports that
# atlarge.go keeps as public API.
quickstart:
	$(GO) run ./examples/quickstart

# Fuzz the population merge queue against heap4, the scenario spec boundary
# (parse, validate, expand), the sweep checkpoint loader, the sched block
# queue against a flat slice, the dist claim endpoint, the dist protocol line
# decoder, the GWA trace import and the MMOG social network against its map
# reference, for 15 s each past their committed seed corpora (testdata/fuzz
# in each package), which `make test` replays. FuzzMsgReader's corpus holds
# 64 KiB lines, and minimising a new input grown from one takes longer than
# the whole 15 s at the default -fuzzminimizetime, so it minimises for 1 s.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzMergeQueue$$' -fuzztime 15s ./internal/workload
	$(GO) test -run '^$$' -fuzz '^FuzzSpecValidate$$' -fuzztime 15s ./internal/scenario
	$(GO) test -run '^$$' -fuzz '^FuzzCheckpointLoad$$' -fuzztime 15s ./internal/scenario
	$(GO) test -run '^$$' -fuzz '^FuzzTaskQueue$$' -fuzztime 15s ./internal/sched
	$(GO) test -run '^$$' -fuzz '^FuzzClaim$$' -fuzztime 15s ./internal/dist
	$(GO) test -run '^$$' -fuzz '^FuzzMsgReader$$' -fuzztime 15s -fuzzminimizetime 1s ./internal/dist
	$(GO) test -run '^$$' -fuzz '^FuzzReadJobs$$' -fuzztime 15s ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzSocialNetwork$$' -fuzztime 15s ./internal/mmog

# Added, removed and net Go lines between BASE and the working tree (tracked
# and staged files), split into non-test files and _test.go files; a renamed
# file counts only its changed lines. Usage: make loc BASE=<rev>.
BASE ?= HEAD
loc:
	@git diff --numstat $(BASE) -- '*.go' | awk ' \
		$$NF ~ /_test\.go}?$$/ { ta += $$1; tr += $$2; next } \
		{ na += $$1; nr += $$2 } \
		END { \
			printf "non-test  +%d -%d net %+d\n", na, nr, na - nr; \
			printf "test      +%d -%d net %+d\n", ta, tr, ta - tr \
		}'

clean:
	$(GO) clean ./...
