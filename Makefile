# Local development and CI invoke the same targets (.github/workflows/ci.yml).

GO ?= go

.PHONY: all build test test-short lint fmt vet bench bench-base bench-compare bench-e2e-test run-all determinism fuzz scenario-golden catalog-golden serve-smoke serve-restart-smoke sweep-resume-smoke trace-smoke dist-smoke loc clean

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

# Repeat the determinism, parity and fingerprint tests five times in one
# process each: a result that follows map iteration order passes a single
# run by chance far more often than five.
determinism:
	$(GO) test -count=5 -run 'Determinism|Deterministic|Parity|Fingerprint' ./internal/sim ./internal/p2p ./internal/mmog ./internal/sched ./internal/portfolio ./internal/workload ./internal/graphproc ./internal/biblio ./internal/autoscale ./internal/scenario .

# Fuzz the population merge queue against heap4, the scenario spec boundary
# (parse, validate, expand), the sweep checkpoint loader, the sched block
# queue against a flat slice and the dist claim endpoint, for 15 s each past
# their committed seed corpora (testdata/fuzz in each package), which
# `make test` replays.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzMergeQueue$$' -fuzztime 15s ./internal/workload
	$(GO) test -run '^$$' -fuzz '^FuzzSpecValidate$$' -fuzztime 15s ./internal/scenario
	$(GO) test -run '^$$' -fuzz '^FuzzCheckpointLoad$$' -fuzztime 15s ./internal/scenario
	$(GO) test -run '^$$' -fuzz '^FuzzTaskQueue$$' -fuzztime 15s ./internal/sched
	$(GO) test -run '^$$' -fuzz '^FuzzClaim$$' -fuzztime 15s ./internal/dist

# End-to-end determinism check of the scenario engine through the CLI: each
# committed golden sweep (one per pinned domain) must produce byte-identical
# JSON at --parallel 1 and --parallel 8, matching the committed golden file.
scenario-golden:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	for spec in policy-vs-load autoscaler-vs-load; do \
		$(GO) run ./cmd/atlarge scenario sweep examples/scenarios/$$spec.json --replicas 3 --parallel 1 --format json > "$$tmp/p1.json"; \
		$(GO) run ./cmd/atlarge scenario sweep examples/scenarios/$$spec.json --replicas 3 --parallel 8 --format json > "$$tmp/p8.json"; \
		cmp "$$tmp/p1.json" "$$tmp/p8.json"; \
		cmp "$$tmp/p1.json" internal/scenario/testdata/$$spec.golden.json; \
		echo "scenario-golden: $$spec OK"; \
	done

# Pin the machine-readable experiment catalog against its committed golden,
# so `atlarge list --format json` (and the serve API's /v1/experiments,
# which emits the same document) cannot drift silently. Regenerate with
#   go run ./cmd/atlarge list --format json > cmd/atlarge/testdata/catalog.golden.json
# after an intentional catalog change.
catalog-golden:
	@$(GO) run ./cmd/atlarge list --format json | cmp - cmd/atlarge/testdata/catalog.golden.json
	@echo "catalog-golden: OK"

# End-to-end smoke of `atlarge serve`: boot it on an ephemeral port, check
# /v1/experiments matches the committed catalog golden, hit one /v1/run
# twice (the second response, answered by the done run job, must be
# byte-identical, and the job must be listed with kind "run"), drive a job
# through the /v1/jobs resource (its result must equal the synchronous sweep
# response, and an identical resubmission must dedup onto the same job), and
# scrape /metrics.
serve-smoke:
	@set -e; tmp=$$(mktemp -d); \
	trap 'kill "$$pid" 2>/dev/null || true; rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/atlarge" ./cmd/atlarge; \
	"$$tmp/atlarge" serve --addr 127.0.0.1:0 > "$$tmp/serve.log" 2>&1 & pid=$$!; \
	for i in $$(seq 1 50); do \
		grep -q "serving" "$$tmp/serve.log" 2>/dev/null && break; sleep 0.2; \
	done; \
	url=$$(sed -n 's|.*\(http://[0-9.:]*\).*|\1|p' "$$tmp/serve.log"); \
	test -n "$$url" || { echo "serve-smoke: server never came up"; cat "$$tmp/serve.log"; exit 1; }; \
	curl -fsS "$$url/v1/experiments" > "$$tmp/catalog.json"; \
	cmp "$$tmp/catalog.json" cmd/atlarge/testdata/catalog.golden.json; \
	curl -fsS "$$url/v1/run?ids=fig9&seed=7" > "$$tmp/run1.json"; \
	curl -fsS "$$url/v1/run?ids=fig9&seed=7" > "$$tmp/run2.json"; \
	cmp "$$tmp/run1.json" "$$tmp/run2.json"; \
	curl -fsS "$$url/v1/jobs?state=done" | grep -q '"kind": "run"' \
		|| { echo "serve-smoke: the fig9 run is not a done run job"; exit 1; }; \
	printf '%s\n' '{"version": 2, "name": "smoke", "domain": "sched",' \
		'"policy": "sjf", "workload": {"class": "syn", "jobs": 8},' \
		'"cluster": {"machines": 2}, "seed": 7,' \
		'"sweep": {"policy": ["sjf", "fcfs"]}}' > "$$tmp/spec.json"; \
	printf '{"kind": "sweep", "spec": %s}' "$$(cat "$$tmp/spec.json")" > "$$tmp/job.json"; \
	curl -fsS -X POST --data-binary @"$$tmp/job.json" "$$url/v1/jobs" > "$$tmp/accept.json"; \
	id=$$(sed -n 's/.*"id": "\([0-9a-f]*\)".*/\1/p' "$$tmp/accept.json" | head -1); \
	test -n "$$id" || { echo "serve-smoke: no job id"; cat "$$tmp/accept.json"; exit 1; }; \
	for i in $$(seq 1 100); do \
		curl -fsS "$$url/v1/jobs/$$id" > "$$tmp/doc.json"; \
		grep -q '"state": "done"' "$$tmp/doc.json" && break; sleep 0.1; \
	done; \
	grep -q '"state": "done"' "$$tmp/doc.json" || { echo "serve-smoke: job never finished"; cat "$$tmp/doc.json"; exit 1; }; \
	curl -fsS "$$url/v1/jobs/$$id/result" > "$$tmp/result.json"; \
	curl -fsS -X POST --data-binary @"$$tmp/spec.json" "$$url/v1/scenario/sweep" > "$$tmp/sync.json"; \
	cmp "$$tmp/result.json" "$$tmp/sync.json"; \
	curl -fsS -X POST --data-binary @"$$tmp/job.json" "$$url/v1/jobs" | grep -q "\"id\": \"$$id\"" \
		|| { echo "serve-smoke: identical resubmission did not dedup"; exit 1; }; \
	curl -fsS "$$url/metrics" > "$$tmp/metrics.txt"; \
	for m in atlarge_queue_depth atlarge_cache_hit_ratio atlarge_http_requests_total atlarge_jobs; do \
		grep -q "$$m" "$$tmp/metrics.txt" || { echo "serve-smoke: /metrics missing $$m"; exit 1; }; \
	done; \
	echo "serve-smoke: OK (run jobs, /v1/jobs, dedup, /metrics)"

# The 32-task sweep (4 policies × 4 loads × 2 replicas of 700 scientific
# jobs) the dist, restart and resume smokes interrupt: under 1 s on one core
# of a 2.1 GHz Xeon, too short to interrupt on a timer, so each smoke
# interrupts on the sweep's first sign of progress.
SMOKE_SPEC = examples/scenarios/smoke-32.json

# End-to-end smoke of distributed sweep execution: boot 3 worker processes,
# run the 32-task sweep across them while SIGKILLing one worker mid-flight,
# and byte-compare the output against an in-process --parallel 8 run. Also
# pins the single-worker path (CSV this time, so both renderers are
# covered). The kill goes out as soon as the sweep's first --progress line
# shows on stderr, while every worker still holds a claim; the sweep must
# report re-dispatched tasks, or the target fails, since the worker loss it
# checks did not happen.
dist-smoke:
	@set -e; tmp=$$(mktemp -d); \
	trap 'kill "$$w1" "$$w2" "$$w3" 2>/dev/null || true; rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/atlarge" ./cmd/atlarge; \
	"$$tmp/atlarge" scenario sweep $(SMOKE_SPEC) --parallel 8 --format json > "$$tmp/inprocess.json"; \
	"$$tmp/atlarge" scenario sweep $(SMOKE_SPEC) --parallel 8 --format csv > "$$tmp/inprocess.csv"; \
	"$$tmp/atlarge" worker --listen 127.0.0.1:0 --parallel 2 > "$$tmp/w1.log" 2>&1 & w1=$$!; \
	"$$tmp/atlarge" worker --listen 127.0.0.1:0 --parallel 2 > "$$tmp/w2.log" 2>&1 & w2=$$!; \
	"$$tmp/atlarge" worker --listen 127.0.0.1:0 --parallel 2 > "$$tmp/w3.log" 2>&1 & w3=$$!; \
	for log in w1 w2 w3; do \
		for i in $$(seq 1 50); do \
			grep -q "http://" "$$tmp/$$log.log" 2>/dev/null && break; sleep 0.1; \
		done; \
		grep -q "http://" "$$tmp/$$log.log" || { echo "dist-smoke: worker $$log never came up"; cat "$$tmp/$$log.log"; exit 1; }; \
	done; \
	a1=$$(sed -n 's|.*http://||p' "$$tmp/w1.log"); \
	a2=$$(sed -n 's|.*http://||p' "$$tmp/w2.log"); \
	a3=$$(sed -n 's|.*http://||p' "$$tmp/w3.log"); \
	"$$tmp/atlarge" scenario sweep $(SMOKE_SPEC) --parallel 2 --format json --progress \
		--workers "$$a1,$$a2,$$a3" > "$$tmp/dist3.json" 2>"$$tmp/dist3.log" & sweep=$$!; \
	for i in $$(seq 1 1000); do \
		grep -q "scenario sweep: " "$$tmp/dist3.log" 2>/dev/null && break; sleep 0.01; \
	done; \
	kill -9 "$$w3"; \
	wait "$$sweep"; \
	cmp "$$tmp/dist3.json" "$$tmp/inprocess.json"; \
	grep -q "re-dispatched" "$$tmp/dist3.log" || { \
		echo "dist-smoke: FAIL: the killed worker cost no claims, so re-dispatch went unchecked:"; \
		tr '\r' '\n' < "$$tmp/dist3.log"; exit 1; }; \
	echo "dist-smoke: $$(grep "re-dispatched" "$$tmp/dist3.log")"; \
	"$$tmp/atlarge" scenario sweep $(SMOKE_SPEC) --parallel 2 --format csv \
		--workers "$$a1" > "$$tmp/dist1.csv"; \
	cmp "$$tmp/dist1.csv" "$$tmp/inprocess.csv"; \
	echo "dist-smoke: OK (3-worker run with a mid-flight SIGKILL and 1-worker run both byte-identical to in-process)"

# Restart-durability smoke of `atlarge serve --state-dir`: submit the 32-task
# sweep as an async job, SIGKILL the server as soon as the job's first task
# file shows in the state dir, restart it on the same state dir, and
# byte-compare the recovered job's result against an uninterrupted CLI run.
# The target fails when the kill found no task or every task checkpointed,
# since then no partial resume was checked.
serve-restart-smoke:
	@set -e; tmp=$$(mktemp -d); \
	trap 'kill "$$pid" 2>/dev/null || true; rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/atlarge" ./cmd/atlarge; \
	"$$tmp/atlarge" scenario sweep $(SMOKE_SPEC) --parallel 1 --format json > "$$tmp/uninterrupted.json"; \
	"$$tmp/atlarge" serve --addr 127.0.0.1:0 --parallel 2 --state-dir "$$tmp/state" > "$$tmp/serve1.log" 2>&1 & pid=$$!; \
	for i in $$(seq 1 50); do \
		grep -q "serving" "$$tmp/serve1.log" 2>/dev/null && break; sleep 0.2; \
	done; \
	url=$$(sed -n 's|.*\(http://[0-9.:]*\).*|\1|p' "$$tmp/serve1.log"); \
	test -n "$$url" || { echo "serve-restart-smoke: server never came up"; cat "$$tmp/serve1.log"; exit 1; }; \
	printf '{"kind": "sweep", "spec": %s}' "$$(cat $(SMOKE_SPEC))" > "$$tmp/job.json"; \
	curl -fsS -X POST --data-binary @"$$tmp/job.json" "$$url/v1/jobs" > "$$tmp/accept.json"; \
	id=$$(sed -n 's/.*"id": "\([0-9a-f]*\)".*/\1/p' "$$tmp/accept.json" | head -1); \
	test -n "$$id" || { echo "serve-restart-smoke: no job id"; cat "$$tmp/accept.json"; exit 1; }; \
	for i in $$(seq 1 1000); do \
		ls "$$tmp"/state/$$id/task-*.json > /dev/null 2>&1 && break; sleep 0.01; \
	done; \
	kill -9 "$$pid" 2>/dev/null; wait "$$pid" 2>/dev/null || true; \
	n=$$(ls "$$tmp"/state/$$id/task-*.json 2>/dev/null | wc -l); \
	echo "serve-restart-smoke: killed server with $$n/32 tasks checkpointed"; \
	if [ "$$n" -eq 0 ] || [ "$$n" -ge 32 ]; then \
		echo "serve-restart-smoke: FAIL: the kill found $$n/32 tasks checkpointed, so no partial resume was checked"; exit 1; \
	fi; \
	"$$tmp/atlarge" serve --addr 127.0.0.1:0 --parallel 2 --state-dir "$$tmp/state" > "$$tmp/serve2.log" 2>&1 & pid=$$!; \
	for i in $$(seq 1 50); do \
		grep -q "serving" "$$tmp/serve2.log" 2>/dev/null && break; sleep 0.2; \
	done; \
	url=$$(sed -n 's|.*\(http://[0-9.:]*\).*|\1|p' "$$tmp/serve2.log"); \
	test -n "$$url" || { echo "serve-restart-smoke: restart never came up"; cat "$$tmp/serve2.log"; exit 1; }; \
	for i in $$(seq 1 300); do \
		curl -fsS "$$url/v1/jobs/$$id" > "$$tmp/doc.json" 2>/dev/null || true; \
		grep -q '"state": "done"' "$$tmp/doc.json" 2>/dev/null && break; sleep 0.2; \
	done; \
	grep -q '"state": "done"' "$$tmp/doc.json" || { echo "serve-restart-smoke: job never finished after restart"; cat "$$tmp/doc.json"; exit 1; }; \
	curl -fsS "$$url/v1/jobs/$$id/result" > "$$tmp/resumed.json"; \
	cmp "$$tmp/resumed.json" "$$tmp/uninterrupted.json"; \
	echo "serve-restart-smoke: OK (recovered job result byte-identical to uninterrupted run)"

# End-to-end check of checkpoint/resume through the CLI: run the 32-task
# sweep, SIGKILL it as soon as its first --progress line shows on stderr,
# resume from the checkpoint directory, and byte-compare the final JSON
# against an uninterrupted --parallel 1 run. Resume must be byte-identical
# from any prefix of completed work; the target fails when the kill found
# no task or every task checkpointed, since then no partial resume was
# checked.
sweep-resume-smoke:
	@set -e; tmp=$$(mktemp -d); \
	trap 'kill -9 "$$sweep" 2>/dev/null || true; rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/atlarge" ./cmd/atlarge; \
	"$$tmp/atlarge" scenario sweep $(SMOKE_SPEC) --parallel 1 --format json > "$$tmp/uninterrupted.json"; \
	"$$tmp/atlarge" scenario sweep $(SMOKE_SPEC) --parallel 2 --format json --progress \
		--checkpoint "$$tmp/ckpt" > /dev/null 2>"$$tmp/interrupt.log" & sweep=$$!; \
	for i in $$(seq 1 1000); do \
		grep -q "scenario sweep: " "$$tmp/interrupt.log" 2>/dev/null && break; sleep 0.01; \
	done; \
	kill -9 "$$sweep" 2>/dev/null || true; wait "$$sweep" 2>/dev/null || true; \
	n=$$(ls "$$tmp"/ckpt/*/task-*.json 2>/dev/null | wc -l); \
	echo "sweep-resume-smoke: interrupted with $$n/32 tasks checkpointed"; \
	if [ "$$n" -eq 0 ] || [ "$$n" -ge 32 ]; then \
		echo "sweep-resume-smoke: FAIL: the kill found $$n/32 tasks checkpointed, so no partial resume was checked"; exit 1; \
	fi; \
	"$$tmp/atlarge" scenario sweep $(SMOKE_SPEC) --parallel 8 --format json --checkpoint "$$tmp/ckpt" > "$$tmp/resumed.json"; \
	cmp "$$tmp/resumed.json" "$$tmp/uninterrupted.json"; \
	echo "sweep-resume-smoke: OK (resumed report byte-identical to uninterrupted run)"

# End-to-end smoke of `atlarge trace`: trace one cell of the committed
# example sweep twice, check the Chrome trace-event artifact is well-formed
# (Perfetto-loadable, monotone per-track timestamps) via the built-in
# validator, and byte-compare both runs — traces must be deterministic in
# their virtual-time fields.
trace-smoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/atlarge" ./cmd/atlarge; \
	"$$tmp/atlarge" trace --spec examples/scenarios/policy-vs-load.json \
		--cell "policy-vs-load/load=0.7,policy=sjf" --dir "$$tmp/t1" > /dev/null; \
	"$$tmp/atlarge" trace --spec examples/scenarios/policy-vs-load.json \
		--cell "policy-vs-load/load=0.7,policy=sjf" --dir "$$tmp/t2" > /dev/null; \
	"$$tmp/atlarge" trace --validate "$$tmp/t1/trace.json" > /dev/null; \
	cmp "$$tmp/t1/trace.ndjson" "$$tmp/t2/trace.ndjson"; \
	cmp "$$tmp/t1/trace.json" "$$tmp/t2/trace.json"; \
	echo "trace-smoke: OK (Chrome trace valid, both runs byte-identical)"

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
