# Convenience targets; everything is plain `go` underneath (stdlib only,
# no external dependencies).

.PHONY: all build test race vet bench benchgate experiments examples fmt cover fuzz faults conform replay-conform metrics serve-smoke obs-live-smoke staged loc

all: build vet test

build:
	go build ./...

vet:
	go vet ./...

test:
	go test ./...

# Second tier-1 target: the full suite under the race detector. The
# harness fans workload×analysis cells across goroutines, so this is
# the gate for any change to vm, compiler, or harness internals.
race:
	go test -race ./...

# Deterministic fault-injection suite: three fixed seeds chosen to
# cover every fault mode with a firing injection point (1 =
# sched-perturb, 20 = malloc-fail, 23 = handler-panic). Each seed's
# failure must be typed, recovered, and identical run to run.
faults:
	go test ./internal/vm/faults -run TestFaultSuite -count=1 -v -seeds 1,20,23

# Regenerate the staged handler table (internal/compiler/staged_handlers.go)
# from internal/analyses/*.alda. Run after editing a shipped analysis or
# the compiler's lowering; analyses.TestStagedHandlersCurrent fails
# until the checked-in table matches. An empty table is written first,
# so a stale table that no longer compiles cannot block the generator.
STAGED := internal/compiler/staged_handlers.go
staged:
	printf '// Code generated by go run ./internal/analyses/stagegen; DO NOT EDIT.\n\npackage compiler\n\nvar stagedTable = map[string]stagedFactory{}\n' > $(STAGED)
	go run ./internal/analyses/stagegen $(STAGED)

# Differential conformance sweep: 200 generated workloads, each run
# under every analysis across the full ablation matrix (plus oracle,
# schedule, fused-combination, and staged-vs-closures legs).
# Deterministic for a fixed generator seed range; raise -conform-seeds
# for a nightly-scale sweep.
conform:
	go test ./internal/conformance -run 'TestConform' -count=1 -conform-seeds 200

# Replay conformance sweep: every generated workload recorded once
# plain, the trace fanned across the ablation matrix (schedule-invariant
# verdict comparison) plus the byte-identical same-configuration
# record/replay leg, the shared-trace concurrency proof, and the
# trace-corruption shrinker.
replay-conform:
	go test ./internal/conformance -run 'TestReplayConform|TestConcurrentReplay|TestShrinkReplayDivergence' -count=1 -conform-seeds 200

# Short fuzz passes over the parser, the set containers, the map
# containers (the pair-keyed hash table included), the conformance
# harness and the trace decoder
# (FuzzContainers seeds from its test's shapes, the rest from
# checked-in testdata/fuzz corpora). A FuzzContainers run
# takes milliseconds, so minimizing each new input to the default 60 s
# would fill the pass; 100 runs per input are enough.
fuzz:
	go test ./internal/lang/parser -run=FuzzParse -fuzz=FuzzParse -fuzztime=30s
	go test ./internal/meta -run=FuzzSetContainers -fuzz=FuzzSetContainers -fuzztime=30s
	go test ./internal/meta -run=FuzzContainers -fuzz=FuzzContainers -fuzztime=30s -fuzzminimizetime=100x
	go test ./internal/conformance -run=FuzzConformance -fuzz=FuzzConformance -fuzztime=30s
	go test ./internal/trace -run=FuzzTraceDecoder -fuzz=FuzzTraceDecoder -fuzztime=30s

# One measured shot of each benchmark left in bench_test.go:
# BenchmarkTable4 (compiling the eight analyses), BenchmarkHarness (the
# Fig 4 grid serial and parallel) and BenchmarkCompileCache. The
# figures themselves are timed by aldabench and figbench.
bench:
	go test -bench=. -benchmem -benchtime=1x .

# Hot-path benchmark regression gate: scripts/ab.sh runs the
# BenchHotPath micro-suite in 10 alternating rounds of HEAD and the
# working tree (each bench twice per build and round, the faster run
# kept), and fails when one bench, or the geomean, is slower in at
# least 9 of 10 rounds with a median paired ratio above 1.15.
# BENCHTIME is each bench's time budget per run.
BENCHTIME ?= 100ms
benchgate:
	BENCHTIME=$(BENCHTIME) bash scripts/ab.sh HEAD micro

# Regenerate the paper's evaluation tables (EXPERIMENTS.md's source).
# The replay grid needs recorded plain-run traces: -trace-out records
# the missing ones into traces/ and reuses them on later runs.
experiments:
	go run ./cmd/aldabench -exp all -size small -reps 5 -trace-out traces/

# Observability smoke: run one deterministic sweep with the metrics
# registry, overhead attribution, and Chrome-trace export all on, then
# validate the trace parses. metrics.json is byte-stable under -virtual
# (volatile counters excluded); load trace.json in Perfetto or
# chrome://tracing.
metrics:
	go run ./cmd/aldabench -exp fig4 -size tiny -reps 1 -virtual -parallel 4 \
		-metrics-out metrics.json -trace trace.json
	go run ./cmd/aldabench -attrib uaf -size tiny -reps 1 -virtual

# End-to-end drill of the aldaserve job server: chaos burst via
# aldaload (seeded VM faults), SIGTERM drain with zero lost jobs
# (journal accepts == dones), restart-on-journal recovery, and
# journal-fault degradation surfacing on /readyz. Dumps the server log
# and journal on failure.
serve-smoke:
	bash scripts/serve_smoke.sh

# Live-observability drill: trace-ID contract (header == body), prom
# exposition via content negotiation validated by the strict in-repo
# parser, aldaload latency percentiles, /debug/flight + /debug/spans,
# and the flight recorder auto-snapshotting on a journal fault and on
# SIGQUIT. Dumps the server log and snapshot on failure.
obs-live-smoke:
	bash scripts/obs_live_smoke.sh

examples:
	go run ./examples/quickstart
	go run ./examples/racedetect
	go run ./examples/libsanitizer
	go run ./examples/taintflow
	go run ./examples/combined

# Hand-written non-test Go lines: every tracked .go file except tests,
# figbench/ (the benchmark) and the generated staged handler table.
loc:
	@git ls-files '*.go' | grep -v -e '_test\.go$$' -e '^figbench/' -e 'staged_handlers\.go$$' | xargs cat | wc -l

fmt:
	gofmt -w .
	# -l only: aldafmt does not preserve comments, so never -w the
	# hand-commented shipped analyses.
	go run ./cmd/aldafmt -l internal/analyses/*.alda || true

cover:
	go test -cover ./...
