# Standard targets for the nvmstar reproduction.

GO ?= go

.PHONY: all build test test-short bench bench-json bench-parallel bench-parallel-gate bench-fork bench-fork-gate report examples vet fmt lint clean race verify verify-telemetry verify-attr verify-latency regress regress-baseline

all: verify

# Tier-1 verify path: build + vet + determinism lint + full tests +
# race gate over the concurrency-bearing packages (the parallel
# experiment runner, forked machines and the crypto suites they
# share), plus the telemetry, attribution and latency observability
# gates.
verify: build vet lint test race verify-telemetry verify-attr verify-latency

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w .

# Determinism lint: forbids ranging over maps in the packages whose
# outputs must be bit-identical run-to-run (map iteration order is
# randomized in Go; see cmd/detlint for the suppression syntax).
lint:
	$(GO) run ./cmd/detlint ./internal/sim ./internal/secmem ./internal/nvm ./internal/schemes ./internal/cachetree

# Full suite, including the ~90 s paper-shape gate.
test:
	$(GO) test ./...

# Quick suite: skips the shape gate and the full scheme matrix.
test-short:
	$(GO) test -short ./...

# Race detector over the packages with real concurrency: the parallel
# experiment runner's worker pool, forks running on their own
# goroutines, the crypto suites every goroutine shares and the sim
# context plumbing they exercise. -short skips the wall-clock speedup
# comparison, which is meaningless under the race detector's slowdown.
race:
	$(GO) test -race -short ./internal/experiments ./internal/sim ./internal/secmem ./internal/simcrypto ./internal/telemetry

# One benchmark per paper table/figure, plus ablations and baselines.
bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable hot-path numbers, committed as BENCH_hotpath.json so
# regressions show up in review: the per-scheme engine write path, the
# real suite's keyed MAC (with allocs/op) and the parallel runner sweep.
bench-json:
	$(GO) test -run '^$$' -bench 'BenchmarkEngineWriteLine|BenchmarkRealSuiteMAC|BenchmarkRunnerMatrix' -benchmem . \
		| $(GO) run ./cmd/benchjson -o BENCH_hotpath.json
	@cat BENCH_hotpath.json

# Scaling numbers for the parallel runner with seed-level work
# decomposition, committed as BENCH_parallel.json: wall time,
# allocations and the speedup-vs-seq metric at pool widths 1/2/4/8
# (meaningful only on a multi-core machine; the document records its
# CPU count so the gate below can tell the difference).
BENCH_PARALLEL_OUT ?= BENCH_parallel.json

bench-parallel:
	$(GO) test -run '^$$' -bench BenchmarkRunnerMatrix -benchmem . \
		| $(GO) run ./cmd/benchjson -o $(BENCH_PARALLEL_OUT)
	@cat $(BENCH_PARALLEL_OUT)

# Parallel-scaling gate: re-measure, then let stardiff enforce the
# metric_floors in regress.tolerance.json (speedup-vs-seq >= 2.0 at
# parallel=4). The self-compare makes the floor absolute — it binds on
# the fresh numbers even with no drift vs a baseline. On machines with
# fewer than floor_min_cpus CPUs the floor is skipped with an info
# line, because compute-bound speedup is physically impossible there.
bench-parallel-gate: bench-parallel
	$(GO) run ./cmd/stardiff -tol regress.tolerance.json -q \
		$(BENCH_PARALLEL_OUT) $(BENCH_PARALLEL_OUT)

# Run-once/fork-many numbers, committed as BENCH_fork.json: wall time
# of K crash-recovery variants on copy-on-write forks of one base run
# versus K monolithic reruns, at 1/4/8/16 variants, with the
# speedup-vs-rerun metric.
BENCH_FORK_OUT ?= BENCH_fork.json

bench-fork:
	$(GO) test -run '^$$' -bench BenchmarkForkRecovery -benchmem . \
		| $(GO) run ./cmd/benchjson -o $(BENCH_FORK_OUT)
	@cat $(BENCH_FORK_OUT)

# Fork-decomposition gate: re-measure, then let stardiff enforce the
# metric_floors in regress.fork.tolerance.json (speedup-vs-rerun >= 3.0
# at variants=8). The floor lives in its own tolerance file with no
# floor_min_cpus: the win is algorithmic (one run instead of K), so it
# binds on single-CPU machines too — unlike the parallel gate, whose
# floor regress.tolerance.json suspends below 4 CPUs.
bench-fork-gate: bench-fork
	$(GO) run ./cmd/stardiff -tol regress.fork.tolerance.json -q \
		$(BENCH_FORK_OUT) $(BENCH_FORK_OUT)

# Regenerate the evaluation tables (Figs. 10-14, Table II).
evaluation:
	$(GO) run ./cmd/starbench -exp all -ops 20000

# End-to-end observability gate: a sampled + traced timeline run and a
# traced mini-sweep, with tracecheck asserting both Chrome trace-event
# files parse and are non-empty (Perfetto-loadable).
verify-telemetry:
	rm -rf /tmp/nvmstar-telemetry && mkdir -p /tmp/nvmstar-telemetry
	$(GO) run ./cmd/starplot -timeline -ops 3000 -sample-ns 5000 \
		-out /tmp/nvmstar-telemetry
	$(GO) run ./cmd/starbench -exp fig14a -ops 1500 -workloads hash,array \
		-progress=false -trace-out /tmp/nvmstar-telemetry/sweep_trace.json
	$(GO) run ./cmd/tracecheck -min 1 \
		/tmp/nvmstar-telemetry/timeline_trace.json \
		/tmp/nvmstar-telemetry/sweep_trace.json
	test -s /tmp/nvmstar-telemetry/timeline_dirty_frac.svg

# Write-cause attribution gate: (1) the disabled path stays
# allocation-free on the engine's write hot path, (2) the OpenMetrics
# exposition and /metrics endpoint pass the strict lint, (3) a mini
# attributed sweep produces a non-empty breakdown report, (4) the
# golden trace fixture's event names (including attr:<cause>) validate.
verify-attr:
	rm -rf /tmp/nvmstar-attr && mkdir -p /tmp/nvmstar-attr
	$(GO) test -run '^$$' -bench BenchmarkEngineWriteLineAttrDisabled -benchmem . \
		| tee /tmp/nvmstar-attr/bench.txt
	grep -q ' 0 allocs/op' /tmp/nvmstar-attr/bench.txt
	$(GO) test -count=1 -run 'OpenMetrics|Metrics|Quantile' ./internal/telemetry
	$(GO) test -count=1 -run 'Attr' ./internal/nvm ./internal/sim ./internal/experiments
	$(GO) run ./cmd/starreport -ops 1200 -workloads hash -attr -gate=false -progress=false \
		> /tmp/nvmstar-attr/report.md
	grep -q 'Write-cause breakdown' /tmp/nvmstar-attr/report.md
	$(GO) run ./cmd/starplot -wearmap -ops 1200 -out /tmp/nvmstar-attr
	test -s /tmp/nvmstar-attr/wearmap.svg
	$(GO) run ./cmd/tracecheck -min 1 -names cmd/tracecheck/testdata/golden_trace.json

# Latency-observatory gate: (1) the disabled path stays
# allocation-free on the engine's write hot path, (2) the histogram
# merge/quantile and per-op recording invariants hold (bit-identical
# run to run and across forks, components summing to end-to-end),
# (3) a mini latency-enabled sweep renders the tail table and a
# stardiff-comparable latency document whose self-compare enforces the
# absolute p99 SLO ceilings of regress.latency.tolerance.json (the
# document is deterministic — config + seed only — so the ceilings
# bind identically on every host), (4) the per-scheme CDF charts
# render non-empty, and (5) a live traced replay emits lat:<op>
# instants that tracecheck validates by name.
verify-latency:
	rm -rf /tmp/nvmstar-latency && mkdir -p /tmp/nvmstar-latency
	$(GO) test -run '^$$' -bench BenchmarkEngineWriteLineLatencyDisabled -benchmem . \
		| tee /tmp/nvmstar-latency/bench.txt
	grep -q ' 0 allocs/op' /tmp/nvmstar-latency/bench.txt
	$(GO) test -count=1 -run 'Histogram|QuantileFromBuckets' ./internal/telemetry
	$(GO) test -count=1 -run 'Latency' ./internal/sim ./internal/experiments ./internal/regress
	$(GO) run ./cmd/starreport -ops 1200 -workloads hash -latency -gate=false -progress=false \
		-latency-out /tmp/nvmstar-latency/latency.json \
		> /tmp/nvmstar-latency/report.md
	grep -q 'Tail latency' /tmp/nvmstar-latency/report.md
	$(GO) run ./cmd/stardiff -tol regress.latency.tolerance.json -q \
		/tmp/nvmstar-latency/latency.json /tmp/nvmstar-latency/latency.json
	$(GO) run ./cmd/starplot -cdf -ops 1200 -out /tmp/nvmstar-latency
	test -s /tmp/nvmstar-latency/cdf_read_latency.svg
	test -s /tmp/nvmstar-latency/cdf_write_latency.svg
	$(GO) run ./cmd/startrace -record /tmp/nvmstar-latency/hash.trc -workload hash -ops 800 > /dev/null
	$(GO) run ./cmd/startrace -replay /tmp/nvmstar-latency/hash.trc -scheme star -latency \
		-trace-out /tmp/nvmstar-latency/lat_trace.json > /dev/null
	$(GO) run ./cmd/tracecheck -min 1 -names /tmp/nvmstar-latency/lat_trace.json

# Executable paper-vs-measured report; non-zero exit if a shape breaks.
report:
	$(GO) run ./cmd/starreport -ops 8000

# Statistical regression gate. A smoke-sized sweep (deterministic: the
# simulator's results depend only on config + seed, never on the host)
# is diffed against the committed BASELINE_* artifacts with stardiff;
# any cell digest drift or out-of-tolerance shape drift fails. The
# BENCH self-compare is a stardiff sanity check on the bench path.
# Smoke size is far below the shape gate's operating point, hence
# -gate=false: absolute shapes are checked by `make report`, this
# target checks drift against the baseline.
REGRESS_FLAGS = -ops 1500 -workloads hash,array -seeds 1 -parallel 4 -progress=false -gate=false
REGRESS_DIR = /tmp/nvmstar-regress

regress:
	rm -rf $(REGRESS_DIR) && mkdir -p $(REGRESS_DIR)
	$(GO) run ./cmd/starreport $(REGRESS_FLAGS) \
		-manifest-out $(REGRESS_DIR)/manifest.json \
		-shapes-out $(REGRESS_DIR)/shapes.json > $(REGRESS_DIR)/report.md
	$(GO) run ./cmd/stardiff -tol regress.tolerance.json BASELINE_manifest.json $(REGRESS_DIR)/manifest.json
	$(GO) run ./cmd/stardiff -tol regress.tolerance.json BASELINE_shapes.json $(REGRESS_DIR)/shapes.json
	$(GO) run ./cmd/stardiff -tol regress.tolerance.json -q BENCH_hotpath.json BENCH_hotpath.json

# Regenerate the committed regression baselines at the exact config
# `make regress` runs. Do this deliberately, when a simulator change is
# meant to move the numbers; the diff shows up in review.
regress-baseline:
	$(GO) run ./cmd/starreport $(REGRESS_FLAGS) \
		-manifest-out BASELINE_manifest.json \
		-shapes-out BASELINE_shapes.json > /dev/null

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/kvstore
	$(GO) run ./examples/crashattack
	$(GO) run ./examples/tuning
	$(GO) run ./examples/baselines
	$(GO) run ./examples/restart

clean:
	rm -f test_output.txt bench_output.txt /tmp/nvmstar-restart.img
