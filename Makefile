# Standard targets for the nvmstar reproduction.

GO ?= go

.PHONY: all build test test-short bench bench-gate evaluation report examples vet fmt lint clean race verify verify-telemetry verify-observe regress regress-baseline

all: verify

# Tier-1 verify path: build + vet + determinism lint + full tests +
# race gate over the concurrency-bearing packages (the parallel
# experiment runner, forked machines and the crypto suites they
# share), plus the telemetry and observatory gates.
verify: build vet lint test race verify-telemetry verify-observe

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w .

# Determinism lint: forbids ranging over maps in every package of the
# module, whose outputs must be bit-identical run-to-run (map iteration
# order is randomized in Go; see cmd/detlint for the suppression
# syntax).
lint:
	$(GO) run ./cmd/detlint ./...

# Full suite, including the ~90 s paper-shape gate.
test:
	$(GO) test ./...

# Quick suite: skips the shape gate and the full scheme matrix.
test-short:
	$(GO) test -short ./...

# Race detector over the packages with real concurrency: the parallel
# experiment runner's worker pool, forks running on their own
# goroutines, the cache slot arrays they share copy-on-write, the
# crypto suites every goroutine shares and the sim context plumbing
# they exercise. -short skips the wall-clock speedup
# comparison, which is meaningless under the race detector's slowdown.
race:
	$(GO) test -race -short ./internal/experiments ./internal/sim ./internal/secmem ./internal/simcrypto ./internal/telemetry ./internal/cache

# One benchmark per paper table/figure, plus ablations and baselines
# (this also asserts bench-gate's fork floor below; the runner floor
# reads only widths timed over three or more sweeps, which the
# default benchtime does not give).
bench:
	$(GO) test -bench=. -benchmem ./...

# Speedup floors, asserted inside the benchmarks that measure them:
# BenchmarkRunnerMatrix fails below 2x speedup-vs-seq at parallel=4,
# read from three timed sweeps per width after an untimed warm-up
# (skipped with a log line on machines with fewer than 4 CPUs, where
# compute-bound speedup is physically impossible), and
# BenchmarkForkRecovery fails below 3x speedup-vs-rerun at variants=8
# (on any machine: the win is algorithmic, one base run instead of K).
bench-gate:
	$(GO) test -run '^$$' -benchtime 3x -bench 'BenchmarkRunnerMatrix/parallel=(1|4)$$|BenchmarkForkRecovery/variants=8$$' .

# Regenerate the evaluation tables (Figs. 10-14, Table II).
evaluation:
	$(GO) run ./cmd/starbench -exp all -ops 20000

# End-to-end observability gate: the machine-registry, sampler and
# tracer tests (exported series set, fork isolation, sampling cadence,
# timeline content, trace events), a sampled + traced single run
# (starsim -svg -trace-out) and a traced mini-sweep, with tracecheck
# asserting both Chrome trace-event files parse and are non-empty
# (Perfetto-loadable) and the timeline trace's event names are known,
# and the three timeline charts and the mini-sweep's six evaluation
# figures rendering non-empty.
TELEMETRY_DIR = /tmp/nvmstar-telemetry

verify-telemetry:
	rm -rf $(TELEMETRY_DIR) && mkdir -p $(TELEMETRY_DIR)
	$(GO) test -count=1 -run 'Telemetry|Timeline|Sampler|Trace|Hierarchy|Fork' ./internal/sim
	$(GO) run ./cmd/starsim -ops 3000 -svg $(TELEMETRY_DIR) \
		-trace-out $(TELEMETRY_DIR)/timeline_trace.json
	$(GO) run ./cmd/starbench -exp all -ops 1500 -workloads hash,array \
		-progress=false -trace-out $(TELEMETRY_DIR)/sweep_trace.json \
		-svg $(TELEMETRY_DIR) > /dev/null
	$(GO) run ./cmd/tracecheck -min 1 \
		$(TELEMETRY_DIR)/timeline_trace.json \
		$(TELEMETRY_DIR)/sweep_trace.json
	$(GO) run ./cmd/tracecheck -min 1 -names $(TELEMETRY_DIR)/timeline_trace.json
	test -s $(TELEMETRY_DIR)/timeline_dirty_frac.svg
	test -s $(TELEMETRY_DIR)/timeline_hit_ratios.svg
	test -s $(TELEMETRY_DIR)/timeline_write_amp.svg
	test -s $(TELEMETRY_DIR)/fig10_bitmap_writes.svg
	test -s $(TELEMETRY_DIR)/fig11_write_traffic.svg
	test -s $(TELEMETRY_DIR)/fig12_ipc.svg
	test -s $(TELEMETRY_DIR)/fig13_energy.svg
	test -s $(TELEMETRY_DIR)/fig14a_dirty_fraction.svg
	test -s $(TELEMETRY_DIR)/fig14b_recovery_time.svg

# Observatory gate (write-cause attribution + per-op latency):
# (1) the engine's write hot path stays allocation-free with the
# observatory off and on, (2) the histogram quantile estimates, the
# observation stream's and the attribution/latency recording invariants
# (bit-identical run to run and across forks, components summing to
# end-to-end, breakdown merges independent of operand order) and the
# sweep aggregate's
# independence from cell completion order hold, (3) a mini
# observed sweep renders both report sections and a stardiff-comparable
# latency document whose self-compare enforces the absolute p99 SLO
# ceilings of regress.latency.tolerance.json (the document is
# deterministic — config + seed only — so the ceilings bind identically
# on every host), (4) the same sweep's per-scheme latency CDFs
# (starbench -observe -svg) and a single run's wear heatmap (starsim
# -svg -observe) render non-empty, and (5) the golden trace fixture's event names (including
# attr:<cause>) and a traced single run's lat:<op> instants (starsim
# -observe -trace-out) validate.
OBSERVE_DIR = /tmp/nvmstar-observe

verify-observe:
	rm -rf $(OBSERVE_DIR) && mkdir -p $(OBSERVE_DIR)
	$(GO) test -run '^$$' -bench 'BenchmarkEngineWriteLineObserve(Disabled|Enabled)$$' -benchmem . \
		| tee $(OBSERVE_DIR)/bench.txt
	grep -q 'ObserveDisabled.* 0 allocs/op' $(OBSERVE_DIR)/bench.txt
	grep -q 'ObserveEnabled.* 0 allocs/op' $(OBSERVE_DIR)/bench.txt
	$(GO) test -count=1 -run 'Histogram|Quantile' ./internal/telemetry
	$(GO) test -count=1 -run 'Attr|Breakdown|Latency|Observ' ./internal/nvm ./internal/sim ./internal/experiments ./internal/regress
	$(GO) run ./cmd/starbench -exp report -ops 1200 -workloads hash -observe -gate=false -progress=false \
		-latency-out $(OBSERVE_DIR)/latency.json -svg $(OBSERVE_DIR) \
		> $(OBSERVE_DIR)/report.md
	grep -q 'Write-cause breakdown' $(OBSERVE_DIR)/report.md
	grep -q 'Tail latency' $(OBSERVE_DIR)/report.md
	$(GO) run ./cmd/stardiff -tol regress.latency.tolerance.json -q \
		$(OBSERVE_DIR)/latency.json $(OBSERVE_DIR)/latency.json
	$(GO) run ./cmd/starsim -ops 1200 -svg $(OBSERVE_DIR) -observe
	test -s $(OBSERVE_DIR)/wearmap.svg
	test -s $(OBSERVE_DIR)/cdf_read_latency_hash.svg
	test -s $(OBSERVE_DIR)/cdf_write_latency_hash.svg
	$(GO) run ./cmd/tracecheck -min 1 -names cmd/tracecheck/testdata/golden_trace.json
	$(GO) run ./cmd/starsim -workload hash -ops 800 -scheme star -observe \
		-trace-out $(OBSERVE_DIR)/lat_trace.json > /dev/null
	$(GO) run ./cmd/tracecheck -min 1 -names $(OBSERVE_DIR)/lat_trace.json

# Executable paper-vs-measured report; non-zero exit if a shape breaks.
report:
	$(GO) run ./cmd/starbench -exp report -ops 8000

# Statistical regression gate. A smoke-sized sweep (deterministic: the
# simulator's results depend only on config + seed, never on the host)
# is diffed against the committed BASELINE_* artifacts with stardiff;
# any cell digest drift or out-of-tolerance shape drift fails.
# Smoke size is far below the shape gate's operating point, hence
# -gate=false: absolute shapes are checked by `make report`, this
# target checks drift against the baseline.
REGRESS_FLAGS = -ops 1500 -workloads hash,array -seeds 1 -parallel 4 -progress=false -gate=false
REGRESS_DIR = /tmp/nvmstar-regress

regress:
	rm -rf $(REGRESS_DIR) && mkdir -p $(REGRESS_DIR)
	$(GO) run ./cmd/starbench -exp report $(REGRESS_FLAGS) \
		-manifest-out $(REGRESS_DIR)/manifest.json \
		-shapes-out $(REGRESS_DIR)/shapes.json > $(REGRESS_DIR)/report.md
	$(GO) run ./cmd/stardiff -tol regress.tolerance.json BASELINE_manifest.json $(REGRESS_DIR)/manifest.json
	$(GO) run ./cmd/stardiff -tol regress.tolerance.json BASELINE_shapes.json $(REGRESS_DIR)/shapes.json

# Regenerate the committed regression baselines at the exact config
# `make regress` runs. Do this deliberately, when a simulator change is
# meant to move the numbers; the diff shows up in review.
regress-baseline:
	$(GO) run ./cmd/starbench -exp report $(REGRESS_FLAGS) \
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
