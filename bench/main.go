// Command bench is the repository benchmark. It runs one of four
// workloads through the simulator's public layers (experiments.Runner,
// sim.Machine and Session, secmem.Engine, simcrypto.Suite, nvm.Device
// and cache.Cache), checks every simulated output against the committed
// reference digests, and prints each metric by name with its unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 30, "failed": 0, "metrics": {"sweep_s": {"value": 5.71, "unit": "s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end metrics of
// BENCHMARK.json. With -trace 1 the run is traced: it prints the
// per-layer metrics instead and writes coarse spans as Chrome trace
// events to -trace-out. From the repository root:
//
//	bash bench/run.sh --workload persist-heavy --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --seed 1                  # all four workloads
//
// A reference mismatch, an error, a failed workload Verify or an
// unverified recovery makes "correct" false and the exit code 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"nvmstar/internal/provenance"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// workloadNames lists the workloads in the order "-workload all" runs
// them.
var workloadNames = []string{"paper-sweep", "persist-heavy", "cache-resident", "crash-recover"}

// metricDef declares one reported metric. The names and units must
// match BENCHMARK.json; the smoke test checks that they do.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, reported on every
// workload. See README.md for what each one measures per workload.
var endToEnd = []metricDef{
	{"sweep_s", "s"},
	{"setup_s", "s"},
	{"instr_per_s", "1/s"},
	{"op_us_p50", "us"},
	{"op_us_p90", "us"},
	{"alloc_mb", "MB"},
	{"live_heap_mb", "MB"},
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// digestCheck is one unit's digest and how it compared with the
// reference: ok, mismatch, missing (the seed has references but not
// this unit) or unchecked (the seed has none).
type digestCheck struct {
	Unit   string `json:"unit"`
	Digest string `json:"digest"`
	Status string `json:"status"`
}

// result is everything one workload run produced; -json writes it.
type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Size      string            `json:"size"`
	Traced    bool              `json:"traced"`
	Passes    int               `json:"passes"`
	PassSecs  []float64         `json:"pass_seconds,omitempty"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Digests   []digestCheck     `json:"digests"`
	Errors    []string          `json:"errors,omitempty"`
	Env       env               `json:"env"`
	order     []metricDef
}

// env is the host a run measured, recorded with every output.
type env struct {
	provenance.Env
	GOMAXPROCS int `json:"gomaxprocs"`
}

func captureEnv() env {
	return env{Env: provenance.CaptureEnv(""), GOMAXPROCS: runtime.GOMAXPROCS(0)}
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", strings.Join(workloadNames, ", ")+", or all")
	seed := fs.Uint64("seed", 1, "workload seed; it goes only into sim.Config.Seed")
	seconds := fs.Float64("seconds", 15, "measuring time per workload; a workload still runs its minimum number of passes")
	trace := fs.Int("trace", 0, "0 prints the end-to-end metrics; 1 makes a traced run and prints the per-layer metrics")
	traceOut := fs.String("trace-out", "", "span file of a traced run (default .bench_build/trace-<workload>-seed<N>.json)")
	jsonOut := fs.String("json", "", "also write every result, with its digests and environment, to this file")
	sizeName := fs.String("size", "full", "full, or tiny for the smoke test (tiny runs have no reference digests)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := workloadNames
	if *name != "all" {
		names = []string{*name}
	}
	for _, n := range names {
		if !slices.Contains(workloadNames, n) {
			fmt.Fprintf(stderr, "bench: unknown workload %q (want %s or all)\n", n, strings.Join(workloadNames, ", "))
			return 2
		}
	}
	sz, ok := sizeTable[*sizeName]
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown size %q (want full or tiny)\n", *sizeName)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "bench: -trace must be 0 or 1, not %d\n", *trace)
		return 2
	}
	if !(*seconds > 0) {
		fmt.Fprintf(stderr, "bench: -seconds must be positive\n")
		return 2
	}
	if *traceOut != "" && len(names) > 1 {
		fmt.Fprintf(stderr, "bench: -trace-out needs a single -workload\n")
		return 2
	}

	e := captureEnv()
	var results []*result
	code := 0
	for _, n := range names {
		b, err := newBench(n, *seed, *sizeName, sz, time.Duration(*seconds*float64(time.Second)), *trace == 1, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		res, err := b.run()
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", n, err)
			return 1
		}
		if b.tr != nil {
			path := *traceOut
			if path == "" {
				path = fmt.Sprintf(".bench_build/trace-%s-seed%d.json", n, *seed)
			}
			if err := b.tr.write(path); err != nil {
				fmt.Fprintf(stderr, "bench: -trace-out: %v\n", err)
				return 1
			}
			fmt.Fprintf(stderr, "bench: wrote %d spans to %s\n", b.tr.len(), path)
		}
		res.Env = e
		results = append(results, res)
		if err := printResult(stdout, res); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		if !res.Correct {
			code = 1
		}
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, results); err != nil {
			fmt.Fprintf(stderr, "bench: -json: %v\n", err)
			return 1
		}
	}
	return code
}

// printResult prints the metrics table, the digests and the host, then
// the result line.
func printResult(w io.Writer, r *result) error {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s (seed %d, %s size, %s, %d passes) ==\n", r.Workload, r.Seed, r.Size, mode, r.Passes)
	for _, d := range r.order {
		fmt.Fprintf(&sb, "  %-32s %16.6g %s\n", d.name, r.Metrics[d.name].Value, d.unit)
	}
	for _, d := range r.Digests {
		fmt.Fprintf(&sb, "  digest %-24s %.16s %s\n", d.Unit, d.Digest, d.Status)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(&sb, "  FAILED %s\n", e)
	}
	fmt.Fprintf(&sb, "  attempted %d, failed %d\n", r.Attempted, r.Failed)
	fmt.Fprintf(&sb, "  host: %d cpus, GOMAXPROCS %d, %s, %s, rev %q\n",
		r.Env.NumCPU, r.Env.GOMAXPROCS, r.Env.CPU, r.Env.GoVersion, r.Env.GitRev)
	line, err := json.Marshal(resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics})
	if err != nil {
		return err
	}
	sb.Write(line)
	sb.WriteByte('\n')
	_, err = io.WriteString(w, sb.String())
	return err
}

func writeJSON(path string, results []*result) error {
	b, err := json.MarshalIndent(struct {
		Results []*result `json:"results"`
	}{results}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
