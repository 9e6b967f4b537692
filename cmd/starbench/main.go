// Command starbench regenerates the paper's evaluation (Figs. 10-14,
// Table II) on the simulated machine and prints each experiment as an
// aligned table. The (workload, scheme, seed) cell matrix fans out
// over a worker pool (-parallel, default GOMAXPROCS); results are
// bit-identical to a sequential run. Every experiment can be run
// alone:
//
//	starbench -exp fig11 -ops 20000
//	starbench -exp all -parallel 8
//
// The -workloads flag restricts the workload set, e.g.
// -workloads array,hash. Per-cell completion, wall time and ETA are
// reported on stderr (-progress=false silences them); Ctrl-C aborts
// the sweep mid-cell. -manifest-out writes a run provenance manifest
// (environment, config fingerprint, per-cell result digests) that
// stardiff can compare against a baseline.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"nvmstar/internal/experiments"
	"nvmstar/internal/provenance"
	"nvmstar/internal/sim"
	"nvmstar/internal/telemetry"
)

// render formats an output table (text or CSV, per -format).
var render func(header []string, rows [][]string) string

// main delegates to run so deferred cleanup — stopping the CPU
// profile, closing and error-checking the profile files, flushing the
// sweep trace — executes on every exit path; os.Exit would skip it.
func main() { os.Exit(run()) }

func run() int {
	exp := flag.String("exp", "all", "experiment: fig10|fig11|fig12|fig13|table2|fig14a|fig14b|ablation-index|crash-points|all (all = the paper matrix; crash-points runs only when named)")
	ops := flag.Int("ops", 20000, "measured operations per workload run")
	crashPts := flag.String("crash-points", "", "comma-separated mid-run crash points (in ops) for crash-family sweeps; all points share one forked base run per cell (default: one crash at end of run)")
	workloads := flag.String("workloads", "", "comma-separated workload subset (default: all seven)")
	seeds := flag.Int("seeds", 1, "average each cell over this many workload seeds")
	format := flag.String("format", "table", "output format: table|csv")
	dataMB := flag.Int("data-mb", 64, "protected data size in MiB")
	metaKB := flag.Int("meta-kb", 256, "metadata cache size in KiB")
	parallel := flag.Int("parallel", 0, "concurrent cells in the sweep (0 = GOMAXPROCS)")
	progress := flag.Bool("progress", true, "report per-cell completion, rate and ETA on stderr")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	httpAddr := flag.String("http", "", "serve live sweep stats (expvar) and pprof on this address, e.g. :6060")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON of the sweep's cells to this file")
	manifestOut := flag.String("manifest-out", "", "write a run provenance manifest (per-cell result digests) to this file")
	gitRev := flag.String("git-rev", "", "git revision recorded in the manifest (default: ask git)")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "starbench: -cpuprofile: %v\n", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "starbench: -cpuprofile: %v\n", err)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "starbench: -cpuprofile: close: %v\n", err)
			}
		}()
	}
	if *memprofile != "" {
		defer writeMemProfile(*memprofile)
	}

	switch *format {
	case "table":
		render = experiments.FormatTable
	case "csv":
		render = experiments.FormatCSV
	default:
		fmt.Fprintf(os.Stderr, "starbench: unknown format %q\n", *format)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ropts := []experiments.Option{
		experiments.WithOps(*ops),
		experiments.WithSeeds(*seeds),
		experiments.WithParallelism(*parallel),
		experiments.WithConfig(func() sim.Config {
			cfg := sim.Default()
			cfg.DataBytes = uint64(*dataMB) << 20
			cfg.MetaCache.SizeBytes = *metaKB << 10
			return cfg
		}),
	}
	if *crashPts != "" {
		points, err := parseCrashPoints(*crashPts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "starbench: -crash-points: %v\n", err)
			return 2
		}
		ropts = append(ropts, experiments.WithCrashPoints(points...))
	}
	if *workloads != "" {
		ropts = append(ropts, experiments.WithWorkloads(strings.Split(*workloads, ",")...))
	}
	if runtime.NumCPU() == 1 && *parallel > 1 {
		// Warn once: on a single-CPU host extra workers only add
		// scheduling overhead, and speedup floors are meaningless there —
		// stardiff records the cpus env field of every bench document so
		// its gates can tell single-CPU numbers apart.
		fmt.Fprintf(os.Stderr, "starbench: warning: -parallel > 1 on a 1-CPU host; no parallel speedup is possible (stardiff's cpus env field records this)\n")
	}
	if *progress {
		ropts = append(ropts, experiments.WithProgress(printProgress))
	}
	var collector *provenance.Collector
	if *manifestOut != "" {
		collector = &provenance.Collector{}
		ropts = append(ropts, experiments.WithCollector(collector))
	}
	var sweepTrace *telemetry.Trace
	if *traceOut != "" {
		sweepTrace = telemetry.NewTrace(0)
		ropts = append(ropts, experiments.WithTrace(sweepTrace))
		defer func() {
			if err := writeTrace(*traceOut, sweepTrace); err != nil {
				fmt.Fprintf(os.Stderr, "starbench: -trace-out: %v\n", err)
			}
		}()
	}
	r := experiments.NewRunner(ropts...)

	if *httpAddr != "" {
		srv := telemetry.NewDebugServer(*httpAddr, map[string]func() any{
			"sweep": func() any { return r.Snapshot() },
		})
		addr, err := srv.Start()
		if err != nil {
			fmt.Fprintf(os.Stderr, "starbench: -http: %v\n", err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "starbench: live stats on http://%s/debug/vars (pprof under /debug/pprof/)\n", addr)
	}

	code := 0
	runExp := func(name string, fn func() error) bool {
		fmt.Printf("== %s ==\n", name)
		if err := fn(); err != nil {
			if errors.Is(err, context.Canceled) {
				fmt.Fprintln(os.Stderr, "starbench: interrupted")
				code = 130
				return false
			}
			fmt.Fprintf(os.Stderr, "starbench: %s: %v\n", name, err)
			code = 1
			return false
		}
		fmt.Println()
		return true
	}

	want := func(name string) bool { return *exp == "all" || *exp == name }
	ran := false

	if want("fig10") {
		ran = true
		if !runExp("Fig. 10: bitmap-line writes vs WB writes", func() error { return fig10(ctx, r) }) {
			return code
		}
	}
	if want("fig11") || want("fig12") || want("fig13") {
		ran = true
		if !runExp("Figs. 11-13: write traffic / IPC / energy (normalized to WB)", func() error { return schemeComparison(ctx, r) }) {
			return code
		}
	}
	if want("table2") {
		ran = true
		if !runExp("Table II: ADR bitmap-line hit ratio", func() error { return table2(ctx, r) }) {
			return code
		}
	}
	if want("fig14a") {
		ran = true
		if !runExp("Fig. 14a: dirty metadata fraction", func() error { return fig14a(ctx, r) }) {
			return code
		}
	}
	if want("fig14b") {
		ran = true
		if !runExp("Fig. 14b: recovery time vs metadata cache size", func() error { return fig14b(ctx, r) }) {
			return code
		}
	}
	if want("ablation-index") {
		ran = true
		if !runExp("Ablation: multi-layer index vs flat RA scan", func() error { return ablationIndex(ctx, r) }) {
			return code
		}
	}
	// Not part of -exp all: the crash-point sweep is a diagnostic over
	// the -crash-points axis, not a paper figure.
	if *exp == "crash-points" {
		ran = true
		if !runExp("Crash points: recovery cost vs crash position (forked base runs)", func() error { return crashPoints(ctx, r) }) {
			return code
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "starbench: unknown experiment %q\n", *exp)
		return 2
	}

	if *progress {
		printFinalStats("starbench", r)
	}
	if *manifestOut != "" && code == 0 {
		if err := writeManifest(*manifestOut, *gitRev, r); err != nil {
			fmt.Fprintf(os.Stderr, "starbench: -manifest-out: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "starbench: wrote run manifest to %s (%d cells)\n", *manifestOut, collector.Len())
	}
	return code
}

// printFinalStats summarizes the whole run on stderr once every sweep
// is done — the headless counterpart of the -http expvar endpoint.
func printFinalStats(prog string, r *experiments.Runner) {
	s := r.Snapshot()
	wall := r.WallTime().Seconds()
	fmt.Fprintf(os.Stderr, "%s: done: %d/%d cells in %.1fs (%d machines built, %d reused, %d runs shared, %.1f cells/s)\n",
		prog, s.CellsDone, s.CellsTotal, wall, s.MachinesBuilt, s.MachinesReused, s.RunsShared, float64(s.CellsDone)/wall)
	for _, w := range s.Workers {
		busy := time.Duration(w.BusyNs).Seconds()
		idle := time.Duration(w.IdleNs).Seconds()
		util := 0.0
		if busy+idle > 0 {
			util = 100 * busy / (busy + idle)
		}
		fmt.Fprintf(os.Stderr, "%s:   worker %d: %d units, %.1fs busy, %.1fs idle (%.0f%% utilized)\n",
			prog, w.Worker, w.Units, busy, idle, util)
	}
}

// writeManifest seals and writes the run's provenance manifest.
func writeManifest(path, gitRev string, r *experiments.Runner) error {
	m, err := r.BuildManifest(gitRev)
	if err != nil {
		return err
	}
	return m.WriteFile(path)
}

// writeMemProfile captures the allocation profile, reporting (rather
// than swallowing) create/write/close errors.
func writeMemProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "starbench: -memprofile: %v\n", err)
		return
	}
	runtime.GC() // flush unreachable objects so allocs reflect the run
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		fmt.Fprintf(os.Stderr, "starbench: -memprofile: %v\n", err)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "starbench: -memprofile: close: %v\n", err)
	}
}

// writeTrace flushes a sweep trace to path (skipped when no cell ever
// completed, e.g. an immediate flag error).
func writeTrace(path string, tr *telemetry.Trace) error {
	if tr.Len() == 0 {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "starbench: wrote sweep trace to %s (%d events)\n", path, tr.Len())
	return nil
}

// printProgress renders one completed cell on stderr:
//
//	[ 3/28] array/star 1.2s (elapsed 3.8s, 0.8 cells/s, eta 31s)
func printProgress(p experiments.Progress) {
	cell := p.Cell.Workload + "/" + p.Cell.Scheme
	if p.Cell.Label != "" {
		cell += " " + p.Cell.Label
	}
	line := fmt.Sprintf("[%2d/%d] %s %.1fs (elapsed %.1fs, %.1f cells/s",
		p.Done, p.Total, cell, p.CellWall.Seconds(), p.Elapsed.Seconds(), p.CellsPerSec)
	if p.Done < p.Total {
		line += fmt.Sprintf(", eta %.1fs", p.ETA.Seconds())
	}
	line += ")"
	if p.Err != nil {
		line += fmt.Sprintf(" ERROR: %v", p.Err)
	}
	fmt.Fprintln(os.Stderr, line)
}

func fig10(ctx context.Context, r *experiments.Runner) error {
	rows, err := r.Fig10(ctx)
	if err != nil {
		return err
	}
	var cells [][]string
	var sumRatio float64
	for _, row := range rows {
		cells = append(cells, []string{
			row.Workload,
			fmt.Sprintf("%d", row.WBWrites),
			fmt.Sprintf("%d", row.BitmapWrites),
			fmt.Sprintf("%d", row.BitmapReads),
			fmt.Sprintf("%.0fx", row.Ratio),
		})
		sumRatio += row.Ratio
	}
	cells = append(cells, []string{"average", "", "", "", fmt.Sprintf("%.0fx", sumRatio/float64(len(rows)))})
	fmt.Print(render(
		[]string{"workload", "WB writes", "bitmap writes", "bitmap reads", "WB/bitmap"}, cells))
	return nil
}

func schemeComparison(ctx context.Context, r *experiments.Runner) error {
	rows, err := r.SchemeComparison(ctx, nil)
	if err != nil {
		return err
	}
	experiments.SortSchemeRows(rows)
	var cells [][]string
	for _, row := range rows {
		cells = append(cells, []string{
			row.Workload, row.Scheme,
			fmt.Sprintf("%.2f", row.WritesPerOp),
			fmt.Sprintf("%.2fx", row.WriteRatio),
			fmt.Sprintf("%.3f", row.IPC),
			fmt.Sprintf("%.2f", row.IPCRatio),
			fmt.Sprintf("%.1f", row.EnergyPerOp/1000),
			fmt.Sprintf("%.2fx", row.EnergyRatio),
		})
	}
	fmt.Print(render(
		[]string{"workload", "scheme", "writes/op", "W vs WB", "IPC", "IPC vs WB", "nJ/op", "E vs WB"}, cells))
	return nil
}

func table2(ctx context.Context, r *experiments.Runner) error {
	rows, err := r.Table2(ctx, nil)
	if err != nil {
		return err
	}
	var cells [][]string
	for _, row := range rows {
		cells = append(cells, []string{
			fmt.Sprintf("%d", row.ADRLines),
			fmt.Sprintf("%.2f%%", 100*row.HitRatio),
		})
	}
	fmt.Print(render([]string{"bitmap lines", "hit ratio"}, cells))
	return nil
}

func fig14a(ctx context.Context, r *experiments.Runner) error {
	rows, err := r.Fig14a(ctx)
	if err != nil {
		return err
	}
	var cells [][]string
	var sum float64
	for _, row := range rows {
		cells = append(cells, []string{row.Workload, fmt.Sprintf("%.1f%%", 100*row.DirtyFrac)})
		sum += row.DirtyFrac
	}
	cells = append(cells, []string{"average", fmt.Sprintf("%.1f%%", 100*sum/float64(len(rows)))})
	fmt.Print(render([]string{"workload", "dirty metadata"}, cells))
	return nil
}

func fig14b(ctx context.Context, r *experiments.Runner) error {
	rows, err := r.Fig14b(ctx, nil)
	if err != nil {
		return err
	}
	var cells [][]string
	for _, row := range rows {
		cells = append(cells, []string{
			fmt.Sprintf("%d KiB", row.MetaCacheBytes>>10),
			fmt.Sprintf("%d", row.StaleNodes),
			fmt.Sprintf("%.4fs", row.StarSeconds),
			fmt.Sprintf("%.4fs", row.AnubisSeconds),
			fmt.Sprintf("%.2fx", row.StarSeconds/row.AnubisSeconds),
		})
	}
	fmt.Print(render(
		[]string{"meta cache", "stale nodes", "STAR", "Anubis", "STAR/Anubis"}, cells))
	return nil
}

// parseCrashPoints parses the -crash-points value: comma-separated
// operation counts (the experiments layer sorts, dedupes and clamps
// them per scheme).
func parseCrashPoints(s string) ([]int, error) {
	var out []int
	for _, field := range strings.Split(s, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		v, err := strconv.Atoi(field)
		if err != nil {
			return nil, fmt.Errorf("bad crash point %q (want an op count)", field)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no crash points in %q", s)
	}
	return out, nil
}

func crashPoints(ctx context.Context, r *experiments.Runner) error {
	rows, err := r.CrashPoints(ctx, nil)
	if err != nil {
		return err
	}
	var cells [][]string
	for _, row := range rows {
		cells = append(cells, []string{
			row.Workload, row.Scheme,
			fmt.Sprintf("%d", row.CrashOps),
			fmt.Sprintf("%d", row.StaleNodes),
			fmt.Sprintf("%.4fs", row.Seconds),
		})
	}
	fmt.Print(render(
		[]string{"workload", "scheme", "crash ops", "stale nodes", "recovery"}, cells))
	return nil
}

func ablationIndex(ctx context.Context, r *experiments.Runner) error {
	rows, err := r.AblationIndex(ctx)
	if err != nil {
		return err
	}
	var cells [][]string
	for _, row := range rows {
		cells = append(cells, []string{
			row.Workload,
			fmt.Sprintf("%d", row.IndexedReads),
			fmt.Sprintf("%d", row.FlatReads),
			fmt.Sprintf("%.4fs", row.IndexedSecs),
			fmt.Sprintf("%.4fs", row.FlatSecs),
		})
	}
	fmt.Print(render(
		[]string{"workload", "indexed reads", "flat reads", "indexed time", "flat time"}, cells))
	return nil
}
