// Command starbench regenerates the paper's evaluation (Figs. 10-14,
// Table II) on the simulated machine. It is the one driver of the
// evaluation: every experiment reads one Runner, which simulates each
// distinct run once, so the tables, the shape report and the SVG
// figures all come from the same rows. The (workload, scheme, seed)
// cell matrix fans out over a worker pool (-parallel, default
// GOMAXPROCS); results are bit-identical to a sequential run. Every
// experiment can be run alone:
//
//	starbench -exp fig11 -ops 20000
//	starbench -exp all -parallel 8 -svg figures
//	starbench -exp report -ops 8000 > report.md
//
// -exp all prints every paper table; -svg DIR also writes each SVG
// figure whose rows the run computed. -exp report checks every paper
// shape (internal/shapes) and prints a markdown report, exiting 1 if a
// check fails (-gate=false downgrades that to a warning; -shapes-out
// writes the report as JSON for stardiff). -observe enables the
// observatory: the output gains per-(workload, scheme) write-cause and
// tail-latency tables, and -latency-out writes the tails as a
// stardiff-comparable latency document; with -svg DIR it also draws
// each workload's read and write latency CDFs, one curve per scheme.
//
// The -workloads flag restricts the workload set, e.g.
// -workloads array,hash. Per-cell completion, wall time and ETA are
// reported on stderr (-progress=false silences them); Ctrl-C aborts
// the sweep mid-cell. -manifest-out writes a run provenance manifest
// (environment, config fingerprint, per-cell result digests) that
// stardiff can compare against a baseline. Artifacts are written
// before the shape gate, so a failing run still leaves files to diff.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
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
	"nvmstar/internal/regress"
	"nvmstar/internal/shapes"
	"nvmstar/internal/sim"
	"nvmstar/internal/telemetry"
)

// main delegates to run so deferred cleanup — stopping the CPU
// profile, closing and error-checking the profile files, flushing the
// sweep trace — executes on every exit path; os.Exit would skip it.
func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// sweep is one invocation's output state: the tables go to stdout in
// the -format renderer, and the rows the experiments computed are kept
// for the SVG figures and the shape gate.
type sweep struct {
	r      *experiments.Runner
	stdout io.Writer
	render func(header []string, rows [][]string) string
	figs   figureRows
	report *shapes.Report
}

// experiment is one -exp entry. An empty title prints the output
// without the "== title ==" banner (the shape report is markdown).
type experiment struct {
	names []string
	inAll bool
	title string
	run   func(*sweep, context.Context) error
}

var experimentList = []experiment{
	{[]string{"fig10"}, true, "Fig. 10: bitmap-line writes vs WB writes", (*sweep).fig10},
	{[]string{"fig11", "fig12", "fig13"}, true, "Figs. 11-13: write traffic / IPC / energy (normalized to WB)", (*sweep).schemeComparison},
	{[]string{"table2"}, true, "Table II: ADR bitmap-line hit ratio", (*sweep).table2},
	{[]string{"fig14a"}, true, "Fig. 14a: dirty metadata fraction", (*sweep).fig14a},
	{[]string{"fig14b"}, true, "Fig. 14b: recovery time vs metadata cache size", (*sweep).fig14b},
	{[]string{"ablation-index"}, true, "Ablation: multi-layer index vs flat RA scan", (*sweep).ablationIndex},
	// Not part of -exp all: the crash-point sweep is a diagnostic over
	// the -crash-points axis, and the report re-reads the paper matrix
	// as shape checks rather than tables.
	{[]string{"crash-points"}, false, "Crash points: recovery cost vs crash position (forked base runs)", (*sweep).crashPoints},
	{[]string{"report"}, false, "", (*sweep).shapeReport},
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("starbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment: fig10|fig11|fig12|fig13|table2|fig14a|fig14b|ablation-index|crash-points|report|all (all = the paper matrix; crash-points and report run only when named)")
	ops := fs.Int("ops", 20000, "measured operations per workload run")
	crashPts := fs.String("crash-points", "", "comma-separated mid-run crash points (in ops) for -exp crash-points; all points share one forked base run per cell (default: one crash at end of run)")
	workloads := fs.String("workloads", "", "comma-separated workload subset (default: all seven)")
	seeds := fs.Int("seeds", 1, "average each measured cell (fig10-fig13, table2, fig14a) over this many workload seeds; the crash sweeps (fig14b, ablation-index, crash-points) run seed 0 only")
	format := fs.String("format", "table", "output format: table|csv")
	dataMB := fs.Int("data-mb", 64, "protected data size in MiB")
	metaKB := fs.Int("meta-kb", 256, "metadata cache size in KiB")
	parallel := fs.Int("parallel", 0, "concurrent cells in the sweep (0 = GOMAXPROCS)")
	progress := fs.Bool("progress", true, "report per-cell completion, rate and ETA on stderr")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
	memprofile := fs.String("memprofile", "", "write an allocation profile to this file on exit")
	traceOut := fs.String("trace-out", "", "write a Chrome trace-event JSON of the sweep's cells to this file")
	manifestOut := fs.String("manifest-out", "", "write a run provenance manifest (per-cell result digests) to this file")
	gitRev := fs.String("git-rev", "", "git revision recorded in the manifest (default: ask git)")
	svgDir := fs.String("svg", "", "also write each SVG figure whose rows the run computed to this directory (with -observe, per-workload latency CDFs too)")
	observe := fs.Bool("observe", false, "enable the observatory: append per-(workload, scheme) write-cause breakdown and tail-latency tables to the output (and to -latency-out)")
	latencyOut := fs.String("latency-out", "", "write the tail-latency aggregate as a latency document (stardiff-comparable, SLO-gateable) to this file; requires -observe")
	shapesOut := fs.String("shapes-out", "", "write the shape report as JSON to this file (-exp report)")
	gate := fs.Bool("gate", true, "exit non-zero when a shape check fails (-exp report)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	logf := func(format string, a ...any) { fmt.Fprintf(stderr, "starbench: "+format+"\n", a...) }
	for _, f := range []struct {
		name   string
		v, min int
	}{{"ops", *ops, 1}, {"seeds", *seeds, 1}, {"data-mb", *dataMB, 1}, {"meta-kb", *metaKB, 1}, {"parallel", *parallel, 0}} {
		if f.v < f.min {
			logf("-%s %d: must be at least %d", f.name, f.v, f.min)
			return 2
		}
	}

	var selected []experiment
	for _, e := range experimentList {
		for _, name := range e.names {
			if *exp == name || (*exp == "all" && e.inAll) {
				selected = append(selected, e)
				break
			}
		}
	}
	if len(selected) == 0 {
		logf("unknown experiment %q", *exp)
		return 2
	}
	if *latencyOut != "" && !*observe {
		logf("-latency-out requires -observe")
		return 2
	}
	if *shapesOut != "" && *exp != "report" {
		logf("-shapes-out requires -exp report")
		return 2
	}

	s := &sweep{stdout: stdout}
	switch *format {
	case "table":
		s.render = experiments.FormatTable
	case "csv":
		s.render = experiments.FormatCSV
	default:
		logf("unknown format %q", *format)
		return 2
	}

	ropts := []experiments.Option{
		experiments.WithOps(*ops),
		experiments.WithSeeds(*seeds),
		experiments.WithParallelism(*parallel),
		experiments.WithConfig(func() sim.Config {
			cfg := sim.Evaluation()
			cfg.DataBytes = uint64(*dataMB) << 20
			cfg.MetaCache.SizeBytes = *metaKB << 10
			cfg.Observe = *observe
			return cfg
		}),
	}
	if *crashPts != "" {
		points, err := parseCrashPoints(*crashPts)
		if err != nil {
			logf("-crash-points: %v", err)
			return 2
		}
		ropts = append(ropts, experiments.WithCrashPoints(points...))
	}
	if *workloads != "" {
		ropts = append(ropts, experiments.WithWorkloads(strings.Split(*workloads, ",")...))
	}
	if runtime.NumCPU() == 1 && *parallel > 1 {
		// Warn once: on a single-CPU host extra workers only add
		// scheduling overhead.
		logf("warning: -parallel > 1 on a 1-CPU host; no parallel speedup is possible")
	}
	if *progress {
		ropts = append(ropts, experiments.WithProgress(printProgress(stderr)))
	}
	var obs *experiments.Observatory
	if *observe {
		obs = experiments.NewObservatory()
		ropts = append(ropts, experiments.WithResultObserver(obs.Observe))
	}
	var collector *provenance.Collector
	if *manifestOut != "" {
		collector = &provenance.Collector{}
		ropts = append(ropts, experiments.WithCollector(collector))
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			logf("-cpuprofile: %v", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			logf("-cpuprofile: %v", err)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				logf("-cpuprofile: close: %v", err)
			}
		}()
	}
	if *memprofile != "" {
		defer writeMemProfile(*memprofile, logf)
	}
	var sweepTrace *telemetry.Trace
	if *traceOut != "" {
		sweepTrace = telemetry.NewTrace(0)
		ropts = append(ropts, experiments.WithTrace(sweepTrace))
		// Flushed on exit, unless no cell ever completed (e.g. an
		// immediate flag error).
		defer func() {
			if sweepTrace.Len() == 0 {
				return
			}
			if err := sweepTrace.WriteFile(*traceOut); err != nil {
				logf("-trace-out: %v", err)
				return
			}
			logf("wrote sweep trace to %s (%d events)", *traceOut, sweepTrace.Len())
		}()
	}
	s.r = experiments.NewRunner(ropts...)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	for _, e := range selected {
		if e.title != "" {
			fmt.Fprintf(stdout, "== %s ==\n", e.title)
		}
		if err := e.run(s, ctx); err != nil {
			if errors.Is(err, context.Canceled) {
				logf("interrupted")
				return 130
			}
			logf("-exp %s: %v", e.names[0], err)
			return 1
		}
		if e.title != "" {
			fmt.Fprintln(stdout)
		}
	}
	if obs != nil {
		fmt.Fprint(stdout, "\n"+obs.Markdown())
	}
	if *progress {
		printFinalStats(stderr, s.r)
	}

	// Persist artifacts before gating, so a failing run still leaves
	// evidence to diff.
	if *manifestOut != "" {
		m, err := s.r.BuildManifest(*gitRev)
		if err == nil {
			err = m.WriteFile(*manifestOut)
		}
		if err != nil {
			logf("-manifest-out: %v", err)
			return 1
		}
		logf("wrote run manifest to %s (%d cells)", *manifestOut, collector.Len())
	}
	if *shapesOut != "" {
		if err := s.report.WriteFile(*shapesOut); err != nil {
			logf("-shapes-out: %v", err)
			return 1
		}
		logf("wrote shape report to %s", *shapesOut)
	}
	if *latencyOut != "" {
		rows := latencyRows(obs)
		if err := regress.WriteLatencyDoc(*latencyOut, rows); err != nil {
			logf("-latency-out: %v", err)
			return 1
		}
		logf("wrote latency document to %s (%d rows)", *latencyOut, len(rows))
	}
	if *svgDir != "" {
		s.figs.latency = obs.Rows()
		paths, err := s.figs.write(*svgDir, *ops)
		for _, p := range paths {
			logf("wrote %s", p)
		}
		if err != nil {
			logf("-svg: %v", err)
			return 1
		}
	}

	if s.report != nil && !s.report.Passed() {
		if *gate {
			logf("one or more shape checks FAILED")
			return 1
		}
		logf("shape failures ignored (-gate=false)")
	}
	return 0
}

// latencyRows flattens the observatory's tails into latency-document
// rows, skipping ops a cell never issued.
func latencyRows(obs *experiments.Observatory) []regress.LatencyRow {
	var rows []regress.LatencyRow
	for _, r := range obs.Rows() {
		for _, o := range r.Latency.Ops {
			if o.Count == 0 {
				continue
			}
			rows = append(rows, regress.LatencyRow{
				Workload: r.Workload, Scheme: r.Scheme, Op: o.Op,
				Count: o.Count, P50Ns: o.P50Ns, P90Ns: o.P90Ns,
				P99Ns: o.P99Ns, P999Ns: o.P999Ns, MaxNs: o.MaxNs,
			})
		}
	}
	return rows
}

// printFinalStats summarizes the whole run on stderr once every sweep
// is done.
func printFinalStats(w io.Writer, r *experiments.Runner) {
	s := r.Snapshot()
	wall := r.WallTime().Seconds()
	fmt.Fprintf(w, "starbench: done: %d/%d cells in %.1fs (%d machines built, %d reused, %d runs shared, %.1f cells/s)\n",
		s.CellsDone, s.CellsTotal, wall, s.MachinesBuilt, s.MachinesReused, s.RunsShared, float64(s.CellsDone)/wall)
	for _, wk := range s.Workers {
		busy := time.Duration(wk.BusyNs).Seconds()
		idle := time.Duration(wk.IdleNs).Seconds()
		util := 0.0
		if busy+idle > 0 {
			util = 100 * busy / (busy + idle)
		}
		fmt.Fprintf(w, "starbench:   worker %d: %d units, %.1fs busy, %.1fs idle (%.0f%% utilized)\n",
			wk.Worker, wk.Units, busy, idle, util)
	}
}

// writeMemProfile captures the allocation profile, reporting (rather
// than swallowing) create/write/close errors.
func writeMemProfile(path string, logf func(string, ...any)) {
	f, err := os.Create(path)
	if err != nil {
		logf("-memprofile: %v", err)
		return
	}
	runtime.GC() // flush unreachable objects so allocs reflect the run
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		logf("-memprofile: %v", err)
	}
	if err := f.Close(); err != nil {
		logf("-memprofile: close: %v", err)
	}
}

// printProgress returns a Progress callback rendering one completed
// cell on w:
//
//	[ 3/28] array/star 1.2s (elapsed 3.8s, 0.8 cells/s, eta 31s)
func printProgress(w io.Writer) func(experiments.Progress) {
	return func(p experiments.Progress) {
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
		fmt.Fprintln(w, line)
	}
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

func (s *sweep) table(header []string, cells [][]string) {
	fmt.Fprint(s.stdout, s.render(header, cells))
}

func (s *sweep) fig10(ctx context.Context) error {
	rows, err := s.r.Fig10(ctx)
	if err != nil {
		return err
	}
	s.figs.fig10 = rows
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
	s.table([]string{"workload", "WB writes", "bitmap writes", "bitmap reads", "WB/bitmap"}, cells)
	return nil
}

func (s *sweep) schemeComparison(ctx context.Context) error {
	rows, err := s.r.SchemeComparison(ctx, nil)
	if err != nil {
		return err
	}
	experiments.SortSchemeRows(rows)
	s.figs.scheme = rows
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
	s.table([]string{"workload", "scheme", "writes/op", "W vs WB", "IPC", "IPC vs WB", "nJ/op", "E vs WB"}, cells)
	return nil
}

func (s *sweep) table2(ctx context.Context) error {
	rows, err := s.r.Table2(ctx, nil)
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
	s.table([]string{"bitmap lines", "hit ratio"}, cells)
	return nil
}

func (s *sweep) fig14a(ctx context.Context) error {
	rows, err := s.r.Fig14a(ctx)
	if err != nil {
		return err
	}
	s.figs.fig14a = rows
	var cells [][]string
	var sum float64
	for _, row := range rows {
		cells = append(cells, []string{row.Workload, fmt.Sprintf("%.1f%%", 100*row.DirtyFrac)})
		sum += row.DirtyFrac
	}
	cells = append(cells, []string{"average", fmt.Sprintf("%.1f%%", 100*sum/float64(len(rows)))})
	s.table([]string{"workload", "dirty metadata"}, cells)
	return nil
}

func (s *sweep) fig14b(ctx context.Context) error {
	rows, err := s.r.Fig14b(ctx, nil)
	if err != nil {
		return err
	}
	s.figs.fig14b = rows
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
	s.table([]string{"meta cache", "stale nodes", "STAR", "Anubis", "STAR/Anubis"}, cells)
	return nil
}

func (s *sweep) crashPoints(ctx context.Context) error {
	rows, err := s.r.CrashPoints(ctx, nil)
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
	s.table([]string{"workload", "scheme", "crash ops", "stale nodes", "recovery"}, cells)
	return nil
}

func (s *sweep) ablationIndex(ctx context.Context) error {
	rows, err := s.r.AblationIndex(ctx)
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
	s.table([]string{"workload", "indexed reads", "flat reads", "indexed time", "flat time"}, cells)
	return nil
}

// shapeReport checks every paper shape and prints the markdown report;
// run gates on it after the artifacts are written.
func (s *sweep) shapeReport(ctx context.Context) error {
	rep, err := shapes.EvaluateCtx(ctx, s.r)
	if err != nil {
		return err
	}
	s.report = rep
	s.figs.scheme = rep.Scheme
	s.figs.fig14a = rep.Fig14a
	s.figs.fig14b = rep.Fig14b
	fmt.Fprint(s.stdout, rep.Markdown())
	return nil
}
