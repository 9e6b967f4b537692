// Command starreport runs the full evaluation matrix and emits a
// markdown report of every reproduced relationship — the executable
// form of EXPERIMENTS.md. The matrix fans out over a worker pool
// (-parallel); the exit code is non-zero if any shape check fails, so
// it doubles as a reproduction CI gate:
//
//	starreport -ops 8000 -parallel 8 > report.md
//
// Provenance and regression plumbing: -manifest-out / -shapes-out
// persist the run as machine-readable artifacts, -baseline diffs the
// fresh shapes against a committed shapes report (adding a drift
// column to the markdown and failing on out-of-tolerance drift), and
// -gate=false downgrades shape failures to warnings — for generating
// baselines from smoke-sized runs whose absolute shapes are not
// expected to hold. -observe enables the observatory: the report gains
// a per-(workload, scheme) write-cause breakdown and a per-(workload,
// scheme, op) tail-latency table, -latency-out persists the tails as a
// stardiff-comparable latency document (the SLO gate's input), and
// with -http the aggregate is scrapable as OpenMetrics on /metrics.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
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

func main() { os.Exit(run()) }

func run() int {
	ops := flag.Int("ops", 8000, "measured operations per workload run")
	seeds := flag.Int("seeds", 1, "seeds to average per cell")
	workloads := flag.String("workloads", "", "comma-separated workload subset (default: all seven)")
	crashPts := flag.String("crash-points", "", "comma-separated mid-run crash points (in ops) for crash-family sweeps; all points share one forked base run per cell (default: one crash at end of run)")
	dataMB := flag.Int("data-mb", 64, "protected data size in MiB")
	parallel := flag.Int("parallel", 0, "concurrent cells in the sweep (0 = GOMAXPROCS)")
	observe := flag.Bool("observe", false, "enable the observatory: append per-(workload, scheme) write-cause breakdown and tail-latency tables to the report and expose them on -http /metrics")
	latencyOut := flag.String("latency-out", "", "write the tail-latency aggregate as a latency document (stardiff-comparable, SLO-gateable) to this file; requires -observe")
	progress := flag.Bool("progress", true, "report per-cell completion, rate and ETA on stderr")
	httpAddr := flag.String("http", "", "serve live sweep stats (expvar) and pprof on this address, e.g. :6060")
	manifestOut := flag.String("manifest-out", "", "write a run provenance manifest (per-cell result digests) to this file")
	shapesOut := flag.String("shapes-out", "", "write the shape report as JSON to this file")
	baseline := flag.String("baseline", "", "shapes-report JSON to diff against; drift beyond tolerance fails the run")
	tolPath := flag.String("tol", "", "tolerance config JSON for -baseline (default: built-in thresholds)")
	gitRev := flag.String("git-rev", "", "git revision recorded in the manifest (default: ask git)")
	gate := flag.Bool("gate", true, "exit non-zero when a shape check fails")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ropts := []experiments.Option{
		experiments.WithOps(*ops),
		experiments.WithSeeds(*seeds),
		experiments.WithParallelism(*parallel),
		experiments.WithConfig(func() sim.Config {
			cfg := sim.Default()
			cfg.DataBytes = uint64(*dataMB) << 20
			cfg.MetaCache.SizeBytes = 256 << 10
			cfg.Observe = *observe
			return cfg
		}),
	}
	if *latencyOut != "" && !*observe {
		fmt.Fprintln(os.Stderr, "starreport: -latency-out requires -observe")
		return 2
	}
	var obs *experiments.Observatory
	if *observe {
		obs = experiments.NewObservatory()
		ropts = append(ropts, experiments.WithResultObserver(obs.Observe))
	}
	if *workloads != "" {
		ropts = append(ropts, experiments.WithWorkloads(strings.Split(*workloads, ",")...))
	}
	if *crashPts != "" {
		var points []int
		for _, field := range strings.Split(*crashPts, ",") {
			if field = strings.TrimSpace(field); field == "" {
				continue
			}
			v, err := strconv.Atoi(field)
			if err != nil {
				fmt.Fprintf(os.Stderr, "starreport: -crash-points: bad crash point %q\n", field)
				return 2
			}
			points = append(points, v)
		}
		ropts = append(ropts, experiments.WithCrashPoints(points...))
	}
	if *progress {
		ropts = append(ropts, experiments.WithProgress(func(p experiments.Progress) {
			cell := p.Cell.Workload + "/" + p.Cell.Scheme
			if p.Cell.Label != "" {
				cell += " " + p.Cell.Label
			}
			fmt.Fprintf(os.Stderr, "[%2d/%d] %s %.1fs (elapsed %.1fs, %.1f cells/s, eta %.1fs)\n",
				p.Done, p.Total, cell, p.CellWall.Seconds(), p.Elapsed.Seconds(), p.CellsPerSec, p.ETA.Seconds())
		}))
	}
	var collector *provenance.Collector
	if *manifestOut != "" {
		collector = &provenance.Collector{}
		ropts = append(ropts, experiments.WithCollector(collector))
	}
	r := experiments.NewRunner(ropts...)

	if *httpAddr != "" {
		srv := telemetry.NewDebugServer(*httpAddr, map[string]func() any{
			"sweep": func() any { return r.Snapshot() },
		})
		if obs != nil {
			srv.AddMetricsSource(obs)
		}
		addr, err := srv.Start()
		if err != nil {
			fmt.Fprintln(os.Stderr, "starreport: -http:", err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "starreport: live stats on http://%s/debug/vars (pprof under /debug/pprof/; observatory on /metrics with -observe)\n", addr)
	}

	rep, err := shapes.EvaluateCtx(ctx, r)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "starreport: interrupted")
			return 130
		}
		fmt.Fprintln(os.Stderr, "starreport:", err)
		return 1
	}
	if *progress {
		s := r.Snapshot()
		wall := r.WallTime().Seconds()
		fmt.Fprintf(os.Stderr, "starreport: done: %d/%d cells in %.1fs (%d machines built, %d reused, %d runs shared, %.1f cells/s)\n",
			s.CellsDone, s.CellsTotal, wall, s.MachinesBuilt, s.MachinesReused, s.RunsShared, float64(s.CellsDone)/wall)
		for _, w := range s.Workers {
			busy := time.Duration(w.BusyNs).Seconds()
			idle := time.Duration(w.IdleNs).Seconds()
			util := 0.0
			if busy+idle > 0 {
				util = 100 * busy / (busy + idle)
			}
			fmt.Fprintf(os.Stderr, "starreport:   worker %d: %d units, %.1fs busy, %.1fs idle (%.0f%% utilized)\n",
				w.Worker, w.Units, busy, idle, util)
		}
	}

	// Persist artifacts before gating, so a failing run still leaves
	// evidence to diff.
	if *shapesOut != "" {
		if err := rep.WriteFile(*shapesOut); err != nil {
			fmt.Fprintln(os.Stderr, "starreport: -shapes-out:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "starreport: wrote shape report to %s\n", *shapesOut)
	}
	if *manifestOut != "" {
		m, err := r.BuildManifest(*gitRev)
		if err == nil {
			err = m.WriteFile(*manifestOut)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "starreport: -manifest-out:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "starreport: wrote run manifest to %s (%d cells)\n", *manifestOut, collector.Len())
	}
	if *latencyOut != "" {
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
		if err := regress.WriteLatencyDoc(*latencyOut, rows); err != nil {
			fmt.Fprintln(os.Stderr, "starreport: -latency-out:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "starreport: wrote latency document to %s (%d rows)\n", *latencyOut, len(rows))
	}

	code := 0
	var drift map[string]string
	if *baseline != "" {
		tol := regress.DefaultTolerance()
		if *tolPath != "" {
			if tol, err = regress.LoadTolerance(*tolPath); err != nil {
				fmt.Fprintln(os.Stderr, "starreport: -tol:", err)
				return 2
			}
		}
		base, err := shapes.ReadReport(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "starreport: -baseline:", err)
			return 2
		}
		v := regress.CompareShapes(base, rep, tol)
		drift = regress.DriftByName(v)
		if v.Regressed() {
			fmt.Fprintf(os.Stderr, "starreport: drift vs %s exceeds tolerance:\n%s", *baseline, v.Markdown())
			code = 1
		}
	}

	fmt.Print(rep.MarkdownWithDrift(drift))
	if obs != nil {
		fmt.Print("\n" + obs.Markdown())
	}
	if !rep.Passed() {
		if *gate {
			fmt.Fprintln(os.Stderr, "starreport: one or more shape checks FAILED")
			return 1
		}
		fmt.Fprintln(os.Stderr, "starreport: shape failures ignored (-gate=false)")
	}
	return code
}
