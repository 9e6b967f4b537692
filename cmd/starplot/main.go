// Command starplot regenerates the paper's evaluation figures as SVG
// files (Figs. 10-13 and 14a/14b) from live simulation runs, fanning
// the cell matrix out over a worker pool:
//
//	starplot -ops 8000 -out ./figures -parallel 8
//
// The -timeline mode instead runs one telemetry-enabled simulation and
// renders its sampled series over simulated time (dirty metadata
// fraction, cache hit ratios, write amplification) plus a Perfetto
// trace of the run's structured events:
//
//	starplot -timeline -workload hash -scheme star -out ./figures
//
// The -cdf mode runs one observed simulation per scheme and
// renders paper-style operation-latency CDFs (log-x, one curve per
// scheme); -wearmap renders a per-bank NVM wear heatmap from one
// observed run.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"nvmstar/internal/experiments"
	"nvmstar/internal/sim"
	"nvmstar/internal/svgplot"
)

// main delegates to run so deferred cleanup (the signal-context stop)
// executes on every exit path — an os.Exit mid-function would skip
// it; error paths return an exit code instead (the startrace fix,
// applied here too).
func main() { os.Exit(run()) }

func run() int {
	ops := flag.Int("ops", 8000, "measured operations per workload run")
	out := flag.String("out", "figures", "output directory for SVG files")
	parallel := flag.Int("parallel", 0, "concurrent cells in the sweep (0 = GOMAXPROCS)")
	progress := flag.Bool("progress", true, "report per-cell completion and ETA on stderr")
	timeline := flag.Bool("timeline", false, "render sampled telemetry timelines of one run instead of the figure sweep")
	wearmap := flag.Bool("wearmap", false, "render a per-bank NVM wear heatmap from one observed run instead of the figure sweep")
	cdf := flag.Bool("cdf", false, "render per-scheme operation-latency CDFs from observed runs instead of the figure sweep")
	wearCols := flag.Int("wear-cols", 64, "address-slot columns of the -wearmap grid (each cell is the max line wear in its slot)")
	workloadName := flag.String("workload", "hash", "workload for -timeline/-wearmap")
	scheme := flag.String("scheme", "star", "scheme for -timeline/-wearmap")
	sampleNs := flag.Float64("sample-ns", 10000, "timeline sampling interval in simulated ns (-timeline)")
	traceOut := flag.String("trace-out", "", "write the run's event trace as Chrome trace-event JSON (-timeline; default <out>/timeline_trace.json)")
	flag.Parse()

	if err := os.MkdirAll(*out, 0o755); err != nil {
		return fail(err)
	}

	if *timeline {
		if *traceOut == "" {
			*traceOut = filepath.Join(*out, "timeline_trace.json")
		}
		if err := runTimeline(*out, *traceOut, *workloadName, *scheme, *ops, *sampleNs); err != nil {
			return fail(err)
		}
		return 0
	}
	if *wearmap {
		if err := runWearmap(*out, *workloadName, *scheme, *ops, *wearCols); err != nil {
			return fail(err)
		}
		return 0
	}
	if *cdf {
		if err := runCDF(*out, *workloadName, *ops); err != nil {
			return fail(err)
		}
		return 0
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ropts := []experiments.Option{
		experiments.WithOps(*ops),
		experiments.WithParallelism(*parallel),
		experiments.WithConfig(func() sim.Config {
			cfg := sim.Default()
			cfg.DataBytes = 64 << 20
			cfg.MetaCache.SizeBytes = 256 << 10
			return cfg
		}),
	}
	if *progress {
		ropts = append(ropts, experiments.WithProgress(func(p experiments.Progress) {
			cell := p.Cell.Workload + "/" + p.Cell.Scheme
			if p.Cell.Label != "" {
				cell += " " + p.Cell.Label
			}
			fmt.Fprintf(os.Stderr, "[%2d/%d] %s %.1fs (elapsed %.1fs, eta %.1fs)\n",
				p.Done, p.Total, cell, p.CellWall.Seconds(), p.Elapsed.Seconds(), p.ETA.Seconds())
		}))
	}
	r := experiments.NewRunner(ropts...)

	write := func(name string, chart *svgplot.BarChart) error {
		svg, err := chart.SVG()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		path := filepath.Join(*out, name)
		if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", path)
		return nil
	}

	// Figs. 11-13 share one scheme-comparison run.
	rows, err := r.SchemeComparison(ctx, []string{"wb", "star", "anubis", "strict"})
	if err != nil {
		return fail(err)
	}
	experiments.SortSchemeRows(rows)
	schemes := []string{"star", "anubis", "strict"}
	chartOf := func(title, ylabel string, metric func(experiments.SchemeRow) float64, ymax float64) *svgplot.BarChart {
		byWorkload := map[string]map[string]float64{}
		var order []string
		for _, r := range rows {
			if byWorkload[r.Workload] == nil {
				byWorkload[r.Workload] = map[string]float64{}
				order = append(order, r.Workload)
			}
			byWorkload[r.Workload][r.Scheme] = metric(r)
		}
		ref := 1.0
		c := &svgplot.BarChart{Title: title, YLabel: ylabel, Series: schemes, YMax: ymax, RefLine: &ref}
		for _, wl := range order {
			g := svgplot.BarGroup{Label: wl}
			for _, s := range schemes {
				g.Values = append(g.Values, byWorkload[wl][s])
			}
			c.Groups = append(c.Groups, g)
		}
		return c
	}
	if err := write("fig11_write_traffic.svg", chartOf(
		"Fig. 11: NVM write traffic (normalized to WB)", "writes vs WB",
		func(r experiments.SchemeRow) float64 { return r.WriteRatio }, 8)); err != nil {
		return fail(err)
	}
	if err := write("fig12_ipc.svg", chartOf(
		"Fig. 12: IPC (normalized to WB)", "IPC vs WB",
		func(r experiments.SchemeRow) float64 { return r.IPCRatio }, 1.1)); err != nil {
		return fail(err)
	}
	if err := write("fig13_energy.svg", chartOf(
		"Fig. 13: NVM energy (normalized to WB)", "energy vs WB",
		func(r experiments.SchemeRow) float64 { return r.EnergyRatio }, 8)); err != nil {
		return fail(err)
	}

	// Fig. 10: bitmap-line writes per op under STAR vs WB writes per op.
	fig10, err := r.Fig10(ctx)
	if err != nil {
		return fail(err)
	}
	c10 := &svgplot.BarChart{
		Title:  "Fig. 10: bitmap-line NVM writes vs WB writes (per op)",
		YLabel: "lines per operation",
		Series: []string{"WB writes", "STAR bitmap writes"},
	}
	for _, row := range fig10 {
		c10.Groups = append(c10.Groups, svgplot.BarGroup{
			Label:  row.Workload,
			Values: []float64{float64(row.WBWrites) / float64(*ops), float64(row.BitmapWrites) / float64(*ops)},
		})
	}
	if err := write("fig10_bitmap_writes.svg", c10); err != nil {
		return fail(err)
	}

	// Fig. 14a: dirty metadata fraction.
	fig14a, err := r.Fig14a(ctx)
	if err != nil {
		return fail(err)
	}
	c14a := &svgplot.BarChart{
		Title:  "Fig. 14a: dirty metadata in cache at crash",
		YLabel: "dirty fraction (%)",
		Series: []string{"dirty %"},
		YMax:   100,
	}
	for _, row := range fig14a {
		c14a.Groups = append(c14a.Groups, svgplot.BarGroup{Label: row.Workload, Values: []float64{100 * row.DirtyFrac}})
	}
	if err := write("fig14a_dirty_fraction.svg", c14a); err != nil {
		return fail(err)
	}

	// Fig. 14b: recovery time vs metadata cache size.
	fig14b, err := r.Fig14b(ctx, nil)
	if err != nil {
		return fail(err)
	}
	c14b := &svgplot.BarChart{
		Title:  "Fig. 14b: recovery time vs metadata cache size",
		YLabel: "recovery time (ms)",
		Series: []string{"STAR", "Anubis"},
	}
	for _, row := range fig14b {
		c14b.Groups = append(c14b.Groups, svgplot.BarGroup{
			Label:  fmt.Sprintf("%dKiB", row.MetaCacheBytes>>10),
			Values: []float64{row.StarSeconds * 1000, row.AnubisSeconds * 1000},
		})
	}
	if err := write("fig14b_recovery_time.svg", c14b); err != nil {
		return fail(err)
	}
	return 0
}

// runTimeline executes one telemetry-enabled run and renders its
// sampled series as line charts over simulated time, plus the
// structured event trace as Perfetto-loadable JSON.
func runTimeline(outDir, tracePath, workloadName, scheme string, ops int, sampleNs float64) error {
	cfg := sim.Default()
	cfg.DataBytes = 64 << 20
	cfg.MetaCache.SizeBytes = 256 << 10
	cfg.Scheme = scheme
	cfg.Telemetry = true
	cfg.SampleEveryNs = sampleNs
	cfg.TraceEvents = true

	res, m, err := sim.RunScenario(cfg, workloadName, ops)
	if err != nil {
		return err
	}
	if len(res.Timelines) == 0 {
		return fmt.Errorf("run produced no samples; lower -sample-ns (simulated time was %.0f ns)", res.TimeNs)
	}

	series := func(names ...string) []svgplot.LineSeries {
		var out []svgplot.LineSeries
		for _, tl := range res.Timelines {
			for _, want := range names {
				if tl.Name != want {
					continue
				}
				s := svgplot.LineSeries{Label: tl.Name, X: make([]float64, len(tl.TimesNs)), Y: tl.Values}
				for i, t := range tl.TimesNs {
					s.X[i] = t / 1e6 // ns -> ms
				}
				out = append(out, s)
			}
		}
		return out
	}
	write := func(name string, chart *svgplot.LineChart) error {
		svg, err := chart.SVG()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		path := filepath.Join(outDir, name)
		if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", path)
		return nil
	}

	title := fmt.Sprintf("%s/%s (%d ops)", workloadName, scheme, ops)
	if err := write("timeline_dirty_frac.svg", &svgplot.LineChart{
		Title: "Dirty metadata fraction over time: " + title, XLabel: "simulated time (ms)",
		YLabel: "dirty fraction", YMax: 1,
		Series: series("meta.dirty_frac"),
	}); err != nil {
		return err
	}
	if err := write("timeline_hit_ratios.svg", &svgplot.LineChart{
		Title: "Cache hit ratios over time: " + title, XLabel: "simulated time (ms)",
		YLabel: "hit ratio", YMax: 1,
		Series: series("meta.hit_ratio", "l1.hit_ratio", "l2.hit_ratio", "l3.hit_ratio"),
	}); err != nil {
		return err
	}
	if err := write("timeline_write_amp.svg", &svgplot.LineChart{
		Title: "Write amplification over time: " + title, XLabel: "simulated time (ms)",
		YLabel: "NVM writes / user write",
		Series: series("engine.write_amp"),
	}); err != nil {
		return err
	}

	if tr := m.Trace(); tr != nil && tr.Len() > 0 {
		f, err := os.Create(tracePath)
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
		fmt.Printf("wrote %s (%d events; load in Perfetto / chrome://tracing)\n", tracePath, tr.Len())
	}
	return nil
}

// runCDF executes one observed run per scheme and renders the
// read- and write-latency distributions as paper-style CDFs (log-x,
// cumulative %), one curve per scheme — where the write-friendliness
// claims of the schemes become visible as tail separation.
func runCDF(outDir, workloadName string, ops int) error {
	schemes := []string{"wb", "star", "anubis", "strict"}
	charts := []struct {
		op   string
		file string
	}{
		{"read", "cdf_read_latency.svg"},
		{"write", "cdf_write_latency.svg"},
	}
	series := make(map[string][]svgplot.CDFSeries)
	bounds := sim.LatencyBuckets()
	for _, s := range schemes {
		cfg := sim.Default()
		cfg.DataBytes = 64 << 20
		cfg.MetaCache.SizeBytes = 256 << 10
		cfg.Scheme = s
		cfg.Observe = true
		res, _, err := sim.RunScenario(cfg, workloadName, ops)
		if err != nil {
			return fmt.Errorf("cdf: %s/%s: %w", workloadName, s, err)
		}
		for _, c := range charts {
			o := res.Latency.Op(c.op)
			if o == nil || o.Count == 0 {
				continue
			}
			series[c.op] = append(series[c.op], svgplot.CDFSeries{
				Label: s, BoundsNs: bounds, Counts: o.BucketsNs,
			})
		}
	}
	for _, c := range charts {
		chart := &svgplot.CDF{
			Title:  fmt.Sprintf("%s latency CDF: %s (%d ops)", c.op, workloadName, ops),
			Series: series[c.op],
		}
		svg, err := chart.SVG()
		if err != nil {
			return fmt.Errorf("%s: %w", c.file, err)
		}
		path := filepath.Join(outDir, c.file)
		if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", path)
	}
	return nil
}

// runWearmap executes one observed run and renders the
// device's per-bank wear distribution as a heatmap: one row per bank,
// each cell the maximum per-line write count in its address slot. Row
// labels carry the bank's max and p99 wear so the figure doubles as a
// wear-leveling summary; the per-cause write breakdown goes to stdout.
func runWearmap(outDir, workloadName, scheme string, ops, cols int) error {
	cfg := sim.Default()
	cfg.DataBytes = 64 << 20
	cfg.MetaCache.SizeBytes = 256 << 10
	cfg.Scheme = scheme
	cfg.Observe = true
	cfg.TrackWear = true

	res, m, err := sim.RunScenario(cfg, workloadName, ops)
	if err != nil {
		return err
	}
	dev := m.Engine().Device()
	grid := dev.WearGrid(cols)
	stats := dev.BankWearStats()
	if len(grid) == 0 || len(stats) != len(grid) {
		return fmt.Errorf("wearmap: no wear data (observatory off?)")
	}
	labels := make([]string, len(grid))
	values := make([][]float64, len(grid))
	for b, row := range grid {
		labels[b] = fmt.Sprintf("bank %d (max %d, p99 %.0f)", b, stats[b].MaxWear, stats[b].P99Wear)
		values[b] = make([]float64, len(row))
		for c, v := range row {
			values[b][c] = float64(v)
		}
	}
	h := &svgplot.Heatmap{
		Title:     fmt.Sprintf("NVM wear by bank: %s/%s (%d ops)", workloadName, scheme, ops),
		XLabel:    "address slots (low -> high)",
		RowLabels: labels,
		Values:    values,
	}
	svg, err := h.SVG()
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, "wearmap.svg")
	if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	if b := res.WriteBreakdown; b != nil {
		fmt.Printf("write causes over %d total line writes:\n", b.Total)
		for _, c := range b.Causes {
			if c.Writes == 0 {
				continue
			}
			fmt.Printf("  %-10s %12d (%.1f%%)\n", c.Cause, c.Writes, 100*float64(c.Writes)/float64(b.Total))
		}
	}
	return nil
}

// fail reports err on stderr and returns the process exit code for it;
// callers `return fail(err)` out of run so deferred cleanup still runs.
func fail(err error) int {
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "starplot: interrupted")
		return 130
	}
	fmt.Fprintln(os.Stderr, "starplot:", err)
	return 1
}
