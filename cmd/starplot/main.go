// Command starplot renders single-run figures as SVG files. The paper's
// evaluation figures (Figs. 10-13, 14a/14b) come from the sweep
// itself: starbench -svg DIR writes them from the rows its tables
// print.
//
// The -timeline mode runs one telemetry-enabled simulation with a
// sim.Sampler and a sim.Tracer attached and renders the sampled series
// over simulated time (dirty metadata fraction, cache hit ratios,
// write amplification) plus a Perfetto trace of the run's structured
// events, with the dirty-metadata fraction as a counter track:
//
//	starplot -timeline -workload hash -scheme star -out ./figures
//
// The -cdf mode runs one observed simulation per scheme and
// renders paper-style operation-latency CDFs (log-x, one curve per
// scheme); -wearmap renders a per-bank NVM wear heatmap from one
// observed run.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"nvmstar/internal/sim"
	"nvmstar/internal/svgplot"
)

// main delegates to run so every error path returns an exit code
// instead of calling os.Exit mid-function.
func main() { os.Exit(run()) }

func run() int {
	ops := flag.Int("ops", 8000, "measured operations per workload run")
	out := flag.String("out", "figures", "output directory for SVG files")
	timeline := flag.Bool("timeline", false, "render sampled telemetry timelines of one run")
	wearmap := flag.Bool("wearmap", false, "render a per-bank NVM wear heatmap from one observed run")
	cdf := flag.Bool("cdf", false, "render per-scheme operation-latency CDFs from observed runs")
	wearCols := flag.Int("wear-cols", 64, "address-slot columns of the -wearmap grid (each cell is the max line wear in its slot)")
	workloadName := flag.String("workload", "hash", "workload for -timeline/-wearmap/-cdf")
	scheme := flag.String("scheme", "star", "scheme for -timeline/-wearmap")
	sampleNs := flag.Float64("sample-ns", 10000, "timeline sampling interval in simulated ns (-timeline)")
	traceOut := flag.String("trace-out", "", "write the run's event trace as Chrome trace-event JSON (-timeline; default <out>/timeline_trace.json)")
	flag.Parse()

	if !*timeline && !*wearmap && !*cdf {
		fmt.Fprintln(os.Stderr, "starplot: choose -timeline, -wearmap or -cdf (the evaluation figures come from starbench -svg DIR)")
		return 2
	}
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
	}
	if *wearmap {
		if err := runWearmap(*out, *workloadName, *scheme, *ops, *wearCols); err != nil {
			return fail(err)
		}
	}
	if *cdf {
		if err := runCDF(*out, *workloadName, *ops); err != nil {
			return fail(err)
		}
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

	m, err := sim.NewMachine(cfg)
	if err != nil {
		return err
	}
	sampler, err := sim.NewSampler(m.Telemetry(), sampleNs)
	if err != nil {
		return err
	}
	tracer := sim.NewTracer()
	m.Attach(sampler)
	m.Attach(tracer)
	res, err := m.Run(workloadName, ops)
	if err != nil {
		return err
	}
	tls := sampler.Timelines()
	if len(tls) == 0 || len(tls[0].TimesNs) == 0 {
		return fmt.Errorf("run produced no samples; lower -sample-ns (simulated time was %.0f ns)", res.TimeNs)
	}

	charts, err := timelineCharts(tls, fmt.Sprintf("%s/%s (%d ops)", workloadName, scheme, ops))
	if err != nil {
		return err
	}
	for _, c := range charts {
		svg, err := c.chart.SVG()
		if err != nil {
			return fmt.Errorf("%s: %w", c.file, err)
		}
		path := filepath.Join(outDir, c.file)
		if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", path)
	}

	tr := tracer.Trace()
	for _, tl := range tls {
		if tl.Name == "meta.dirty_frac" {
			for i, t := range tl.TimesNs {
				tr.CounterAt(tl.Name, t, tl.Values[i])
			}
		}
	}
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
	return nil
}

// timelineChart is one -timeline figure and the file it is written to.
type timelineChart struct {
	file  string
	chart *svgplot.LineChart
}

// timelineCharts builds the -timeline figures from a run's sampled
// series: the dirty-metadata fraction, the cache hit ratios and the
// write amplification over simulated time. Every series a chart names
// must be present — a missing one is an error, not a silently missing
// curve.
func timelineCharts(tls []sim.Timeline, title string) ([]timelineChart, error) {
	var missing []string
	series := func(names ...string) []svgplot.LineSeries {
		var out []svgplot.LineSeries
		// Curves follow the timelines' sorted order, not the order of
		// names, so a chart's legend is stable.
		for _, tl := range tls {
			if !slices.Contains(names, tl.Name) {
				continue
			}
			s := svgplot.LineSeries{Label: tl.Name, X: make([]float64, len(tl.TimesNs)), Y: tl.Values}
			for i, t := range tl.TimesNs {
				s.X[i] = t / 1e6 // ns -> ms
			}
			out = append(out, s)
		}
		for _, want := range names {
			if !slices.ContainsFunc(out, func(s svgplot.LineSeries) bool { return s.Label == want }) {
				missing = append(missing, want)
			}
		}
		return out
	}
	charts := []timelineChart{
		{"timeline_dirty_frac.svg", &svgplot.LineChart{
			Title: "Dirty metadata fraction over time: " + title, XLabel: "simulated time (ms)",
			YLabel: "dirty fraction", YMax: 1,
			Series: series("meta.dirty_frac"),
		}},
		{"timeline_hit_ratios.svg", &svgplot.LineChart{
			Title: "Cache hit ratios over time: " + title, XLabel: "simulated time (ms)",
			YLabel: "hit ratio", YMax: 1,
			Series: series("meta.hit_ratio", "l1.hit_ratio", "l2.hit_ratio", "l3.hit_ratio"),
		}},
		{"timeline_write_amp.svg", &svgplot.LineChart{
			Title: "Write amplification over time: " + title, XLabel: "simulated time (ms)",
			YLabel: "NVM writes / user write",
			Series: series("engine.write_amp"),
		}},
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("timeline: series %q not sampled", missing)
	}
	return charts, nil
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
	dev, banks := m.Engine().Device(), m.Config().Banks
	grid := dev.WearGrid(banks, cols)
	if grid == nil {
		return fmt.Errorf("wearmap: -wear-cols %d is below 1", cols)
	}
	stats := dev.BankWearStats(banks)
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

// fail reports err on stderr and returns the process exit code for it.
func fail(err error) int {
	fmt.Fprintln(os.Stderr, "starplot:", err)
	return 1
}
