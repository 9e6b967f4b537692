package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"nvmstar/internal/sim"
	"nvmstar/internal/svgplot"
)

const (
	// sampleNs is the -svg timelines' sampling interval in simulated
	// ns.
	sampleNs = 10000
	// wearCols is the number of address-slot columns of wearmap.svg;
	// each cell is the maximum line wear in its slot.
	wearCols = 64
)

// writeFigures renders the -svg figures of one run into dir: the
// sampled series as line charts over simulated time (dirty metadata
// fraction, cache hit ratios, write amplification) and the per-line
// writes wear counted, split over sim.Banks banks, as a heatmap. With
// the observatory on it also prints the run's write-cause breakdown.
func writeFigures(w io.Writer, dir string, res *sim.Results, tls []sim.Timeline, wear *sim.Wear) error {
	if len(tls) == 0 || len(tls[0].TimesNs) == 0 {
		return fmt.Errorf("run produced no timeline samples (simulated time was %.0f ns)", res.TimeNs)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	title := fmt.Sprintf("%s/%s (%d ops)", res.Workload, res.Scheme, res.Ops)
	charts, err := timelineCharts(tls, title)
	if err != nil {
		return err
	}
	type figure struct {
		file  string
		chart interface{ SVG() (string, error) }
	}
	var figs []figure
	for _, c := range charts {
		figs = append(figs, figure{c.file, c.chart})
	}
	figs = append(figs, figure{"wearmap.svg", wearmap(wear, title)})
	for _, f := range figs {
		svg, err := f.chart.SVG()
		if err != nil {
			return fmt.Errorf("%s: %w", f.file, err)
		}
		path := filepath.Join(dir, f.file)
		if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
			return err
		}
		fmt.Fprintln(w, "wrote", path)
	}
	if b := res.WriteBreakdown; b != nil {
		fmt.Fprintf(w, "write causes over %d total line writes:\n", b.Total)
		for _, c := range b.Causes {
			if c.Writes == 0 {
				continue
			}
			fmt.Fprintf(w, "  %-10s %12d (%.1f%%)\n", c.Cause, c.Writes, 100*float64(c.Writes)/float64(b.Total))
		}
	}
	return nil
}

// timelineChart is one timeline figure and the file it is written to.
type timelineChart struct {
	file  string
	chart *svgplot.LineChart
}

// timelineCharts builds the timeline figures from a run's sampled
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

// wearmap draws the device's per-bank wear distribution as a heatmap:
// one row per bank, each cell the maximum per-line write count in its
// address slot. Row labels carry the bank's max and p99 wear so the
// figure doubles as a wear-leveling summary.
func wearmap(wear *sim.Wear, title string) *svgplot.Heatmap {
	grid := wear.WearGrid(sim.Banks, wearCols)
	stats := wear.BankWearStats(sim.Banks)
	labels := make([]string, len(grid))
	values := make([][]float64, len(grid))
	for b, row := range grid {
		labels[b] = fmt.Sprintf("bank %d (max %d, p99 %.0f)", b, stats[b].MaxWear, stats[b].P99Wear)
		values[b] = make([]float64, len(row))
		for c, v := range row {
			values[b][c] = float64(v)
		}
	}
	return &svgplot.Heatmap{
		Title:     "NVM wear by bank: " + title,
		XLabel:    "address slots (low -> high)",
		RowLabels: labels,
		Values:    values,
	}
}
