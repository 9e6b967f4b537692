package main

import (
	"fmt"
	"os"
	"path/filepath"

	"nvmstar/internal/experiments"
	"nvmstar/internal/sim"
	"nvmstar/internal/svgplot"
)

// figureRows holds the rows a run computed that have an SVG figure;
// a nil field means its experiment did not run (or, for latency, that
// the observatory was off) and its figures are skipped.
type figureRows struct {
	fig10   []experiments.Fig10Row
	scheme  []experiments.SchemeRow
	fig14a  []experiments.Fig14aRow
	fig14b  []experiments.Fig14bRow
	latency []experiments.ObservatoryRow
}

// figure is one SVG file and the chart drawn into it.
type figure struct {
	name  string
	chart interface{ SVG() (string, error) }
}

// write renders every figure with rows into dir and returns the paths
// written. ops scales Fig. 10's write counts to per-operation values.
func (f *figureRows) write(dir string, ops int) ([]string, error) {
	var charts []figure
	add := func(name string, c *svgplot.BarChart) { charts = append(charts, figure{name, c}) }

	if f.scheme != nil {
		add("fig11_write_traffic.svg", schemeChart(f.scheme,
			"Fig. 11: NVM write traffic (normalized to WB)", "writes vs WB",
			func(r experiments.SchemeRow) float64 { return r.WriteRatio }, 8))
		add("fig12_ipc.svg", schemeChart(f.scheme,
			"Fig. 12: IPC (normalized to WB)", "IPC vs WB",
			func(r experiments.SchemeRow) float64 { return r.IPCRatio }, 1.1))
		add("fig13_energy.svg", schemeChart(f.scheme,
			"Fig. 13: NVM energy (normalized to WB)", "energy vs WB",
			func(r experiments.SchemeRow) float64 { return r.EnergyRatio }, 8))
	}
	if f.fig10 != nil {
		// Bitmap-line writes per op under STAR vs WB writes per op.
		c := &svgplot.BarChart{
			Title:  "Fig. 10: bitmap-line NVM writes vs WB writes (per op)",
			YLabel: "lines per operation",
			Series: []string{"WB writes", "STAR bitmap writes"},
		}
		for _, row := range f.fig10 {
			c.Groups = append(c.Groups, svgplot.BarGroup{
				Label:  row.Workload,
				Values: []float64{float64(row.WBWrites) / float64(ops), float64(row.BitmapWrites) / float64(ops)},
			})
		}
		add("fig10_bitmap_writes.svg", c)
	}
	if f.fig14a != nil {
		c := &svgplot.BarChart{
			Title:  "Fig. 14a: dirty metadata in cache at crash",
			YLabel: "dirty fraction (%)",
			Series: []string{"dirty %"},
			YMax:   100,
		}
		for _, row := range f.fig14a {
			c.Groups = append(c.Groups, svgplot.BarGroup{Label: row.Workload, Values: []float64{100 * row.DirtyFrac}})
		}
		add("fig14a_dirty_fraction.svg", c)
	}
	if f.fig14b != nil {
		c := &svgplot.BarChart{
			Title:  "Fig. 14b: recovery time vs metadata cache size",
			YLabel: "recovery time (ms)",
			Series: []string{"STAR", "Anubis"},
		}
		for _, row := range f.fig14b {
			c.Groups = append(c.Groups, svgplot.BarGroup{
				Label:  fmt.Sprintf("%dKiB", row.MetaCacheBytes>>10),
				Values: []float64{row.StarSeconds * 1000, row.AnubisSeconds * 1000},
			})
		}
		add("fig14b_recovery_time.svg", c)
	}
	charts = append(charts, latencyCDFs(f.latency, ops)...)
	if len(charts) == 0 {
		return nil, nil
	}

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var paths []string
	for _, c := range charts {
		svg, err := c.chart.SVG()
		if err != nil {
			return paths, fmt.Errorf("%s: %w", c.name, err)
		}
		path := filepath.Join(dir, c.name)
		if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
			return paths, err
		}
		paths = append(paths, path)
	}
	return paths, nil
}

// latencyCDFs draws the read- and write-latency distributions of each
// workload the observatory saw as paper-style CDFs (log-x, cumulative
// %), one curve per scheme from its row's merged latency buckets —
// where the write-friendliness claims of the schemes become visible as
// tail separation. An op no scheme of a workload issued gets no chart.
func latencyCDFs(rows []experiments.ObservatoryRow, ops int) []figure {
	bounds := sim.LatencyBuckets()
	var charts []figure
	for _, op := range []string{"read", "write"} {
		byWorkload := map[string]*svgplot.CDF{}
		for _, row := range rows {
			o := row.Latency.Op(op)
			if o == nil || o.Count == 0 {
				continue
			}
			c := byWorkload[row.Workload]
			if c == nil {
				c = &svgplot.CDF{Title: fmt.Sprintf("%s latency CDF: %s (%d ops)", op, row.Workload, ops)}
				byWorkload[row.Workload] = c
				charts = append(charts, figure{fmt.Sprintf("cdf_%s_latency_%s.svg", op, row.Workload), c})
			}
			c.Series = append(c.Series, svgplot.CDFSeries{Label: row.Scheme, BoundsNs: bounds, Counts: o.BucketsNs})
		}
	}
	return charts
}

// schemeChart draws one of Figs. 11-13: per workload, the metric of
// STAR, Anubis and strict persistence against a reference line at WB.
func schemeChart(rows []experiments.SchemeRow, title, ylabel string, metric func(experiments.SchemeRow) float64, ymax float64) *svgplot.BarChart {
	rows = append([]experiments.SchemeRow(nil), rows...)
	experiments.SortSchemeRows(rows)
	schemes := []string{"star", "anubis", "strict"}
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
