package svgplot

import (
	"fmt"
	"math"
	"strings"
)

// CDFSeries is one empirical distribution of a CDF chart: histogram
// bucket upper bounds with per-bucket counts (one trailing overflow
// count, as sim.OpLatency.BucketsNs carries them).
type CDFSeries struct {
	Label    string
	BoundsNs []float64 // ascending finite bucket upper bounds
	Counts   []uint64  // len(BoundsNs)+1; last is overflow
}

// CDF is a paper-style latency CDF chart: cumulative fraction of
// observations (y, 0-100%) against latency on a log-scaled x axis —
// the renderer behind starplot's -cdf mode, comparing per-scheme
// operation-latency distributions from the latency observatory.
type CDF struct {
	Title  string
	XLabel string // defaults to "latency (ns)"
	Series []CDFSeries
}

// SVG renders the chart. Series without observations are skipped; a
// chart with no observed series errors rather than rendering empty
// axes.
func (c *CDF) SVG() (string, error) {
	if len(c.Series) == 0 {
		return "", fmt.Errorf("svgplot: CDF needs at least one series")
	}
	xlabel := c.XLabel
	if xlabel == "" {
		xlabel = "latency (ns)"
	}

	// The x domain is log10(ns) over the buckets that hold mass in any
	// series, padded one bucket down so the first step rises off the
	// left edge.
	var lo, hi = math.Inf(1), math.Inf(-1)
	drawn := 0
	for _, s := range c.Series {
		if len(s.Counts) != len(s.BoundsNs)+1 {
			return "", fmt.Errorf("svgplot: CDF series %q has %d counts for %d bounds",
				s.Label, len(s.Counts), len(s.BoundsNs))
		}
		for i, n := range s.Counts {
			if n == 0 {
				continue
			}
			drawn++
			// Overflow mass draws at the last finite bound: the chart
			// can't place unbounded observations, and the bucket vector
			// keeps them visible as a final step below 100%... reaching
			// 100% exactly at that bound.
			bi := i
			if bi >= len(s.BoundsNs) {
				bi = len(s.BoundsNs) - 1
			}
			if bi < 0 {
				continue
			}
			b := s.BoundsNs[bi]
			if b < lo {
				lo = b
			}
			if b > hi {
				hi = b
			}
		}
	}
	if drawn == 0 {
		return "", fmt.Errorf("svgplot: CDF has no observations")
	}
	if lo <= 0 {
		lo = 1
	}
	llo, lhi := math.Log10(lo)-0.5, math.Log10(hi)
	if lhi <= llo {
		lhi = llo + 1
	}

	plotW := float64(chartW - marginL - marginR)
	plotH := float64(chartH - marginT - marginB)
	x := func(ns float64) float64 {
		if ns < lo {
			ns = lo
		}
		return float64(marginL) + plotW*(math.Log10(ns)-llo)/(lhi-llo)
	}
	y := func(frac float64) float64 { return float64(marginT) + plotH*(1-frac) }

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="sans-serif">`+"\n", chartW, chartH)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="white"/>`+"\n", chartW, chartH)
	fmt.Fprintf(&b, `<text x="%d" y="22" font-size="15" font-weight="bold">%s</text>`+"\n", marginL, esc(c.Title))
	// Y axis: cumulative percent, 5 ticks.
	for i := 0; i <= 5; i++ {
		frac := float64(i) / 5
		yy := y(frac)
		fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="#ddd"/>`+"\n",
			marginL, yy, chartW-marginR, yy)
		fmt.Fprintf(&b, `<text x="%d" y="%.1f" font-size="11" text-anchor="end">%.0f%%</text>`+"\n",
			marginL-6, yy+4, 100*frac)
	}
	// X axis: one tick per decade.
	for d := math.Ceil(llo); d <= lhi; d++ {
		xx := x(math.Pow(10, d))
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%d" x2="%.1f" y2="%d" stroke="#ddd"/>`+"\n",
			xx, marginT, xx, chartH-marginB)
		fmt.Fprintf(&b, `<text x="%.1f" y="%d" font-size="11" text-anchor="middle">%s</text>`+"\n",
			xx, chartH-marginB+16, formatTick(math.Pow(10, d)))
	}
	fmt.Fprintf(&b, `<text x="14" y="%d" font-size="12" transform="rotate(-90 14 %d)" text-anchor="middle">cumulative fraction</text>`+"\n",
		marginT+int(plotH/2), marginT+int(plotH/2))
	fmt.Fprintf(&b, `<text x="%d" y="%d" font-size="12" text-anchor="middle">%s (log)</text>`+"\n",
		marginL+int(plotW/2), chartH-14, esc(xlabel))

	// Step curves: one vertex per occupied bucket at its upper bound.
	si := 0
	for _, s := range c.Series {
		var total uint64
		for _, n := range s.Counts {
			total += n
		}
		if total == 0 {
			continue
		}
		var pts strings.Builder
		var cum uint64
		prev := y(0)
		started := false
		for i, n := range s.Counts {
			if n == 0 {
				continue
			}
			bi := i
			if bi >= len(s.BoundsNs) {
				bi = len(s.BoundsNs) - 1
			}
			if bi < 0 {
				continue
			}
			cum += n
			xx := x(s.BoundsNs[bi])
			if !started {
				fmt.Fprintf(&pts, "%.1f,%.1f ", xx, y(0))
				started = true
			} else {
				fmt.Fprintf(&pts, "%.1f,%.1f ", xx, prev)
			}
			prev = y(float64(cum) / float64(total))
			fmt.Fprintf(&pts, "%.1f,%.1f ", xx, prev)
		}
		fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="1.5"/>`+"\n",
			strings.TrimSpace(pts.String()), palette[si%len(palette)])
		si++
	}
	// Legend, bottom-right where CDFs start flat.
	si = 0
	for _, s := range c.Series {
		var total uint64
		for _, n := range s.Counts {
			total += n
		}
		if total == 0 {
			continue
		}
		lx := chartW - marginR - 140
		ly := marginT + int(plotH) - 12 - (len(c.Series)-1-si)*legendDY
		fmt.Fprintf(&b, `<rect x="%d" y="%d" width="10" height="10" fill="%s"/>`+"\n",
			lx, ly-9, palette[si%len(palette)])
		fmt.Fprintf(&b, `<text x="%d" y="%d" font-size="11">%s</text>`+"\n", lx+14, ly, esc(s.Label))
		si++
	}
	b.WriteString("</svg>\n")
	return b.String(), nil
}
