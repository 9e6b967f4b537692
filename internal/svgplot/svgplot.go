// Package svgplot renders grouped bar charts as standalone SVG — just
// enough of a plotting library (standard library only) to regenerate
// the paper's figures graphically from the experiment harness's rows.
// starbench -svg DIR writes one SVG per figure; starplot draws the
// single-run line, heatmap and CDF charts.
package svgplot

import (
	"fmt"
	"math"
	"strings"
)

// series colors (colorblind-safe Okabe-Ito subset).
var palette = []string{"#0072B2", "#E69F00", "#009E73", "#D55E00", "#CC79A7", "#56B4E9"}

// BarGroup is one cluster of bars (e.g. one workload).
type BarGroup struct {
	Label  string
	Values []float64 // one per series
}

// BarChart is a grouped bar chart.
type BarChart struct {
	Title  string
	YLabel string
	Series []string // legend entries; len(Values) of every group must match
	Groups []BarGroup
	// YMax fixes the axis; 0 auto-scales to the data.
	YMax float64
	// RefLine draws a horizontal reference (e.g. 1.0 for "normalized
	// to WB"); nil for none.
	RefLine *float64
}

// geometry constants (pixels).
const (
	chartW   = 720
	chartH   = 360
	marginL  = 70
	marginR  = 20
	marginT  = 40
	marginB  = 60
	legendDY = 16
)

// SVG renders the chart.
func (c *BarChart) SVG() (string, error) {
	if len(c.Groups) == 0 || len(c.Series) == 0 {
		return "", fmt.Errorf("svgplot: chart needs groups and series")
	}
	for _, g := range c.Groups {
		if len(g.Values) != len(c.Series) {
			return "", fmt.Errorf("svgplot: group %q has %d values for %d series",
				g.Label, len(g.Values), len(c.Series))
		}
	}
	ymax := c.YMax
	if ymax <= 0 {
		for _, g := range c.Groups {
			for _, v := range g.Values {
				if v > ymax {
					ymax = v
				}
			}
		}
		if ymax <= 0 {
			ymax = 1
		}
		ymax *= 1.1
	}

	plotW := float64(chartW - marginL - marginR)
	plotH := float64(chartH - marginT - marginB)
	y := func(v float64) float64 { return float64(marginT) + plotH*(1-v/ymax) }

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="sans-serif">`+"\n", chartW, chartH)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="white"/>`+"\n", chartW, chartH)
	fmt.Fprintf(&b, `<text x="%d" y="22" font-size="15" font-weight="bold">%s</text>`+"\n", marginL, esc(c.Title))
	// Y axis with 5 ticks.
	for i := 0; i <= 5; i++ {
		v := ymax * float64(i) / 5
		yy := y(v)
		fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="#ddd"/>`+"\n",
			marginL, yy, chartW-marginR, yy)
		fmt.Fprintf(&b, `<text x="%d" y="%.1f" font-size="11" text-anchor="end">%s</text>`+"\n",
			marginL-6, yy+4, formatTick(v))
	}
	fmt.Fprintf(&b, `<text x="14" y="%d" font-size="12" transform="rotate(-90 14 %d)" text-anchor="middle">%s</text>`+"\n",
		marginT+int(plotH/2), marginT+int(plotH/2), esc(c.YLabel))

	// Bars.
	groupW := plotW / float64(len(c.Groups))
	barW := groupW * 0.8 / float64(len(c.Series))
	for gi, g := range c.Groups {
		gx := float64(marginL) + groupW*float64(gi) + groupW*0.1
		for si, v := range g.Values {
			clipped := math.Min(v, ymax)
			x := gx + barW*float64(si)
			fmt.Fprintf(&b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s"/>`+"\n",
				x, y(clipped), barW*0.92, y(0)-y(clipped), palette[si%len(palette)])
			if v > ymax {
				// Clipped bar: annotate the real value.
				fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-size="9" text-anchor="middle">%s</text>`+"\n",
					x+barW/2, y(clipped)-3, formatTick(v))
			}
		}
		fmt.Fprintf(&b, `<text x="%.1f" y="%d" font-size="11" text-anchor="middle">%s</text>`+"\n",
			gx+groupW*0.4, chartH-marginB+16, esc(g.Label))
	}
	// Reference line.
	if c.RefLine != nil && *c.RefLine <= ymax {
		fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="black" stroke-dasharray="4 3"/>`+"\n",
			marginL, y(*c.RefLine), chartW-marginR, y(*c.RefLine))
	}
	// Legend.
	lx := marginL + 8
	for si, s := range c.Series {
		ly := marginT + 8 + si*legendDY
		fmt.Fprintf(&b, `<rect x="%d" y="%d" width="10" height="10" fill="%s"/>`+"\n",
			lx, ly-9, palette[si%len(palette)])
		fmt.Fprintf(&b, `<text x="%d" y="%d" font-size="11">%s</text>`+"\n", lx+14, ly, esc(s))
	}
	b.WriteString("</svg>\n")
	return b.String(), nil
}

func formatTick(v float64) string {
	switch {
	case v >= 1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

func esc(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	return r.Replace(s)
}
