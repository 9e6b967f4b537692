package main

import (
	"strings"
	"testing"

	"nvmstar/internal/sim"
)

// sampled builds one hand-made timeline per name, three samples each.
func sampled(names ...string) []sim.Timeline {
	var tls []sim.Timeline
	for i, name := range names {
		v := float64(i+1) / 10
		tls = append(tls, sim.Timeline{
			Name:    name,
			TimesNs: []float64{1e6, 2e6, 3e6},
			Values:  []float64{v, v, v},
		})
	}
	return tls
}

var timelineSeries = []string{
	"engine.write_amp", "l1.hit_ratio", "l2.hit_ratio", "l3.hit_ratio",
	"meta.dirty_frac", "meta.hit_ratio",
}

func TestTimelineChartsRender(t *testing.T) {
	charts, err := timelineCharts(sampled(timelineSeries...), "hash/star (10 ops)")
	if err != nil {
		t.Fatal(err)
	}
	wantCurves := map[string]int{
		"timeline_dirty_frac.svg": 1,
		"timeline_hit_ratios.svg": 4,
		"timeline_write_amp.svg":  1,
	}
	if len(charts) != len(wantCurves) {
		t.Fatalf("got %d charts, want %d", len(charts), len(wantCurves))
	}
	for _, c := range charts {
		if got := len(c.chart.Series); got != wantCurves[c.file] {
			t.Errorf("%s: %d curves, want %d", c.file, got, wantCurves[c.file])
		}
		svg, err := c.chart.SVG()
		if err != nil {
			t.Fatalf("%s: %v", c.file, err)
		}
		if !strings.HasPrefix(svg, "<svg") {
			t.Errorf("%s: output is not an SVG document", c.file)
		}
	}
}

func TestTimelineChartsMissingSeries(t *testing.T) {
	for _, missing := range timelineSeries {
		var names []string
		for _, n := range timelineSeries {
			if n != missing {
				names = append(names, n)
			}
		}
		_, err := timelineCharts(sampled(names...), "hash/star (10 ops)")
		if err == nil || !strings.Contains(err.Error(), `"`+missing+`"`) {
			t.Errorf("without %s: err = %v, want one naming the series", missing, err)
		}
	}
}
