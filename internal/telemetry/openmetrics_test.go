package telemetry

import (
	"io"
	"math"
	"net/http"
	"strings"
	"testing"
)

func TestHistogramQuantileEdgeCases(t *testing.T) {
	t.Run("nil", func(t *testing.T) {
		var h *Histogram
		if got := h.Quantile(0.5); got != 0 {
			t.Fatalf("nil quantile = %v, want 0", got)
		}
	})
	t.Run("empty", func(t *testing.T) {
		h := NewHistogram([]float64{1, 2, 4})
		if got := h.Quantile(0.99); got != 0 {
			t.Fatalf("empty quantile = %v, want 0", got)
		}
	})
	t.Run("q0_and_q1", func(t *testing.T) {
		h := NewHistogram([]float64{1, 2, 4})
		for i := 0; i < 10; i++ {
			h.Observe(1.5) // all in bucket (1, 2]
		}
		q0, q1 := h.Quantile(0), h.Quantile(1)
		if q0 < 1 || q0 > 2 {
			t.Errorf("q=0 -> %v, want within bucket (1, 2]", q0)
		}
		if q1 != 2 {
			t.Errorf("q=1 -> %v, want upper bound 2", q1)
		}
	})
	t.Run("clamped", func(t *testing.T) {
		h := NewHistogram([]float64{1, 2})
		h.Observe(0.5)
		if h.Quantile(-1) != h.Quantile(0) || h.Quantile(2) != h.Quantile(1) {
			t.Error("q outside [0,1] must clamp")
		}
	})
	t.Run("all_mass_in_overflow", func(t *testing.T) {
		// Overflow mass interpolates between the last finite bound and
		// the recorded maximum — saturated histograms report finite,
		// honest tails instead of clamping at the bound.
		h := NewHistogram([]float64{1, 2, 4})
		h.Observe(100)
		h.Observe(200)
		got := h.Quantile(0.99)
		if got <= 4 || got > 200 {
			t.Fatalf("overflow-only quantile = %v, want within (4, 200]", got)
		}
		if math.IsInf(got, 1) {
			t.Fatal("quantile must never be +Inf")
		}
		if q1 := h.Quantile(1); q1 != 200 {
			t.Fatalf("q=1 = %v, want the recorded max 200", q1)
		}
		// Without a recorded max (phase-delta snapshots pass max = 0)
		// the estimate clamps at the last finite bound.
		_, counts := h.Buckets()
		if got := QuantileFromBuckets([]float64{1, 2, 4}, counts, 0, 0.99); got != 4 {
			t.Fatalf("maxless overflow quantile = %v, want last finite bound 4", got)
		}
	})
	t.Run("no_finite_bounds", func(t *testing.T) {
		h := NewHistogram(nil)
		h.Observe(7)
		if got := h.Quantile(0.5); got != 3.5 {
			t.Fatalf("boundless quantile = %v, want 3.5 (interpolated toward the max)", got)
		}
	})
	t.Run("interpolates", func(t *testing.T) {
		h := NewHistogram([]float64{0, 10})
		for i := 0; i < 100; i++ {
			h.Observe(5) // all 100 in (0, 10]
		}
		got := h.Quantile(0.5)
		if got < 4.9 || got > 5.1 {
			t.Fatalf("median = %v, want ~5 by linear interpolation", got)
		}
	})
}

// testFamilies is one family of each kind a MetricsSource emits: a
// counter, a labeled gauge and a histogram with cumulative buckets.
func testFamilies() []MetricFamily {
	return []MetricFamily{
		{Name: "evt_count", Type: "counter", Samples: []Sample{{Suffix: "_total", Value: 3}}},
		{Name: "attr_writes", Type: "gauge", Samples: []Sample{
			{Labels: []Label{{"cause", "data"}, {"bank", "0"}}, Value: 7},
			{Labels: []Label{{"cause", "mac"}, {"bank", "1"}}, Value: 2},
		}},
		{Name: "lat_ns", Type: "histogram", Samples: []Sample{
			{Suffix: "_bucket", Labels: []Label{{"le", "1"}}, Value: 0},
			{Suffix: "_bucket", Labels: []Label{{"le", "2"}}, Value: 1},
			{Suffix: "_bucket", Labels: []Label{{"le", "+Inf"}}, Value: 1},
			{Suffix: "_count", Value: 1},
			{Suffix: "_sum", Value: 1.5},
		}},
	}
}

// staticSource serves fixed families to the debug server.
type staticSource []MetricFamily

func (s staticSource) MetricFamilies() []MetricFamily { return s }

func TestWriteOpenMetricsPassesLint(t *testing.T) {
	var b strings.Builder
	if err := WriteOpenMetrics(&b, testFamilies()); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	if !strings.HasSuffix(text, "# EOF\n") {
		t.Fatalf("missing # EOF terminator:\n%s", text)
	}
	for _, want := range []string{
		`attr_writes{cause="data",bank="0"} 7`,
		"evt_count_total 3",
		`lat_ns_bucket{le="+Inf"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("sample %q missing:\n%s", want, text)
		}
	}
	if err := LintOpenMetrics([]byte(text)); err != nil {
		t.Fatalf("own exposition fails own lint: %v\n%s", err, text)
	}
}

func TestLintOpenMetricsCatchesViolations(t *testing.T) {
	cases := []struct {
		name string
		text string
	}{
		{"no_eof", "# TYPE a gauge\na 1\n"},
		{"sample_without_type", "a 1\n# EOF\n"},
		{"counter_without_total", "# TYPE a counter\na 1\n# EOF\n"},
		{"negative_counter", "# TYPE a counter\na_total -1\n# EOF\n"},
		{"gauge_with_suffix", "# TYPE a gauge\na_total 1\n# EOF\n"},
		{"duplicate_series", "# TYPE a gauge\na 1\na 2\n# EOF\n"},
		{"empty_line", "# TYPE a gauge\na 1\n\n# EOF\n"},
		{"bad_label_name", "# TYPE a gauge\na{__x=\"1\"} 1\n# EOF\n"},
		{"interleaved", "# TYPE a gauge\na 1\n# TYPE b gauge\nb 1\na{x=\"2\"} 2\n# EOF\n"},
		{"bucket_not_cumulative", "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_count 3\nh_sum 1\n# EOF\n"},
		{"le_not_ascending", "# TYPE h histogram\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 2\n# EOF\n"},
		{"inf_bucket_vs_count", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_count 4\nh_sum 1\n# EOF\n"},
		{"bad_value", "# TYPE a gauge\na x\n# EOF\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := LintOpenMetrics([]byte(tc.text)); err == nil {
				t.Fatalf("lint accepted invalid exposition:\n%s", tc.text)
			}
		})
	}
	valid := "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 3\nh_count 3\nh_sum 2.5\n# EOF\n"
	if err := LintOpenMetrics([]byte(valid)); err != nil {
		t.Fatalf("lint rejected valid exposition: %v", err)
	}
}

// TestDebugServerMetricsEndpoint scrapes /metrics end to end: attach
// sources with every family kind (including labeled samples), GET the
// endpoint, and run the scrape through the strict lint — the same
// check the verify-observe CI gate performs.
func TestDebugServerMetricsEndpoint(t *testing.T) {
	d := NewDebugServer("127.0.0.1:0", nil)
	d.AddMetricsSource(staticSource(testFamilies()))
	d.AddMetricsSource(staticSource{{Name: "live_val", Type: "gauge", Samples: []Sample{{Value: 2}}}})
	d.AddMetricsSource(nil) // must be ignored
	addr, err := d.Start()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != OpenMetricsContentType {
		t.Errorf("Content-Type = %q, want %q", got, OpenMetricsContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := LintOpenMetrics(body); err != nil {
		t.Fatalf("scrape fails lint: %v\n%s", err, body)
	}
	text := string(body)
	for _, want := range []string{
		"evt_count_total 3",
		`attr_writes{cause="mac",bank="1"} 2`,
		"lat_ns_count 1",
		"live_val 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q:\n%s", want, text)
		}
	}
}
