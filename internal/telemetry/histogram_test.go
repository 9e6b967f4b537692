package telemetry

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func histCounts(h *Histogram) []uint64 {
	_, counts := h.Buckets()
	return counts
}

// TestHistogramMergeCommutative pins that Merge is order-independent:
// a⊕b and b⊕a produce identical bucket vectors, counts, sums and
// maxima, so per-seed histograms can be merged in any deterministic
// order without changing the result.
func TestHistogramMergeCommutative(t *testing.T) {
	bounds := ExpBuckets(1, 2, 8)
	mk := func(obs ...float64) *Histogram {
		h := NewHistogram(bounds)
		for _, v := range obs {
			h.Observe(v)
		}
		return h
	}
	a := mk(0.5, 3, 17, 1000) // 1000 lands in overflow (top bound 128)
	b := mk(2, 2, 64, 90)

	ab := a.Clone()
	if err := ab.Merge(b); err != nil {
		t.Fatal(err)
	}
	ba := b.Clone()
	if err := ba.Merge(a); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(histCounts(ab), histCounts(ba)) {
		t.Fatalf("merge not commutative: %v vs %v", histCounts(ab), histCounts(ba))
	}
	if ab.Count() != ba.Count() || ab.Sum() != ba.Sum() || ab.Max() != ba.Max() {
		t.Fatalf("merge summary not commutative: (%d,%g,%g) vs (%d,%g,%g)",
			ab.Count(), ab.Sum(), ab.Max(), ba.Count(), ba.Sum(), ba.Max())
	}
	if got, want := ab.Count(), uint64(8); got != want {
		t.Fatalf("merged count = %d, want %d", got, want)
	}
	if got, want := ab.Max(), 1000.0; got != want {
		t.Fatalf("merged max = %g, want %g", got, want)
	}
	if got := ab.Overflow(); got != 1 {
		t.Fatalf("merged overflow = %d, want 1", got)
	}
}

// TestHistogramMergeAssociative pins (a⊕b)⊕c == a⊕(b⊕c): the merge
// tree's shape cannot matter.
func TestHistogramMergeAssociative(t *testing.T) {
	bounds := ExpBuckets(1, 2, 6)
	mk := func(obs ...float64) *Histogram {
		h := NewHistogram(bounds)
		for _, v := range obs {
			h.Observe(v)
		}
		return h
	}
	a := mk(1, 5)
	b := mk(9, 200)
	c := mk(0.1, 2, 31)

	left := a.Clone()
	if err := left.Merge(b); err != nil {
		t.Fatal(err)
	}
	if err := left.Merge(c); err != nil {
		t.Fatal(err)
	}
	bc := b.Clone()
	if err := bc.Merge(c); err != nil {
		t.Fatal(err)
	}
	right := a.Clone()
	if err := right.Merge(bc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(histCounts(left), histCounts(right)) {
		t.Fatalf("merge not associative: %v vs %v", histCounts(left), histCounts(right))
	}
	if left.Count() != right.Count() || left.Sum() != right.Sum() || left.Max() != right.Max() {
		t.Fatalf("merge summary not associative")
	}
}

// TestHistogramMergeBoundsMismatch pins that merging histograms with
// different bucket layouts is an error, not silent corruption.
func TestHistogramMergeBoundsMismatch(t *testing.T) {
	a := NewHistogram(ExpBuckets(1, 2, 8))
	b := NewHistogram(ExpBuckets(1, 2, 6))
	if err := a.Merge(b); err == nil {
		t.Fatal("merging histograms with mismatched bounds should error")
	}
	c := NewHistogram([]float64{1, 3, 8})
	d := NewHistogram([]float64{1, 4, 8})
	if err := c.Merge(d); err == nil {
		t.Fatal("merging histograms with differing bound values should error")
	}
}

// TestHistogramCloneIndependent pins that Clone is a deep snapshot:
// observations into the original do not bleed into the clone.
func TestHistogramCloneIndependent(t *testing.T) {
	h := NewHistogram(ExpBuckets(1, 2, 4))
	h.Observe(3)
	c := h.Clone()
	h.Observe(100) // overflow in original only
	if c.Count() != 1 || c.Max() != 3 || c.Overflow() != 0 {
		t.Fatalf("clone mutated by later observe: count=%d max=%g overflow=%d",
			c.Count(), c.Max(), c.Overflow())
	}
	if h.Count() != 2 || h.Max() != 100 {
		t.Fatalf("original lost observations: count=%d max=%g", h.Count(), h.Max())
	}
}

// TestHistogramReset pins that Reset zeroes counts, sum and the
// tracked max so a machine Reset starts the observatory cold.
func TestHistogramReset(t *testing.T) {
	h := NewHistogram(ExpBuckets(1, 2, 4))
	h.Observe(7)
	h.Observe(99)
	h.Reset()
	if h.Count() != 0 || h.Sum() != 0 || h.Max() != 0 || h.Overflow() != 0 {
		t.Fatalf("reset left state: count=%d sum=%g max=%g overflow=%d",
			h.Count(), h.Sum(), h.Max(), h.Overflow())
	}
	h.Observe(2)
	if h.Max() != 2 || h.Count() != 1 {
		t.Fatalf("observe after reset broken: count=%d max=%g", h.Count(), h.Max())
	}
}

// TestQuantileFromBuckets pins the exported phase-delta quantile
// helper the latency observatory uses: interpolation inside finite
// buckets, clamping of maxless overflow mass, and interpolation toward
// a tracked max.
func TestQuantileFromBuckets(t *testing.T) {
	bounds := []float64{1, 2, 4}
	// 10 observations uniformly in (1,2].
	counts := []uint64{0, 10, 0, 0}
	if got := QuantileFromBuckets(bounds, counts, 0, 0.5); got <= 1 || got > 2 {
		t.Fatalf("q50 of (1,2] bucket = %g, want in (1,2]", got)
	}
	// Overflow mass with a known max interpolates toward it...
	counts = []uint64{0, 0, 0, 4}
	if got := QuantileFromBuckets(bounds, counts, 20, 1); got != 20 {
		t.Fatalf("q1 with max=20 = %g, want 20", got)
	}
	// ...and without one (max=0, the serialized-doc case) clamps at the
	// last finite bound.
	if got := QuantileFromBuckets(bounds, counts, 0, 0.99); got != 4 {
		t.Fatalf("maxless overflow q99 = %g, want clamp at 4", got)
	}
	if got := QuantileFromBuckets(bounds, nil, 0, 0.5); !math.IsNaN(got) && got != 0 {
		t.Fatalf("empty counts q50 = %g, want 0", got)
	}
}

// TestAttachHistogramOpenMetrics pins that an externally built
// histogram attached to a registry renders as a labelled, lint-clean
// OpenMetrics histogram family — the path the latency observatory's
// latency.op_ns{op="..."} series take onto /metrics.
func TestAttachHistogramOpenMetrics(t *testing.T) {
	reg := NewRegistry()
	h := NewHistogram(ExpBuckets(1, 2, 4))
	reg.AttachHistogram(`latency.op_ns{op="read"}`, h)
	h.Observe(3)
	h.Observe(100) // overflow

	var sb strings.Builder
	if err := WriteOpenMetrics(&sb, reg.MetricFamilies()); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if err := LintOpenMetrics([]byte(text)); err != nil {
		t.Fatalf("attached histogram fails OpenMetrics lint: %v\n%s", err, text)
	}
	for _, want := range []string{
		`latency_op_ns_bucket{op="read",le="4"} 1`,
		`latency_op_ns_bucket{op="read",le="+Inf"} 2`,
		`latency_op_ns_count{op="read"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}

	// Attach is nil-safe in both directions: a nil registry and a nil
	// histogram are no-ops, matching the disabled-telemetry idiom.
	var nilReg *Registry
	nilReg.AttachHistogram("x", h)
	reg.AttachHistogram("y", nil)
}
