package telemetry

import (
	"math"
	"testing"
)

// overflow reads the count of the +Inf bucket, the last entry of the
// bucket vector.
func overflow(h *Histogram) uint64 {
	_, counts := h.Buckets()
	return counts[len(counts)-1]
}

// TestHistogramCloneIndependent pins that Clone is a deep snapshot:
// observations into the original do not bleed into the clone.
func TestHistogramCloneIndependent(t *testing.T) {
	h := NewHistogram(ExpBuckets(1, 2, 4))
	h.Observe(3)
	c := h.Clone()
	h.Observe(100) // overflow in original only
	if c.Count() != 1 || c.Max() != 3 || overflow(c) != 0 {
		t.Fatalf("clone mutated by later observe: count=%d max=%g overflow=%d",
			c.Count(), c.Max(), overflow(c))
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
	if h.Count() != 0 || h.Sum() != 0 || h.Max() != 0 || overflow(h) != 0 {
		t.Fatalf("reset left state: count=%d sum=%g max=%g overflow=%d",
			h.Count(), h.Sum(), h.Max(), overflow(h))
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
