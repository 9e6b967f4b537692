package telemetry

import (
	"math"
	"reflect"
	"testing"
)

// buckets counts vs into a bucket vector over bounds the way the
// latency recorder and the wear summary do: one BucketIndex per value,
// plus the overflow bucket.
func buckets(bounds []float64, vs ...float64) []uint64 {
	counts := make([]uint64, len(bounds)+1)
	for _, v := range vs {
		counts[BucketIndex(bounds, v)]++
	}
	return counts
}

// repeat returns n copies of v.
func repeat(v float64, n int) []float64 {
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = v
	}
	return vs
}

// TestQuantileFromBuckets pins the quantile estimator the latency
// observatory and the wear summary use: interpolation inside finite
// buckets, clamping of maxless overflow mass, and interpolation toward
// a known max.
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

// TestHistogramQuantileEdgeCases drives the estimator over bucket
// vectors counted with BucketIndex, with the largest observation as
// max, as the wear summary calls it.
func TestHistogramQuantileEdgeCases(t *testing.T) {
	t.Run("nil", func(t *testing.T) {
		if got := QuantileFromBuckets(nil, nil, 0, 0.5); got != 0 {
			t.Fatalf("nil vector quantile = %v, want 0", got)
		}
	})
	t.Run("empty", func(t *testing.T) {
		bounds := []float64{1, 2, 4}
		if got := QuantileFromBuckets(bounds, buckets(bounds), 0, 0.99); got != 0 {
			t.Fatalf("empty quantile = %v, want 0", got)
		}
	})
	t.Run("bucket_index", func(t *testing.T) {
		// A value on a bound belongs to that bound's bucket; above the
		// last bound it overflows.
		bounds := []float64{1, 10}
		if got := buckets(bounds, 0.5, 1, 5, 10, 100); !reflect.DeepEqual(got, []uint64{2, 2, 1}) {
			t.Fatalf("bucket vector = %v, want [2 2 1]", got)
		}
	})
	t.Run("q0_and_q1", func(t *testing.T) {
		bounds := []float64{1, 2, 4}
		counts := buckets(bounds, repeat(1.5, 10)...) // all in (1, 2]
		q0, q1 := QuantileFromBuckets(bounds, counts, 1.5, 0), QuantileFromBuckets(bounds, counts, 1.5, 1)
		if q0 < 1 || q0 > 2 {
			t.Errorf("q=0 -> %v, want within bucket (1, 2]", q0)
		}
		if q1 != 2 {
			t.Errorf("q=1 -> %v, want upper bound 2", q1)
		}
	})
	t.Run("clamped", func(t *testing.T) {
		bounds := []float64{1, 2}
		counts := buckets(bounds, 0.5)
		q := func(q float64) float64 { return QuantileFromBuckets(bounds, counts, 0.5, q) }
		if q(-1) != q(0) || q(2) != q(1) {
			t.Error("q outside [0,1] must clamp")
		}
	})
	t.Run("all_mass_in_overflow", func(t *testing.T) {
		// Overflow mass interpolates between the last finite bound and
		// the largest observation — saturated vectors report finite,
		// honest tails instead of clamping at the bound.
		bounds := []float64{1, 2, 4}
		counts := buckets(bounds, 100, 200)
		got := QuantileFromBuckets(bounds, counts, 200, 0.99)
		if got <= 4 || got > 200 {
			t.Fatalf("overflow-only quantile = %v, want within (4, 200]", got)
		}
		if math.IsInf(got, 1) {
			t.Fatal("quantile must never be +Inf")
		}
		if q1 := QuantileFromBuckets(bounds, counts, 200, 1); q1 != 200 {
			t.Fatalf("q=1 = %v, want the max 200", q1)
		}
		// Without a known max (phase-delta vectors pass max = 0) the
		// estimate clamps at the last finite bound.
		if got := QuantileFromBuckets(bounds, counts, 0, 0.99); got != 4 {
			t.Fatalf("maxless overflow quantile = %v, want last finite bound 4", got)
		}
	})
	t.Run("no_finite_bounds", func(t *testing.T) {
		if got := QuantileFromBuckets(nil, buckets(nil, 7), 7, 0.5); got != 3.5 {
			t.Fatalf("boundless quantile = %v, want 3.5 (interpolated toward the max)", got)
		}
	})
	t.Run("interpolates", func(t *testing.T) {
		bounds := []float64{0, 10}
		got := QuantileFromBuckets(bounds, buckets(bounds, repeat(5, 100)...), 5, 0.5) // all 100 in (0, 10]
		if got < 4.9 || got > 5.1 {
			t.Fatalf("median = %v, want ~5 by linear interpolation", got)
		}
	})
}
