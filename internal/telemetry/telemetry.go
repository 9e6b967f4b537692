// Package telemetry is the simulator's observability layer: a
// registry of lazily evaluated series that the machine populates
// (telemetry.go) and a sim.Sampler turns into timelines; a structured
// event trace emitted as Chrome trace-event JSON (trace.go); and the
// fixed-bucket helpers — bucket bounds, bucket index, quantile
// estimate — behind the plain []uint64 bucket vectors that the
// latency observatory and the sim.Wear summary count into.
//
// The design constraint is that disabled telemetry must be free: the
// simulator's hot paths (secmem.Engine.WriteLine is 0 allocs/op) may
// not regress when nobody is watching. A disabled trace is therefore a
// nil *Trace whose methods are no-ops — InstantAt compiles to a nil
// check and a return. No interface values, no indirect calls, no
// allocation on that path.
//
// The simulator itself is single-goroutine per machine, so bucket
// vectors are plain values; only the registry is mutex-guarded, so a
// reader on another goroutine may walk it while its owner registers.
package telemetry

import (
	"fmt"
	"slices"
	"sort"
	"sync"
)

// BucketIndex returns the bucket of v over ascending upper bounds: the
// first bound b with v <= b, else len(bounds), the overflow bucket.
func BucketIndex(bounds []float64, v float64) int {
	for i, b := range bounds {
		if v <= b {
			return i
		}
	}
	return len(bounds)
}

// QuantileFromBuckets estimates the q-quantile (q clamped to [0, 1])
// of a bucket vector by linear interpolation within the containing
// bucket. counts has len(bounds)+1 entries, the last being the
// overflow bucket; mass there interpolates between the last finite
// bound and max, the largest observation when one is known (pass
// max <= last bound, e.g. 0, to clamp at the bound), so saturated
// vectors report finite tails. Empty counts give 0. Deterministic: the
// result depends only on the arguments, so it serves phase deltas and
// merged bucket vectors alike.
func QuantileFromBuckets(bounds []float64, counts []uint64, max, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(total)
	var cum uint64
	lower := 0.0
	for i, b := range bounds {
		c := counts[i]
		if c > 0 && float64(cum+c) >= target {
			frac := (target - float64(cum)) / float64(c)
			return lower + frac*(b-lower)
		}
		cum += c
		lower = b
	}
	// Remaining mass sits in the overflow bucket: interpolate toward
	// the recorded maximum when one is known, else report the largest
	// finite bound (0 if there are none).
	if len(counts) == 0 {
		return lower
	}
	if c := counts[len(counts)-1]; c > 0 && max > lower {
		frac := (target - float64(cum)) / float64(c)
		if frac < 0 {
			frac = 0
		}
		if frac > 1 {
			frac = 1
		}
		return lower + frac*(max-lower)
	}
	return lower
}

// ExpBuckets returns n exponentially growing upper bounds starting at
// start and multiplying by factor — the usual latency-histogram shape.
func ExpBuckets(start, factor float64, n int) []float64 {
	if n <= 0 || start <= 0 || factor <= 1 {
		return nil
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// gaugeFunc is a lazily sampled series: the function runs only when a
// sample is taken, so registering one costs the instrumented component
// nothing at runtime.
type gaugeFunc struct {
	name string
	fn   func() float64
}

// Registry holds a machine's series. A nil *Registry is the disabled
// state: every registration is a no-op and every read is empty.
// Registration and reads are mutex-guarded so a reader on another
// goroutine may walk the registry while its owner registers.
type Registry struct {
	mu     sync.RWMutex
	gfuncs []gaugeFunc // sorted by name
}

// NewRegistry returns an empty, enabled registry.
func NewRegistry() *Registry { return &Registry{} }

// GaugeFunc registers a lazily evaluated series. The function runs at
// sample time only, so it may read live component state (cache stats,
// device counters) without any hot-path cost. Duplicate registration
// is a wiring bug worth failing loudly on (two components exporting
// the same name would silently interleave in timelines), so it panics.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	i := sort.Search(len(r.gfuncs), func(i int) bool { return r.gfuncs[i].name >= name })
	if i < len(r.gfuncs) && r.gfuncs[i].name == name {
		panic(fmt.Sprintf("telemetry: series %q registered twice", name))
	}
	r.gfuncs = slices.Insert(r.gfuncs, i, gaugeFunc{name: name, fn: fn})
}

// SeriesNames returns every registered series name in sorted order.
func (r *Registry) SeriesNames() []string {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, len(r.gfuncs))
	for i, gf := range r.gfuncs {
		names[i] = gf.name
	}
	return names
}

// Each calls fn once per registered series with its current value, in
// the deterministic order of SeriesNames. The sampler is the intended
// caller.
func (r *Registry) Each(fn func(name string, value float64)) {
	if r == nil {
		return
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, gf := range r.gfuncs {
		fn(gf.name, gf.fn())
	}
}
