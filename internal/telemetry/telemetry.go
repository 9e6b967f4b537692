// Package telemetry is the simulator's observability layer: a
// registry of lazily evaluated series that the machine populates
// (telemetry.go) and a sim.Sampler turns into timelines; a structured
// event trace emitted as Chrome trace-event JSON (trace.go);
// fixed-bucket histograms with quantile estimates that the latency
// observatory and the device's wear summary use; and the debug server
// behind starbench -http, serving expvar and pprof (debug.go).
//
// The design constraint is that disabled telemetry must be free: the
// simulator's hot paths (secmem.Engine.WriteLine is 0 allocs/op) may
// not regress when nobody is watching. The sinks are therefore
// pointers whose methods are nil-safe no-ops — a nil *Histogram's
// Observe and a nil *Trace's InstantAt compile to a nil check and a
// return. No interface values, no indirect calls, no allocation on
// either path.
//
// The simulator itself is single-goroutine per machine, but readers
// on other goroutines may snapshot a histogram or walk a registry
// while a run updates it, so histogram updates are lock-free atomics
// and registry access is mutex-guarded.
package telemetry

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Histogram accumulates a distribution over fixed bucket upper bounds:
// count, sum, max and the per-bucket vector that end-of-run reports
// and quantile estimates read.
type Histogram struct {
	bounds []float64 // ascending upper bounds; an implicit +Inf bucket follows
	counts []uint64  // len(bounds)+1, accessed atomically
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits
	max    atomic.Uint64 // float64 bits of the largest observation
}

// NewHistogram builds a histogram over the given ascending bucket
// upper bounds — for components that summarize distributions (the
// latency observatory's per-op tails, the device's per-bank wear p99).
func NewHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// Clone returns an independent snapshot copy of the histogram: same
// bounds (shared — they are immutable), current counts, sum and max.
// Machine forks use it so parent and fork diverge independently.
func (h *Histogram) Clone() *Histogram {
	if h == nil {
		return nil
	}
	c := &Histogram{bounds: h.bounds, counts: make([]uint64, len(h.counts))}
	for i := range h.counts {
		c.counts[i] = atomic.LoadUint64(&h.counts[i])
	}
	c.count.Store(h.count.Load())
	c.sum.Store(h.sum.Load())
	c.max.Store(h.max.Load())
	return c
}

// Reset zeroes the histogram's counts, sum and max while keeping its
// bounds — a Reset machine's histograms then read exactly as a fresh
// machine's would.
func (h *Histogram) Reset() {
	if h == nil {
		return
	}
	h.count.Store(0)
	h.sum.Store(0)
	h.max.Store(0)
	for i := range h.counts {
		atomic.StoreUint64(&h.counts[i], 0)
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	// Max tracking assumes non-negative observations (true of every
	// histogram here: latencies and wear counts); the zero
	// initial value then never overstates the maximum.
	for {
		old := h.max.Load()
		if v <= math.Float64frombits(old) {
			break
		}
		if h.max.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	idx := len(h.bounds)
	for i, b := range h.bounds {
		if v <= b {
			idx = i
			break
		}
	}
	atomic.AddUint64(&h.counts[idx], 1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Buckets returns the bucket upper bounds and a snapshot of the
// per-bucket counts aligned with the bounds passed to NewHistogram,
// plus one overflow count.
func (h *Histogram) Buckets() (bounds []float64, counts []uint64) {
	if h == nil {
		return nil, nil
	}
	counts = make([]uint64, len(h.counts))
	for i := range h.counts {
		counts[i] = atomic.LoadUint64(&h.counts[i])
	}
	return h.bounds, counts
}

// Max returns the largest observation recorded so far (0 for an empty
// or nil histogram; observations are assumed non-negative).
func (h *Histogram) Max() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.max.Load())
}

// Quantile estimates the q-quantile (q in [0, 1]) of the observed
// distribution by linear interpolation within the containing bucket.
// Mass in the overflow bucket interpolates between the last finite
// bound and the largest recorded observation, so saturated histograms
// report finite, honest tail estimates. An empty histogram returns 0;
// q is clamped to [0, 1].
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	_, counts := h.Buckets()
	return QuantileFromBuckets(h.bounds, counts, h.Max(), q)
}

// QuantileFromBuckets is the pure quantile estimator behind
// Histogram.Quantile, usable on any (bounds, counts) snapshot —
// including phase deltas and merged bucket vectors, where no live
// histogram exists. counts has len(bounds)+1 entries, the last being
// the overflow bucket; mass there interpolates between the last finite
// bound and max (pass max <= last bound, e.g. 0, to clamp at the
// bound). Deterministic: the result depends only on the arguments.
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
