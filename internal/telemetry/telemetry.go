// Package telemetry is the simulator's observability layer: a
// registry of named counters, gauges and histograms that the machine,
// engine, device, caches and schemes populate; a simulated-time
// sampler that turns the registered series into in-memory timelines
// (sampler.go); a structured event trace emitted as Chrome
// trace-event JSON (trace.go); and an OpenMetrics text exposition of
// the registered instruments (openmetrics.go) served by the debug
// server's /metrics endpoint.
//
// The design constraint is that disabled telemetry must be free: the
// simulator's hot paths (secmem.Engine.WriteLine is 0 allocs/op) may
// not regress when nobody is watching. Every instrument is therefore a
// pointer whose methods are nil-safe no-ops — a component asks a nil
// *Registry for a counter, gets a nil *Counter back, and `c.Inc()`
// compiles to a nil check and a return. No interface values, no
// indirect calls, no allocation on either path.
//
// The simulator itself is single-goroutine per machine, but the debug
// server scrapes instruments from HTTP handler goroutines while a run
// mutates them, so instrument updates are lock-free atomics and
// registration is mutex-guarded. Updates stay allocation-free.
//
// Series names may carry an OpenMetrics-style label block, e.g.
// `nvm.writes_by_cause{cause="data",bank="0"}`. The registry and
// sampler treat the whole string as the series name; the OpenMetrics
// writer splits the block back into labels at exposition time.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event count. The zero of a
// run's telemetry: every method on a nil *Counter is a no-op, so
// instrumented code never branches on "is telemetry on".
type Counter struct {
	name string
	v    atomic.Uint64 // float64 bits
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n float64) {
	if c == nil {
		return
	}
	for {
		old := c.v.Load()
		if c.v.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+n)) {
			return
		}
	}
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.v.Load())
}

// Gauge is an instantaneous value set by its owner.
type Gauge struct {
	name string
	v    atomic.Uint64 // float64 bits
}

// Set overwrites the gauge value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.v.Store(math.Float64bits(v))
	}
}

// Value returns the current value (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.v.Load())
}

// Histogram accumulates a distribution over fixed bucket upper bounds.
// The sampler exports its count and sum (so means over time are
// derivable); the full bucket vector is available for end-of-run
// reporting.
type Histogram struct {
	name   string
	bounds []float64 // ascending upper bounds; an implicit +Inf bucket follows
	counts []uint64  // len(bounds)+1, accessed atomically
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits
	max    atomic.Uint64 // float64 bits of the largest observation
}

// NewHistogram builds a standalone histogram over the given ascending
// bucket upper bounds, unattached to any registry — for components
// that summarize distributions (the device's per-bank wear p99)
// without exporting the histogram itself as a series. AttachHistogram
// can later export it under a name.
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
	c := &Histogram{name: h.name, bounds: h.bounds, counts: make([]uint64, len(h.counts))}
	for i := range h.counts {
		c.counts[i] = atomic.LoadUint64(&h.counts[i])
	}
	c.count.Store(h.count.Load())
	c.sum.Store(h.sum.Load())
	c.max.Store(h.max.Load())
	return c
}

// Reset zeroes the histogram's counts, sum and max while keeping its
// bounds and name — the standalone-histogram half of the machine-reuse
// Reset invariant (Registry.Reset covers registered instruments).
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
	// series here: latencies, wear counts, bank occupancy); the zero
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

// Mean returns sum/count, or 0 for an empty histogram.
func (h *Histogram) Mean() float64 {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Buckets returns the bucket upper bounds and a snapshot of the
// per-bucket counts aligned with the bounds passed at registration,
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

// Overflow returns the count of observations above the last finite
// bucket bound — the explicit view of the +Inf bucket, so saturated
// histograms (a bank wait beyond ExpBuckets' top bound) surface in
// reports instead of silently vanishing into an unbounded bucket.
func (h *Histogram) Overflow() uint64 {
	if h == nil || len(h.counts) == 0 {
		return 0
	}
	return atomic.LoadUint64(&h.counts[len(h.counts)-1])
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

// Merge adds o's observations into h: per-bucket counts, total count,
// sum and max. Both histograms must share identical bucket bounds —
// merging differently shaped histograms is a wiring bug. The merge is
// deterministic (pure integer/float addition), so folding seed-level
// histograms in a fixed order yields bit-identical results.
func (h *Histogram) Merge(o *Histogram) error {
	if h == nil || o == nil {
		return nil
	}
	if len(h.bounds) != len(o.bounds) {
		return fmt.Errorf("telemetry: merging histograms with %d vs %d bounds", len(h.bounds), len(o.bounds))
	}
	for i, b := range h.bounds {
		if o.bounds[i] != b {
			return fmt.Errorf("telemetry: merging histograms with different bounds (%g vs %g at %d)", b, o.bounds[i], i)
		}
	}
	for i := range h.counts {
		atomic.AddUint64(&h.counts[i], atomic.LoadUint64(&o.counts[i]))
	}
	h.count.Add(o.count.Load())
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+o.Sum())) {
			break
		}
	}
	if om := o.Max(); om > h.Max() {
		h.max.Store(math.Float64bits(om))
	}
	return nil
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

// Registry holds a machine's instruments. A nil *Registry is the
// disabled state: every constructor method returns a nil instrument
// and every registration is a no-op. Registration and snapshot reads
// are mutex-guarded so the debug server may scrape while the owning
// machine registers and updates; instrument updates themselves are
// atomic and never take the lock.
type Registry struct {
	mu       sync.RWMutex
	counters []*Counter
	gauges   []*Gauge
	gfuncs   []gaugeFunc
	hists    []*Histogram
	names    map[string]bool
}

// NewRegistry returns an empty, enabled registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

// claim reserves a series name; duplicate registration is a wiring bug
// worth failing loudly on (two components exporting the same name
// would silently interleave in timelines). Callers hold r.mu.
func (r *Registry) claim(name string) {
	if r.names[name] {
		panic(fmt.Sprintf("telemetry: series %q registered twice", name))
	}
	r.names[name] = true
}

// Counter registers and returns a named counter (nil on a nil
// registry).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claim(name)
	c := &Counter{name: name}
	r.counters = append(r.counters, c)
	return c
}

// Gauge registers and returns a named gauge (nil on a nil registry).
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claim(name)
	g := &Gauge{name: name}
	r.gauges = append(r.gauges, g)
	return g
}

// GaugeFunc registers a lazily evaluated series. The function runs at
// sample time only, so it may read live component state (cache stats,
// device counters) without any hot-path cost.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claim(name)
	r.gfuncs = append(r.gfuncs, gaugeFunc{name: name, fn: fn})
}

// Histogram registers and returns a named histogram over the given
// ascending bucket upper bounds (nil on a nil registry).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claim(name)
	h := &Histogram{name: name, bounds: bounds, counts: make([]uint64, len(bounds)+1)}
	r.hists = append(r.hists, h)
	return h
}

// AttachHistogram registers an existing standalone histogram under
// name, exposing it as a series (timelines, /metrics le buckets)
// without copying: the owner keeps observing into the same object. The
// latency observatory uses it so its per-op histograms feed both
// Results and the OpenMetrics exposition. No-op on a nil registry or
// histogram.
func (r *Registry) AttachHistogram(name string, h *Histogram) {
	if r == nil || h == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claim(name)
	h.name = name
	r.hists = append(r.hists, h)
}

// SeriesNames returns every registered series name in sorted order. A
// histogram contributes two series: name.count and name.sum.
func (r *Registry) SeriesNames() []string {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.seriesNamesLocked()
}

func (r *Registry) seriesNamesLocked() []string {
	var names []string
	for _, c := range r.counters {
		names = append(names, c.name)
	}
	for _, g := range r.gauges {
		names = append(names, g.name)
	}
	for _, gf := range r.gfuncs {
		names = append(names, gf.name)
	}
	for _, h := range r.hists {
		names = append(names, h.name+".count", h.name+".sum")
	}
	sort.Strings(names)
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
	// The per-kind slices are registration-ordered; merge through the
	// sorted name list so timelines have a stable, readable order.
	vals := make(map[string]float64, len(r.names)+len(r.hists))
	for _, c := range r.counters {
		vals[c.name] = c.Value()
	}
	for _, g := range r.gauges {
		vals[g.name] = g.Value()
	}
	for _, gf := range r.gfuncs {
		vals[gf.name] = gf.fn()
	}
	for _, h := range r.hists {
		vals[h.name+".count"] = float64(h.Count())
		vals[h.name+".sum"] = h.Sum()
	}
	for _, name := range r.seriesNamesLocked() {
		fn(name, vals[name])
	}
}

// Reset zeroes every counter, gauge and histogram while keeping all
// registrations — the telemetry half of the machine-reuse Reset
// invariant: a Reset machine's instruments read exactly as a fresh
// machine's would.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.v.Store(0)
	}
	for _, h := range r.hists {
		h.Reset()
	}
}
