package experiments

import (
	"sync"
	"time"
)

// Seed-level work decomposition. A sweep's schedulable grain is the
// workUnit — one simulator run of one (workload, scheme, seed[, label])
// cell. Units are handed to pool workers longest-expected-first (LPT):
// with a handful of coarse, badly imbalanced cells (a strict-scheme
// cell costs ~8x a wb cell per op), FIFO dispatch routinely strands the
// heaviest cell on the tail of the sweep, pinning the wall clock while
// the other workers idle. Ranking by expected cost bounds that tail at
// the cost of the single longest unit.
//
// Expected cost starts from a static per-scheme weight and is refined
// by the observed wall time of completed units, keyed by (workload,
// scheme, label) — seeds of the same cell are interchangeable, while a
// label change (Table II's ADR sizes, Fig. 14b's cache sizes) changes
// the machine configuration and therefore the cost.
//
// Scheduling never touches results: every unit writes its own output
// slot and the seed merge folds slots in a fixed order, so per-cell
// values are bit-identical to the sequential path at any pool width
// and any dispatch order.

// workUnit is one schedulable simulator run: of one cell, or of a
// lock-step group's cells.
type workUnit struct {
	cells []Cell // identity: workload/scheme/seed and optional label
	slot  int    // caller-owned output slot
}

// costKey groups units expected to cost alike.
func (u workUnit) costKey() string {
	var k string
	for i, c := range u.cells {
		if i > 0 {
			k += ","
		}
		k += c.Workload + "|" + c.Scheme + "|" + c.Label
	}
	return k
}

// schemeWeight is the static relative per-op cost of each scheme,
// used before any unit of a key has been observed. The values only
// need to rank correctly (strict persistence is by far the heaviest;
// tree-walking schemes cost more than the wb baseline); observation
// replaces them after the first completed unit per key.
var schemeWeight = map[string]float64{
	"wb":      1.0,
	"star":    1.3,
	"anubis":  1.6,
	"phoenix": 1.6,
	"strict":  8.0,
}

// staticCost is the a-priori cost estimate of a cell: scheme weight x
// operations actually run for that scheme.
func (r *Runner) staticCost(c Cell) float64 {
	w, ok := schemeWeight[c.Scheme]
	if !ok {
		w = 1.5
	}
	return w * float64(r.opsFor(c.Scheme))
}

// costModel predicts unit wall times. Keys with observations report
// their observed mean; unobserved keys scale their static weight by
// the globally observed ns-per-weight rate so both kinds of estimate
// live on one comparable scale. The model persists across a Runner's
// sweeps — a warm-up sweep prices the next one.
type costModel struct {
	mu     sync.Mutex
	byKey  map[string]costObs
	ns     float64 // total observed wall time
	weight float64 // total static weight of observed units
}

type costObs struct {
	ns float64
	n  float64
}

func newCostModel() *costModel { return &costModel{byKey: map[string]costObs{}} }

// observe folds one completed unit's wall time into the model.
func (m *costModel) observe(key string, static float64, wall time.Duration) {
	ns := float64(wall.Nanoseconds())
	m.mu.Lock()
	o := m.byKey[key]
	o.ns += ns
	o.n++
	m.byKey[key] = o
	m.ns += ns
	m.weight += static
	m.mu.Unlock()
}

// estimate returns the expected wall time (ns, or static-weight units
// while nothing has been observed) of a unit with the given key.
func (m *costModel) estimate(key string, static float64) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if o, ok := m.byKey[key]; ok && o.n > 0 {
		return o.ns / o.n
	}
	if m.weight > 0 {
		return static * m.ns / m.weight
	}
	return static
}

// dispatcher hands out unit indices longest-expected-first. Every
// next() re-ranks the remaining units against the live cost model, so
// observations from units completed mid-sweep reprice the queue.
type dispatcher struct {
	mu        sync.Mutex
	remaining []int
	est       func(i int) float64
}

func newDispatcher(n int, est func(i int) float64) *dispatcher {
	d := &dispatcher{remaining: make([]int, n), est: est}
	for i := range d.remaining {
		d.remaining[i] = i
	}
	return d
}

// next pops the remaining unit with the highest cost estimate; ties
// keep the earliest-queued unit. The linear scan is fine at sweep
// scale (hundreds of units, one scan per dispatch).
func (d *dispatcher) next() (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.remaining) == 0 {
		return 0, false
	}
	best := 0
	bestIdx := d.remaining[0]
	bestEst := d.est(bestIdx)
	for j := 1; j < len(d.remaining); j++ {
		i := d.remaining[j]
		if e := d.est(i); e > bestEst || (e == bestEst && i < bestIdx) {
			best, bestIdx, bestEst = j, i, e
		}
	}
	d.remaining[best] = d.remaining[len(d.remaining)-1]
	d.remaining = d.remaining[:len(d.remaining)-1]
	return bestIdx, true
}
