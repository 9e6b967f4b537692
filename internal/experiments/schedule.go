package experiments

import "sort"

// Seed-level work decomposition. A sweep's schedulable grain is the
// workUnit — one simulator run of one (workload, scheme, seed[, label])
// cell, or one run of a lock-step group's or crash family's cells.
// Units are ranked once, longest-expected-first (LPT), and handed to
// pool workers in that order: with a handful of coarse, badly
// imbalanced cells (a strict-scheme cell costs ~8x a wb cell per op),
// FIFO dispatch routinely strands the heaviest cell on the tail of the
// sweep, pinning the wall clock while the other workers idle. Ranking
// by expected cost bounds that tail at the cost of the single longest
// unit. A unit's expected cost is the static per-scheme weight times
// the operations run, summed over its cells.
//
// Scheduling never touches results: every unit writes its own output
// slot and the seed merge folds slots in a fixed order, so per-cell
// values are bit-identical to the sequential path at any pool width
// and any dispatch order.

// workUnit is one schedulable simulator run: of one cell, or of a
// lock-step group's or crash family's cells.
type workUnit struct {
	cells []Cell // identity: workload/scheme/seed and optional label
	slot  int    // caller-owned output slot
}

// schemeWeight is the static relative per-op cost of each scheme. The
// values only need to rank correctly: strict persistence is by far the
// heaviest, and tree-walking schemes cost more than the wb baseline.
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

// lptOrder returns unit indices in descending cost order; ties keep
// the earliest-queued unit first.
func lptOrder(costs []float64) []int {
	order := make([]int, len(costs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return costs[order[a]] > costs[order[b]] })
	return order
}
