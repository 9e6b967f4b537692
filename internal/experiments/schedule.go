package experiments

import (
	"fmt"
	"sort"

	"nvmstar/internal/secmem"
	"nvmstar/internal/sim"
)

// Unit planning and dispatch order. Every sweep lists its cells, each
// with the configuration it runs, and plan turns the list into units:
// one per (workload, seed, scheme), whose members are the distinct
// configurations of its cells. A unit runs its members as one
// lock-step group (sim.NewGroup) — Table II's ADR points of one
// workload, Fig. 14b's cache sizes of one scheme — or as a solo
// machine when it has one member. Groups never mix schemes: the
// heaviest scheme mix of one workload would outlast every other unit
// and cap the pool's speedup.
//
// Units are ranked once, longest-expected-first (LPT), and handed to
// pool workers in that order: with a handful of coarse, badly
// imbalanced cells (a strict-scheme cell costs ~8x a wb cell per op),
// FIFO dispatch routinely strands the heaviest cell on the tail of the
// sweep, pinning the wall clock while the other workers idle. Ranking
// by expected cost bounds that tail at the cost of the single longest
// unit. A unit's expected cost is the static per-scheme weight times
// the operations run, summed over its cells.
//
// Scheduling never touches results: every unit writes its cells' own
// output slots and the seed merge folds slots in a fixed order, so
// per-cell values are bit-identical to the sequential path at any pool
// width and any dispatch order.

// sweepCell is one cell of a sweep and what it runs: the machine
// configuration (seeded) and, in a crash sweep, the operation count at
// which its fork is crashed and the recovery driven on the fork.
type sweepCell struct {
	Cell
	cfg     sim.Config
	point   int
	recover func(*sim.Machine) (*secmem.RecoveryReport, error)
}

// cell is the sweep cell of workload under scheme on the runner's
// configuration.
func (r *Runner) cell(workload, scheme, label string) sweepCell {
	cfg := r.cfg()
	cfg.Scheme = scheme
	return sweepCell{Cell: Cell{Workload: workload, Scheme: scheme, Label: label}, cfg: cfg}
}

// workUnit is one schedulable run: the cells of one (workload, seed,
// scheme) key of a sweep.
type workUnit struct {
	cells  []Cell       // identities, in sweep order
	idx    []int        // the cells' indices in the sweep's cell list
	cfgs   []sim.Config // the members: distinct configurations, first-seen order
	member []int        // member[k] indexes cfgs for cells[k]
}

// plan forms a sweep's units. Units come out in first-seen order of
// their keys, and a unit's cells and members in sweep order.
func plan(cells []sweepCell) []workUnit {
	type key struct {
		workload, scheme string
		seed             int
	}
	byKey := map[key]int{}
	var units []workUnit
	var members []map[string]int // per unit: configuration -> member
	for i, c := range cells {
		k := key{c.Workload, c.Scheme, c.Seed}
		ui, ok := byKey[k]
		if !ok {
			ui = len(units)
			byKey[k] = ui
			units = append(units, workUnit{})
			members = append(members, map[string]int{})
		}
		u := &units[ui]
		cfg := fmt.Sprintf("%+v", c.cfg)
		m, ok := members[ui][cfg]
		if !ok {
			m = len(u.cfgs)
			members[ui][cfg] = m
			u.cfgs = append(u.cfgs, c.cfg)
		}
		u.cells = append(u.cells, c.Cell)
		u.idx = append(u.idx, i)
		u.member = append(u.member, m)
	}
	return units
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
