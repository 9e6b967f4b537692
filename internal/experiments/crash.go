package experiments

// Run-once/fork-many crash sweeps. A crash cell used to be one
// monolithic run: run the workload unverified, crash, recover — so K
// recovery cells of the same base run (Fig. 14b's cache-size points,
// the index ablation's indexed/flat pair, a multi-crash-point sweep)
// cost K full workload runs. Machine.Fork makes the base run
// shareable: a crash unit — the plan's (workload, seed, scheme) group
// of cells, like any other unit — executes the workload once on one
// pooled machine, forks an O(occupied-pages) copy-on-write clone at
// every cell's crash point, and crashes and recovers only the forks,
// so a unit costs O(run + K·recover) instead of O(K·run) — a win that
// holds even on a single CPU, because it removes work rather than
// overlapping it. A unit whose cells differ only below the memory
// controller (Fig. 14b's cache sizes) runs its base as a lock-step
// group, one member per configuration, and Machine.ForkMember forks
// each cell's member out as a solo machine.
//
// Every cell records under the same sweep/cell keys the monolithic
// path used, so rows, manifests and cell digests are bit-identical to
// running each cell on a fresh machine — the Fork and group invariants
// (sim.Machine.Fork, sim.NewGroup) plus the session-stepping
// equivalence (StepN to N ops ≡ one N-op run) carry the proof
// obligation, and TestFig14bForkDecompositionMatchesDirect pins it end
// to end. Crash sweeps run at seed 0 only.

import (
	"context"
	"fmt"
	"sort"
	"time"

	"nvmstar/internal/cache"
	"nvmstar/internal/schemes/star"
	"nvmstar/internal/secmem"
	"nvmstar/internal/sim"
)

// runCrashes runs a crash sweep's cells and returns their recovery
// reports in cell order. A unit steps its base machine through the
// workload in a session; at each cell's point (ascending) it forks the
// cell's member out as a solo machine, crashes the fork, recovers it
// at once and records it. The base machine itself is never crashed,
// so it returns to the worker's pool like any other machine — ResetTo
// on the next checkout rewinds it (TestMachinePoolPoisonedCheckout pins
// the pool side).
//
// A cell's wall is its own fork, crash and recovery; the base run the
// unit shares is in no cell's wall, as in the crash-recover
// benchmark's per-crash timing. If the unit fails, its unrecorded
// cells record the error.
func (r *Runner) runCrashes(ctx context.Context, sweep string, cells []sweepCell) ([]*secmem.RecoveryReport, error) {
	reports := make([]*secmem.RecoveryReport, len(cells))
	err := r.dispatch(ctx, plan(cells), func(ctx context.Context, mp *machinePool, u workUnit) ([]time.Duration, error) {
		walls := make([]time.Duration, len(u.idx))
		// Fork order: ascending crash point, so the base steps each
		// segment exactly once; ties share the stepped-to state.
		order := make([]int, len(u.idx))
		for k := range order {
			order[k] = k
		}
		sort.SliceStable(order, func(a, b int) bool {
			return cells[u.idx[order[a]]].point < cells[u.idx[order[b]]].point
		})
		done := 0
		fail := func(err error) ([]time.Duration, error) {
			for _, k := range order[done:] {
				r.record(sweep, u.cells[k], walls[k], nil, err)
			}
			return walls, err
		}
		m, err := mp.machine(u.cfgs...)
		if err != nil {
			return fail(err)
		}
		// Set-up and the base run's steps poll ctx; the next checkout's
		// ResetTo detaches it.
		m.SetContext(ctx)
		s, err := m.NewSession(u.cells[0].Workload)
		if err != nil {
			return fail(err)
		}
		prev := 0
		for _, k := range order {
			c := cells[u.idx[k]]
			if err := ctx.Err(); err != nil {
				return fail(err)
			}
			if c.point > prev {
				if err := s.StepN(c.point - prev); err != nil {
					return fail(err)
				}
				prev = c.point
			}
			start := time.Now()
			fk := m.ForkMember(u.member[k])
			fk.Crash()
			rep, err := c.recover(fk)
			walls[k] = time.Since(start)
			if err != nil {
				return fail(err)
			}
			r.record(sweep, c.Cell, walls[k], rep, nil)
			reports[u.idx[k]] = rep
			done++
		}
		return walls, nil
	})
	if err != nil {
		return nil, err
	}
	return reports, nil
}

// crashCell is the crash sweep cell of workload under scheme, crashed
// after point operations and recovered by rec (nil: Machine.Recover).
func (r *Runner) crashCell(workload, scheme, label string, point int, rec func(*sim.Machine) (*secmem.RecoveryReport, error)) sweepCell {
	c := r.cell(workload, scheme, label)
	c.point, c.recover = point, rec
	if rec == nil {
		c.recover = (*sim.Machine).Recover
	}
	return c
}

// crashPointsFor normalizes the runner's WithCrashPoints axis against a
// run of total ops: sorted ascending, deduplicated, clamped to
// [1, total]. An empty axis means one end-of-run crash.
func (r *Runner) crashPointsFor(total int) []int {
	if len(r.crashPoints) == 0 {
		return []int{total}
	}
	pts := append([]int(nil), r.crashPoints...)
	sort.Ints(pts)
	out := pts[:0]
	for _, p := range pts {
		if p < 1 {
			continue
		}
		if p > total {
			p = total
		}
		if n := len(out); n > 0 && out[n-1] == p {
			continue
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		return []int{total}
	}
	return out
}

// CrashPointRow is one (workload, scheme, crash point) cell of the
// crash-point sweep: the modeled recovery after a crash mid-run.
type CrashPointRow struct {
	Workload   string
	Scheme     string
	CrashOps   int // operations executed before the crash
	StaleNodes int
	Seconds    float64
}

// CrashPoints sweeps recovery over the WithCrashPoints axis: for every
// (workload, scheme) pair, one base run is forked and crashed at each
// configured point and each fork recovers independently — K crash
// points cost one workload run plus K recoveries. Empty schemes
// defaults to the two recoverable schemes the paper compares (star,
// anubis). Rows come back workload-major, then scheme, then ascending
// crash point.
func (r *Runner) CrashPoints(ctx context.Context, schemes []string) ([]CrashPointRow, error) {
	if len(schemes) == 0 {
		schemes = []string{"star", "anubis"}
	}
	var cells []sweepCell
	for _, name := range r.workloadList() {
		for _, scheme := range schemes {
			for _, p := range r.crashPointsFor(r.opsFor(scheme)) {
				cells = append(cells, r.crashCell(name, scheme, fmt.Sprintf("crash@%d", p), p, nil))
			}
		}
	}
	reports, err := r.runCrashes(ctx, "crash-points", cells)
	if err != nil {
		return nil, err
	}
	rows := make([]CrashPointRow, len(reports))
	for i, rep := range reports {
		rows[i] = CrashPointRow{
			Workload:   cells[i].Workload,
			Scheme:     cells[i].Scheme,
			CrashOps:   cells[i].point,
			StaleNodes: rep.StaleNodes,
			Seconds:    rep.TimeSeconds(),
		}
	}
	return rows, nil
}

// Fig14b sweeps the metadata cache size and measures modeled recovery
// time for STAR and Anubis after a crash at the end of a hash run. The
// cache size changes only the memory controller, so each scheme is
// one unit: a lock-step group with one member per size, each forked
// out, crashed and recovered at the end of the run.
func (r *Runner) Fig14b(ctx context.Context, cacheSizes []int) ([]Fig14bRow, error) {
	if len(cacheSizes) == 0 {
		cacheSizes = []int{128 << 10, 256 << 10, 512 << 10, 1 << 20}
	}
	var cells []sweepCell
	for _, scheme := range []string{"star", "anubis"} {
		for _, size := range cacheSizes {
			c := r.crashCell("hash", scheme, fmt.Sprintf("meta-kb=%d", size>>10), r.opsFor(scheme), nil)
			c.cfg.MetaCache = cache.Config{SizeBytes: size, Ways: 8}
			cells = append(cells, c)
		}
	}
	reports, err := r.runCrashes(ctx, "fig14b", cells)
	if err != nil {
		return nil, err
	}
	var rows []Fig14bRow
	for si, size := range cacheSizes {
		star, anubis := reports[si], reports[len(cacheSizes)+si]
		rows = append(rows, Fig14bRow{
			MetaCacheBytes: size,
			StarSeconds:    star.TimeSeconds(),
			StaleNodes:     star.StaleNodes,
			AnubisSeconds:  anubis.TimeSeconds(),
		})
	}
	return rows, nil
}

// AblationIndex quantifies the multi-layer index (Section III-D): the
// same recovery with a flat scan of every L1 bitmap line in the RA.
// The indexed and flat cells of a workload share one unit — one base
// run forked twice — which is the decomposition's cleanest win: the
// ablation pair used to cost two identical workload runs.
func (r *Runner) AblationIndex(ctx context.Context) ([]AblationIndexRow, error) {
	recoverVia := func(flat bool) func(*sim.Machine) (*secmem.RecoveryReport, error) {
		return func(m *sim.Machine) (*secmem.RecoveryReport, error) {
			s := m.Engine().Scheme().(*star.Scheme)
			if flat {
				return s.RecoverFlatScan()
			}
			return s.Recover()
		}
	}
	workloads := r.workloadList()
	point := r.opsFor("star")
	var cells []sweepCell
	for _, name := range workloads {
		cells = append(cells,
			r.crashCell(name, "star", "indexed", point, recoverVia(false)),
			r.crashCell(name, "star", "flat", point, recoverVia(true)))
	}
	reports, err := r.runCrashes(ctx, "ablation-index", cells)
	if err != nil {
		return nil, err
	}
	var rows []AblationIndexRow
	for w, name := range workloads {
		rows = append(rows, AblationIndexRow{
			Workload:     name,
			IndexedReads: reports[w*2].IndexReads,
			FlatReads:    reports[w*2+1].IndexReads,
			IndexedSecs:  reports[w*2].TimeSeconds(),
			FlatSecs:     reports[w*2+1].TimeSeconds(),
		})
	}
	return rows, nil
}
