package experiments

// Run-once/fork-many decomposition of crash experiments. A crash cell
// used to be one monolithic unit: run the workload unverified, crash,
// recover — so K recovery variants of the same base run (Fig. 14b's
// cache-size points, the index ablation's indexed/flat pair, a
// multi-crash-point sweep) cost K full workload runs. Machine.Fork
// makes the base run shareable: one pooled machine executes the
// workload once per family, forks an O(occupied-pages) copy-on-write
// clone at every crash point, and crashes only the forks. Each fork
// then becomes its own schedulable recovery unit, so a family costs
// O(run + K·recover) instead of O(K·run) — a win that holds even on a
// single CPU, because it removes work rather than overlapping it. A
// family whose variants differ only below the memory controller
// (Fig. 14b's cache sizes) runs its base as a lock-step group, one
// back end per configuration, and Machine.ForkMember forks each
// variant's member out as a solo machine.
//
// Dispatch is two-phase through the ordinary LPT dispatcher: phase 1
// runs one base unit per family (producing the crashed forks), phase 2
// runs one unit per variant (driving recovery on its pre-made fork).
// Running the phases back-to-back rather than interleaved keeps the
// pool deadlock-free at WithParallelism(1): a variant unit never waits
// on a base unit that has no worker to run on. Every variant owns a
// fixed output slot and records under the same sweep/cell keys the
// monolithic path used, so rows, manifests and cell digests are
// bit-identical to running each variant on a fresh machine — the Fork
// and group invariants (sim.Machine.Fork, sim.NewGroup) plus the
// session-stepping equivalence (StepN to N ops ≡ one N-op run) carry
// the proof obligation, and TestFig14bForkDecompositionMatchesDirect
// pins it end to end.

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

// crashVariant is one recovery experiment riding on a shared base run:
// the cell identity it records under, the base-run member it forks,
// the operation count at which its fork is taken and crashed, and the
// recovery to drive on the fork.
type crashVariant struct {
	cell    Cell
	member  int // index into the family's cfgs
	point   int // ops executed before the fork is crashed
	recover func(*sim.Machine) (*secmem.RecoveryReport, error)
}

// crashFamily is one base run — fully resolved configurations (one, or
// a lock-step group's members) and a workload — with the recovery
// variants forked from it.
type crashFamily struct {
	cfgs     []sim.Config
	workload string
	variants []crashVariant
}

// runCrashFamilies executes the families over the pool and returns the
// recovery reports in variant order (families in order, each family's
// variants in order); a slot is nil if its variant failed or was
// canceled. Phase 1 steps each family's base machine through the
// workload in a session, forking its variant's member out as a solo
// machine and crashing it at every variant's point (ascending); the
// base machine itself is never crashed, so it returns
// to the worker's pool like any other machine — Reset on the next
// checkout rewinds it, and the copy-on-write forks stay valid
// regardless (TestMachinePoolPoisonedCheckout pins the pool side).
// Phase 2 recovers each fork on its own unit; forks cross goroutines
// between the phases, which is safe because a fork is used by exactly
// one goroutine after creation and shared COW pages are only ever read.
//
// Each variant's recorded wall time is its recovery wall plus an even
// share of its family's base run — wall is diagnostic, not part of the
// sealed digest identity.
func (r *Runner) runCrashFamilies(ctx context.Context, sweep string, families []crashFamily) ([]*secmem.RecoveryReport, error) {
	// Global variant slots, family-major.
	slots := make([][]int, len(families))
	total := 0
	for fi, f := range families {
		slots[fi] = make([]int, len(f.variants))
		for vi := range f.variants {
			slots[fi][vi] = total
			total++
		}
	}
	forks := make([]*sim.Machine, total)
	baseWall := make([]time.Duration, len(families))

	// Phase 1: one base unit per family, with one cell per member
	// labeled "base ..." (after the member's first variant) so the cost
	// model prices full runs separately from the (much cheaper)
	// recovery units of phase 2.
	baseUnits := make([]workUnit, len(families))
	for fi, f := range families {
		baseUnits[fi].slot = fi
		for i, cfg := range f.cfgs {
			label := "base"
			for _, v := range f.variants {
				if v.member == i {
					if v.cell.Label != "" {
						label = "base " + v.cell.Label
					}
					break
				}
			}
			baseUnits[fi].cells = append(baseUnits[fi].cells, Cell{Workload: f.workload, Scheme: cfg.Scheme, Label: label})
		}
	}
	err := r.dispatch(ctx, baseUnits, func(ctx context.Context, mp *machinePool, u workUnit) error {
		fi := u.slot
		f := families[fi]
		start := time.Now()
		fail := func(err error) error {
			wall := time.Since(start)
			for _, v := range f.variants {
				r.record(sweep, v.cell, wall/time.Duration(len(f.variants)), nil, err)
			}
			return err
		}
		m, err := mp.machine(f.cfgs...)
		if err != nil {
			return fail(err)
		}
		s, err := m.NewSession(f.workload)
		if err != nil {
			return fail(err)
		}
		// Fork order: ascending crash point, so the base steps each
		// segment exactly once; ties share the stepped-to state.
		order := make([]int, len(f.variants))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			return f.variants[order[a]].point < f.variants[order[b]].point
		})
		prev := 0
		for _, vi := range order {
			if err := ctx.Err(); err != nil {
				return fail(err)
			}
			if p := f.variants[vi].point; p > prev {
				if err := s.StepN(p - prev); err != nil {
					return fail(err)
				}
				prev = p
			}
			fk := m.ForkMember(f.variants[vi].member)
			fk.Crash()
			forks[slots[fi][vi]] = fk
		}
		baseWall[fi] = time.Since(start)
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Phase 2: one recovery unit per variant, on its pre-made fork.
	varUnits := make([]workUnit, 0, total)
	varFamily := make([]int, total)
	varIdx := make([]int, total)
	for fi, f := range families {
		for vi := range f.variants {
			slot := slots[fi][vi]
			varFamily[slot] = fi
			varIdx[slot] = vi
			varUnits = append(varUnits, workUnit{cells: []Cell{f.variants[vi].cell}, slot: slot})
		}
	}
	reports := make([]*secmem.RecoveryReport, total)
	err = r.dispatch(ctx, varUnits, func(ctx context.Context, _ *machinePool, u workUnit) error {
		f := families[varFamily[u.slot]]
		v := f.variants[varIdx[u.slot]]
		share := baseWall[varFamily[u.slot]] / time.Duration(len(f.variants))
		start := time.Now()
		rep, err := v.recover(forks[u.slot])
		wall := share + time.Since(start)
		if err != nil {
			r.record(sweep, v.cell, wall, nil, err)
			return err
		}
		r.record(sweep, v.cell, wall, rep, nil)
		reports[u.slot] = rep
		return nil
	})
	if err != nil {
		return nil, err
	}
	return reports, nil
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
	workloads := r.workloadList()
	var families []crashFamily
	type rowID struct {
		workload string
		scheme   string
		point    int
	}
	var ids []rowID
	for _, name := range workloads {
		for _, scheme := range schemes {
			points := r.crashPointsFor(r.opsFor(scheme))
			cfg := r.cfg()
			cfg.Scheme = scheme
			f := crashFamily{cfgs: []sim.Config{cfg}, workload: name}
			for _, p := range points {
				f.variants = append(f.variants, crashVariant{
					cell:    Cell{Workload: name, Scheme: scheme, Label: fmt.Sprintf("crash@%d", p)},
					point:   p,
					recover: (*sim.Machine).Recover,
				})
				ids = append(ids, rowID{workload: name, scheme: scheme, point: p})
			}
			families = append(families, f)
		}
	}
	reports, err := r.runCrashFamilies(ctx, "crash-points", families)
	if err != nil {
		return nil, err
	}
	rows := make([]CrashPointRow, len(reports))
	for i, rep := range reports {
		rows[i] = CrashPointRow{
			Workload:   ids[i].workload,
			Scheme:     ids[i].scheme,
			CrashOps:   ids[i].point,
			StaleNodes: rep.StaleNodes,
			Seconds:    rep.TimeSeconds(),
		}
	}
	return rows, nil
}

// Fig14b sweeps the metadata cache size and measures modeled recovery
// time for STAR and Anubis after a crash at the end of a hash run. The
// cache size changes only the memory controller, so each scheme is
// one crash family: a lock-step group with one back end per size,
// whose members are forked out and crashed at the end of the run, one
// recovery unit each.
func (r *Runner) Fig14b(ctx context.Context, cacheSizes []int) ([]Fig14bRow, error) {
	if len(cacheSizes) == 0 {
		cacheSizes = []int{128 << 10, 256 << 10, 512 << 10, 1 << 20}
	}
	var families []crashFamily
	for _, scheme := range []string{"star", "anubis"} {
		f := crashFamily{workload: "hash"}
		for i, size := range cacheSizes {
			cfg := r.cfg()
			cfg.Scheme = scheme
			cfg.MetaCache = cache.Config{SizeBytes: size, Ways: 8}
			f.cfgs = append(f.cfgs, cfg)
			f.variants = append(f.variants, crashVariant{
				cell:    Cell{Workload: "hash", Scheme: scheme, Label: fmt.Sprintf("meta-kb=%d", size>>10)},
				member:  i,
				point:   r.opsFor(scheme),
				recover: (*sim.Machine).Recover,
			})
		}
		families = append(families, f)
	}
	reports, err := r.runCrashFamilies(ctx, "fig14b", families)
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
// The indexed and flat variants of a workload share one crash family —
// one base run forked twice — which is the decomposition's cleanest
// win: the ablation pair used to cost two identical workload runs.
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
	var families []crashFamily
	for _, name := range workloads {
		cfg := r.cfg()
		cfg.Scheme = "star"
		point := r.opsFor("star")
		families = append(families, crashFamily{
			cfgs:     []sim.Config{cfg},
			workload: name,
			variants: []crashVariant{
				{cell: Cell{Workload: name, Scheme: "star", Label: "indexed"}, point: point, recover: recoverVia(false)},
				{cell: Cell{Workload: name, Scheme: "star", Label: "flat"}, point: point, recover: recoverVia(true)},
			},
		})
	}
	reports, err := r.runCrashFamilies(ctx, "ablation-index", families)
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
