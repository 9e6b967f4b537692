package experiments

// Run-once/fork-many decomposition of crash experiments. A crash cell
// used to be one monolithic unit: run the workload unverified, crash,
// recover — so K recovery variants of the same base run (Fig. 14b's
// cache-size points, the index ablation's indexed/flat pair, a
// multi-crash-point sweep) cost K full workload runs. Machine.Fork
// makes the base run shareable: one pooled machine executes the
// workload once per family, forks an O(occupied-pages) copy-on-write
// clone at every crash point, and crashes and recovers only the forks,
// so a family costs O(run + K·recover) instead of O(K·run) — a win
// that holds even on a single CPU, because it removes work rather than
// overlapping it. A family whose variants differ only below the memory
// controller (Fig. 14b's cache sizes) runs its base as a lock-step
// group, one back end per configuration, and Machine.ForkMember forks
// each variant's member out as a solo machine.
//
// A family is one unit of the ordinary LPT dispatch, and its cells are
// exactly its variants. Every variant records under the same
// sweep/cell keys the monolithic path used, so rows, manifests and
// cell digests are bit-identical to running each variant on a fresh
// machine — the Fork and group invariants (sim.Machine.Fork,
// sim.NewGroup) plus the session-stepping equivalence (StepN to N ops
// ≡ one N-op run) carry the proof obligation, and
// TestFig14bForkDecompositionMatchesDirect pins it end to end.

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

// runCrashFamilies executes the families over the pool, one unit per
// family, and returns the recovery reports in variant order (families
// in order, each family's variants in order). A unit steps its base
// machine through the workload in a session; at each variant's point
// (ascending) it forks the variant's member out as a solo machine,
// crashes the fork, recovers it at once and records it. The base
// machine itself is never crashed, so it returns to the worker's pool
// like any other machine — Reset on the next checkout rewinds it
// (TestMachinePoolPoisonedCheckout pins the pool side).
//
// A variant's wall is its own fork, crash and recovery; the base run
// the family shares is in no variant's wall, as in the crash-recover
// benchmark's per-crash timing. If the unit fails, its unrecorded
// variants record the error.
func (r *Runner) runCrashFamilies(ctx context.Context, sweep string, families []crashFamily) ([]*secmem.RecoveryReport, error) {
	units := make([]workUnit, len(families))
	first := make([]int, len(families)) // families[fi]'s first report slot
	total := 0
	for fi, f := range families {
		units[fi].slot = fi
		for _, v := range f.variants {
			units[fi].cells = append(units[fi].cells, v.cell)
		}
		first[fi] = total
		total += len(f.variants)
	}
	reports := make([]*secmem.RecoveryReport, total)
	err := r.dispatch(ctx, units, func(ctx context.Context, mp *machinePool, u workUnit) ([]time.Duration, error) {
		f := families[u.slot]
		walls := make([]time.Duration, len(f.variants))
		// Fork order: ascending crash point, so the base steps each
		// segment exactly once; ties share the stepped-to state.
		order := make([]int, len(f.variants))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			return f.variants[order[a]].point < f.variants[order[b]].point
		})
		done := 0
		fail := func(err error) ([]time.Duration, error) {
			for _, vi := range order[done:] {
				r.record(sweep, f.variants[vi].cell, walls[vi], nil, err)
			}
			return walls, err
		}
		m, err := mp.machine(f.cfgs...)
		if err != nil {
			return fail(err)
		}
		s, err := m.NewSession(f.workload)
		if err != nil {
			return fail(err)
		}
		prev := 0
		for _, vi := range order {
			v := f.variants[vi]
			if err := ctx.Err(); err != nil {
				return fail(err)
			}
			if v.point > prev {
				if err := s.StepN(v.point - prev); err != nil {
					return fail(err)
				}
				prev = v.point
			}
			start := time.Now()
			fk := m.ForkMember(v.member)
			fk.Crash()
			rep, err := v.recover(fk)
			walls[vi] = time.Since(start)
			if err != nil {
				return fail(err)
			}
			r.record(sweep, v.cell, walls[vi], rep, nil)
			reports[first[u.slot]+vi] = rep
			done++
		}
		return walls, nil
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
// whose members are forked out, crashed and recovered at the end of
// the run.
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
