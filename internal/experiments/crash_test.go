package experiments

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"nvmstar/internal/bitmap"
	"nvmstar/internal/cache"
	"nvmstar/internal/provenance"
	"nvmstar/internal/secmem"
	"nvmstar/internal/sim"
)

// TestMachinePoolPoisonedCheckout pins the pool's safety argument:
// a unit that leaves its machine in the worst states a crash-family
// sweep can produce — crashed without recovery, or forked with live
// COW children — returns it to the pool as-is, and the next checkout
// must still behave exactly like a fresh machine, because machine()
// runs ResetTo on every reuse — also when it retargets the machine to
// another scheme.
func TestMachinePoolPoisonedCheckout(t *testing.T) {
	cfg := fastRunner(1).cfg()
	cfg.Scheme = "star"
	const ops = 600

	fresh, err := sim.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Run("array", ops)
	if err != nil {
		t.Fatal(err)
	}

	mp := &machinePool{}
	m, err := mp.machine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Poison 1: crash mid-run and never recover (an errored crash unit
	// abandons its machine in exactly this state).
	if _, err := m.RunUnverified("hash", ops/2); err != nil {
		t.Fatal(err)
	}
	m.Crash()

	m2, err := mp.machine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m2 != m {
		t.Fatal("pool built a new machine instead of recycling the poisoned one")
	}
	got, err := m2.Run("array", ops)
	if err != nil {
		t.Fatalf("checkout after crash-without-recovery: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("crashed machine not fully rewound by checkout Reset:\nfresh %+v\npool  %+v", want, got)
	}

	// Poison 2: fork and keep the child alive across the next checkout;
	// the recycled parent must still match fresh, and the child's
	// recovery must be untouched by the parent's reuse.
	child := m2.Fork()
	child.Crash()
	m3, err := mp.machine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m3 != m2 {
		t.Fatal("pool built a new machine instead of recycling the forked one")
	}
	got, err = m3.Run("array", ops)
	if err != nil {
		t.Fatalf("checkout after fork: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("forked machine not fully rewound by checkout Reset:\nfresh %+v\npool  %+v", want, got)
	}
	if rep, err := child.Recover(); err != nil || !rep.Verified {
		t.Fatalf("live fork broken by parent's pooled reuse: rep=%+v err=%v", rep, err)
	}

	// Poison 3: crash mid-run again, then check the machine out for
	// another scheme: the checkout retargets the poisoned machine, and
	// it must run exactly as a fresh machine of that scheme.
	if _, err := m3.RunUnverified("hash", ops/2); err != nil {
		t.Fatal(err)
	}
	m3.Crash()
	acfg := cfg
	acfg.Scheme = "anubis"
	freshA, err := sim.NewMachine(acfg)
	if err != nil {
		t.Fatal(err)
	}
	wantA, err := freshA.Run("array", ops)
	if err != nil {
		t.Fatal(err)
	}
	m4, err := mp.machine(acfg)
	if err != nil {
		t.Fatal(err)
	}
	if m4 != m3 {
		t.Fatal("pool built a new machine instead of retargeting the poisoned one")
	}
	got, err = m4.Run("array", ops)
	if err != nil {
		t.Fatalf("checkout retargeted to anubis: %v", err)
	}
	if !reflect.DeepEqual(wantA, got) {
		t.Errorf("crashed machine not fully retargeted by checkout ResetTo:\nfresh %+v\npool  %+v", wantA, got)
	}
}

// directCrashReport is the monolithic path the fork decomposition
// replaced: a fresh machine, one unverified run to ops, crash, recover.
// The decomposed sweeps must reproduce its reports bit for bit.
func directCrashReport(t *testing.T, cfg sim.Config, workload string, ops int) any {
	t.Helper()
	m, err := sim.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunUnverified(workload, ops); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	rep, err := m.Recover()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestFig14bForkDecompositionMatchesDirect pins the decomposition's
// end-to-end invariant at the manifest layer: every cell digest the
// fork-based Fig14b records must equal the digest of the same cell run
// monolithically on a fresh machine.
func TestFig14bForkDecompositionMatchesDirect(t *testing.T) {
	sizes := []int{32 << 10, 128 << 10}
	collector := provenance.NewCollector()
	r := fastRunner(2, WithCollector(collector))
	if _, err := r.Fig14b(context.Background(), sizes); err != nil {
		t.Fatal(err)
	}
	digests := map[string]string{}
	for _, rec := range collector.Cells() {
		digests[rec.Key()] = rec.Digest
	}
	for _, size := range sizes {
		for _, scheme := range []string{"star", "anubis"} {
			cfg := fastRunner(1).cfg()
			cfg.Scheme = scheme
			cfg.MetaCache = cache.Config{SizeBytes: size, Ways: 8}
			rep := directCrashReport(t, cfg, "hash", r.opsFor(scheme))
			want, err := provenance.Digest(rep)
			if err != nil {
				t.Fatal(err)
			}
			key := provenance.CellRecord{Sweep: "fig14b", Workload: "hash",
				Scheme: scheme, Label: fmt.Sprintf("meta-kb=%d", size>>10)}.Key()
			if got, ok := digests[key]; !ok {
				t.Errorf("%s: no recorded cell for %s", scheme, key)
			} else if got != want {
				t.Errorf("%s meta=%d: forked cell digest %q != direct digest %q", scheme, size, got, want)
			}
		}
	}
}

// TestTable2LockStepMatchesDirect pins Table II's lock-step units at
// the manifest layer: the rows and every recorded cell digest must
// equal those of one sim.RunScenario per (workload, ADR point).
func TestTable2LockStepMatchesDirect(t *testing.T) {
	points := []int{2, 4, 16, 32}
	collector := provenance.NewCollector()
	r := fastRunner(2, WithCollector(collector))
	rows, err := r.Table2(context.Background(), points)
	if err != nil {
		t.Fatal(err)
	}
	if s := r.Snapshot(); s.MachinesBuilt+s.MachinesReused != int64(len(r.workloadList())) {
		t.Errorf("Table II used %d machine checkouts, want one lock-step group per workload", s.MachinesBuilt+s.MachinesReused)
	}
	digests := map[string]string{}
	for _, rec := range collector.Cells() {
		digests[rec.Key()] = rec.Digest
	}
	var want []Table2Row
	for _, lines := range points {
		row := Table2Row{ADRLines: lines, PerWorkload: map[string]float64{}}
		var sum float64
		for _, name := range r.workloadList() {
			cfg := r.cfg()
			cfg.Scheme = "star"
			if cfg.Bitmap, err = bitmap.SplitADR(lines); err != nil {
				t.Fatal(err)
			}
			res, _, err := sim.RunScenario(cfg, name, r.opsFor("star"))
			if err != nil {
				t.Fatal(err)
			}
			row.PerWorkload[name] = res.Bitmap.HitRatio()
			sum += res.Bitmap.HitRatio()
			d, err := provenance.Digest(res)
			if err != nil {
				t.Fatal(err)
			}
			key := provenance.CellRecord{Sweep: "table2", Workload: name,
				Scheme: "star", Label: fmt.Sprintf("adr=%d", lines)}.Key()
			if got, ok := digests[key]; !ok {
				t.Errorf("no recorded cell for %s", key)
			} else if got != d {
				t.Errorf("%s: lock-step cell digest %.16s != direct digest %.16s", key, got, d)
			}
		}
		row.HitRatio = sum / float64(len(r.workloadList()))
		want = append(want, row)
	}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("Table II rows differ from direct runs:\nlock-step %+v\ndirect    %+v", rows, want)
	}
}

// TestTable2AveragesSeeds pins Table II on the measured path: at
// WithSeeds(2) every (workload, ADR point) is the Accumulate/DivideBy
// mean of two direct runs, at seed offsets 0 and 7919, as in Figs.
// 10–13 and 14a.
func TestTable2AveragesSeeds(t *testing.T) {
	points := []int{2, 16}
	r := fastRunner(2, WithSeeds(2))
	rows, err := r.Table2(context.Background(), points)
	if err != nil {
		t.Fatal(err)
	}
	var want []Table2Row
	for _, lines := range points {
		row := Table2Row{ADRLines: lines, PerWorkload: map[string]float64{}}
		var sum float64
		for _, name := range r.workloadList() {
			var mean *sim.Results
			for s := 0; s < 2; s++ {
				cfg := r.cfg()
				cfg.Scheme = "star"
				cfg.Seed += uint64(s) * 7919
				if cfg.Bitmap, err = bitmap.SplitADR(lines); err != nil {
					t.Fatal(err)
				}
				res, _, err := sim.RunScenario(cfg, name, r.opsFor("star"))
				if err != nil {
					t.Fatal(err)
				}
				if mean == nil {
					mean = res
				} else {
					mean.Accumulate(res)
				}
			}
			mean.DivideBy(2)
			row.PerWorkload[name] = mean.Bitmap.HitRatio()
			sum += mean.Bitmap.HitRatio()
		}
		row.HitRatio = sum / float64(len(r.workloadList()))
		want = append(want, row)
	}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("Table II rows differ from the two-seed mean of direct runs:\ngot  %+v\nwant %+v", rows, want)
	}
}

// TestCrashPointsSweep drives the WithCrashPoints axis: rows come back
// in deterministic order, identical at every pool width, and each
// mid-run cell digest matches a fresh machine stepped to the same
// point and crashed there.
func TestCrashPointsSweep(t *testing.T) {
	points := []int{400, 800}
	opts := []Option{WithWorkloads("queue"), WithCrashPoints(points...)}
	ctx := context.Background()

	collector := provenance.NewCollector()
	seq := fastRunner(1, append(opts, WithCollector(collector))...)
	seqRows, err := seq.CrashPoints(ctx, []string{"star"})
	if err != nil {
		t.Fatal(err)
	}
	parRows, err := fastRunner(4, opts...).CrashPoints(ctx, []string{"star"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seqRows, parRows) {
		t.Errorf("crash-point rows differ across pool widths:\nseq %+v\npar %+v", seqRows, parRows)
	}
	if len(seqRows) != len(points) {
		t.Fatalf("rows = %d, want %d", len(seqRows), len(points))
	}
	digests := map[string]string{}
	for _, rec := range collector.Cells() {
		digests[rec.Key()] = rec.Digest
	}
	for i, row := range seqRows {
		if row.Workload != "queue" || row.Scheme != "star" || row.CrashOps != points[i] {
			t.Fatalf("row %d misordered: %+v", i, row)
		}
		if row.Seconds <= 0 {
			t.Fatalf("row %d has zero recovery time: %+v", i, row)
		}
		// Direct equivalent: a fresh machine stepped to the crash point.
		cfg := fastRunner(1).cfg()
		cfg.Scheme = "star"
		m, err := sim.NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s, err := m.NewSession("queue")
		if err != nil {
			t.Fatal(err)
		}
		if err := s.StepN(points[i]); err != nil {
			t.Fatal(err)
		}
		m.Crash()
		rep, err := m.Recover()
		if err != nil {
			t.Fatal(err)
		}
		want, err := provenance.Digest(rep)
		if err != nil {
			t.Fatal(err)
		}
		key := provenance.CellRecord{Sweep: "crash-points", Workload: "queue",
			Scheme: "star", Label: fmt.Sprintf("crash@%d", points[i])}.Key()
		if got, ok := digests[key]; !ok {
			t.Errorf("no recorded cell for %s", key)
		} else if got != want {
			t.Errorf("crash@%d: forked cell digest %q != direct digest %q", points[i], got, want)
		}
	}
}

// TestCrashPointsNormalization pins crashPointsFor: unsorted,
// duplicated, out-of-range axes normalize to sorted unique in-range
// points, and an empty axis means one end-of-run crash.
func TestCrashPointsNormalization(t *testing.T) {
	r := fastRunner(1, WithCrashPoints(900, -3, 400, 400, 99999, 0))
	if got, want := r.crashPointsFor(1200), []int{400, 900, 1200}; !reflect.DeepEqual(got, want) {
		t.Errorf("crashPointsFor = %v, want %v", got, want)
	}
	if got, want := fastRunner(1).crashPointsFor(1200), []int{1200}; !reflect.DeepEqual(got, want) {
		t.Errorf("default crashPointsFor = %v, want %v", got, want)
	}
	if got, want := fastRunner(1, WithCrashPoints(-1)).crashPointsFor(500), []int{500}; !reflect.DeepEqual(got, want) {
		t.Errorf("all-invalid crashPointsFor = %v, want %v", got, want)
	}
}

// TestAblationIndexSharesBaseRuns asserts the decomposition actually
// shares base runs: the indexed/flat pair of each workload must cost
// one workload run (one machine checkout), not two.
func TestAblationIndexSharesBaseRuns(t *testing.T) {
	r := fastRunner(2, WithWorkloads("array", "queue"))
	if _, err := r.AblationIndex(context.Background()); err != nil {
		t.Fatal(err)
	}
	s := r.Snapshot()
	if checkouts := s.MachinesBuilt + s.MachinesReused; checkouts != 2 {
		t.Errorf("ablation used %d machine checkouts for 2 workloads, want 2 (one base run each)", checkouts)
	}
}

// TestCrashUnitHonoursCancellation pins that a crash unit's base run
// polls the runner's context: canceled while the base steps from its
// first crash point toward its last, the unit stops there, and the
// last cell records context.Canceled instead of a recovery.
func TestCrashUnitHonoursCancellation(t *testing.T) {
	const last = 400000 // far more steps than the cancellation delay covers
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	collector := provenance.NewCollector()
	r := fastRunner(1, WithCollector(collector))
	// The timer fires after the unit has passed its between-cells check
	// and is stepping the base toward the last point.
	first := r.crashCell("queue", "star", "first", 100, func(m *sim.Machine) (*secmem.RecoveryReport, error) {
		time.AfterFunc(50*time.Millisecond, cancel)
		return m.Recover()
	})
	start := time.Now()
	_, err := r.runCrashes(ctx, "cancel", []sweepCell{first, r.crashCell("queue", "star", "last", last, nil)})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	errs := map[string]string{}
	for _, rec := range collector.Cells() {
		errs[rec.Label] = rec.Err
	}
	if errs["first"] != "" {
		t.Errorf("first cell recorded %q, want its recovery", errs["first"])
	}
	if errs["last"] != context.Canceled.Error() {
		t.Errorf("last cell recorded err %q, want %q", errs["last"], context.Canceled)
	}
	t.Logf("canceled unit returned after %v", time.Since(start))
}
