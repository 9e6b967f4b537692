package experiments

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nvmstar/internal/cache"
	"nvmstar/internal/provenance"
	"nvmstar/internal/sim"
)

// fastRunner mirrors fastOpts as functional options, plus the given
// pool width.
func fastRunner(parallel int, extra ...Option) *Runner {
	opts := append([]Option{
		WithOps(1200),
		WithWorkloads("array", "queue"),
		WithConfig(func() sim.Config {
			cfg := sim.Default()
			cfg.Cores = 4
			cfg.DataBytes = 16 << 20
			cfg.L1 = cache.Config{SizeBytes: 8 << 10, Ways: 2}
			cfg.L2 = cache.Config{SizeBytes: 32 << 10, Ways: 8}
			cfg.L3 = cache.Config{SizeBytes: 128 << 10, Ways: 8}
			cfg.MetaCache = cache.Config{SizeBytes: 64 << 10, Ways: 8}
			return cfg
		}),
		WithParallelism(parallel),
	}, extra...)
	return NewRunner(opts...)
}

// cellLog is a result observer that keeps every observed cell's
// Results, keyed by cell.
type cellLog struct {
	mu  sync.Mutex
	res map[Cell]*sim.Results
}

func (l *cellLog) observe(c Cell, res *sim.Results) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.res == nil {
		l.res = map[Cell]*sim.Results{}
	}
	l.res[c] = res
}

// oneCellUnits wraps each cell in a unit of its own.
func oneCellUnits(cells []Cell) []workUnit {
	units := make([]workUnit, len(cells))
	for i, c := range cells {
		units[i] = workUnit{cells: []Cell{c}, idx: []int{i}}
	}
	return units
}

// TestRunnerDeterminism is the golden test of the machine-isolation
// invariant: a 4-worker sweep must produce bit-identical per-cell
// sim.Results to the sequential path, both for every observed cell and
// for every assembled figure.
func TestRunnerDeterminism(t *testing.T) {
	ctx := context.Background()
	var seqLog, parLog cellLog
	seq := fastRunner(1, WithResultObserver(seqLog.observe))
	par := fastRunner(4, WithResultObserver(parLog.observe))

	schemes := []string{"wb", "star", "anubis"}
	if _, err := seq.SchemeComparison(ctx, schemes); err != nil {
		t.Fatal(err)
	}
	if _, err := par.SchemeComparison(ctx, schemes); err != nil {
		t.Fatal(err)
	}
	if len(seqLog.res) != 6 || len(parLog.res) != 6 {
		t.Fatalf("observed %d sequential and %d parallel cells, want 6 each", len(seqLog.res), len(parLog.res))
	}
	for c, want := range seqLog.res {
		if got := parLog.res[c]; !reflect.DeepEqual(want, got) {
			t.Errorf("cell %v: parallel results differ from sequential:\nseq: %+v\npar: %+v", c, want, got)
		}
	}

	seqRows, err := seq.SchemeComparison(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	parRows, err := par.SchemeComparison(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seqRows, parRows) {
		t.Errorf("SchemeComparison differs:\nseq: %+v\npar: %+v", seqRows, parRows)
	}

	seq10, err := seq.Fig10(ctx)
	if err != nil {
		t.Fatal(err)
	}
	par10, err := par.Fig10(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq10, par10) {
		t.Errorf("Fig10 differs:\nseq: %+v\npar: %+v", seq10, par10)
	}

	seqT2, err := seq.Table2(ctx, []int{2, 8})
	if err != nil {
		t.Fatal(err)
	}
	parT2, err := par.Table2(ctx, []int{2, 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seqT2, parT2) {
		t.Errorf("Table2 differs:\nseq: %+v\npar: %+v", seqT2, parT2)
	}
}

// TestRunnerMachineReuseMatchesFresh pins the machine pool against the
// ground truth the pool is supposed to be invisible relative to: for
// every cell of a sweep that forces heavy per-worker reuse (many cells,
// few distinct configurations, 2 workers), a machine built from scratch
// for exactly that cell must produce bit-identical Results — and,
// since the provenance layer leans on exactly this invariant, a
// byte-identical canonical-JSON cell digest.
func TestRunnerMachineReuseMatchesFresh(t *testing.T) {
	ctx := context.Background()
	collector := provenance.NewCollector()
	var log cellLog
	r := fastRunner(2, WithCollector(collector), WithResultObserver(log.observe))
	if _, err := r.SchemeComparison(ctx, []string{"wb", "star", "strict"}); err != nil {
		t.Fatal(err)
	}
	if len(log.res) != 6 {
		t.Fatalf("observed %d cells, want 6", len(log.res))
	}
	digests := map[string]string{}
	for _, rec := range collector.Cells() {
		digests[rec.Key()] = rec.Digest
	}
	for c, pooled := range log.res {
		cfg := fastRunner(1).cfg()
		cfg.Scheme = c.Scheme
		cfg.Seed += uint64(c.Seed) * 7919
		m, err := sim.NewMachine(cfg)
		if err != nil {
			t.Fatalf("cell %v: fresh machine: %v", c, err)
		}
		want, err := m.Run(c.Workload, r.opsFor(c.Scheme))
		if err != nil {
			t.Fatalf("cell %v: fresh run: %v", c, err)
		}
		if !reflect.DeepEqual(want, pooled) {
			t.Errorf("cell %v: pooled results differ from a fresh machine:\nfresh  %+v\npooled %+v",
				c, want, pooled)
		}
		freshDigest, err := provenance.Digest(want)
		if err != nil {
			t.Fatalf("cell %v: digest: %v", c, err)
		}
		key := provenance.CellRecord{Sweep: "scheme-comparison", Workload: c.Workload,
			Scheme: c.Scheme, Seed: c.Seed, Label: c.Label}.Key()
		if got, ok := digests[key]; !ok || got != freshDigest {
			t.Errorf("cell %v: pooled digest %q != fresh digest %q (reuse leaks into provenance)",
				c, got, freshDigest)
		}
	}
}

// TestRunnerLanesAcrossSweeps pins the runner's lane machines: five
// sweeps on one two-lane runner build at most two machines, each
// lane's machine being retargeted across schemes, lock-step group
// sizes and metadata-cache sizes from sweep to sweep, and every cell
// records the digest a fresh runner records for it.
func TestRunnerLanesAcrossSweeps(t *testing.T) {
	ctx := context.Background()
	sweeps := []func(*Runner) error{
		func(r *Runner) error { _, err := r.Fig10(ctx); return err },
		func(r *Runner) error { _, err := r.SchemeComparison(ctx, nil); return err },
		func(r *Runner) error { _, err := r.Table2(ctx, []int{2, 4}); return err },
		func(r *Runner) error { _, err := r.Fig14b(ctx, []int{32 << 10, 128 << 10}); return err },
		func(r *Runner) error { _, err := r.AblationIndex(ctx); return err },
	}
	coll := provenance.NewCollector()
	r := fastRunner(2, WithOps(600), WithCollector(coll))
	want := map[string]string{}
	for _, sweep := range sweeps {
		if err := sweep(r); err != nil {
			t.Fatal(err)
		}
		fresh := provenance.NewCollector()
		if err := sweep(fastRunner(2, WithOps(600), WithCollector(fresh))); err != nil {
			t.Fatal(err)
		}
		for _, rec := range fresh.Cells() {
			want[rec.Key()] = rec.Digest
		}
	}
	if s := r.Snapshot(); s.MachinesBuilt > 2 {
		t.Errorf("five sweeps on two lanes built %d machines, want at most 2 (%d reused)", s.MachinesBuilt, s.MachinesReused)
	}
	cells := coll.Cells()
	if len(cells) != len(want) {
		t.Fatalf("recorded %d cells, a fresh runner per sweep %d", len(cells), len(want))
	}
	for _, rec := range cells {
		if rec.Err != "" {
			t.Fatalf("%s: %s", rec.Key(), rec.Err)
		}
		if rec.Digest != want[rec.Key()] {
			t.Errorf("%s: digest %.16s, fresh runner %.16s", rec.Key(), rec.Digest, want[rec.Key()])
		}
	}
}

// TestRunSweepFinalStats checks the Stats path: after a completed
// sweep, Snapshot must report the sweep's accounting.
func TestRunSweepFinalStats(t *testing.T) {
	r := fastRunner(2, WithWorkloads("array"))
	rows, err := r.Fig10(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rows))
	}
	const cells = 2 // array under wb and star
	s := r.Snapshot()
	if s.CellsDone != cells || s.CellsTotal != cells {
		t.Fatalf("final stats miscount cells: %+v", s)
	}
	if s.MachinesBuilt+s.MachinesReused != cells {
		t.Fatalf("pool accounting does not cover every cell: %+v", s)
	}
	if r.WallTime() <= 0 {
		t.Fatalf("wall time not tracked: runner %v", r.WallTime())
	}
}

// TestRunnerManifestDeterministic runs the same mixed sweep set twice
// — once sequentially, once on a 4-wide pool — and requires identical
// manifests modulo environment/wall noise: same cells, same digests,
// same sealed manifest digest.
func TestRunnerManifestDeterministic(t *testing.T) {
	ctx := context.Background()
	build := func(parallel int) *provenance.Manifest {
		c := provenance.NewCollector()
		r := fastRunner(parallel, WithCollector(c))
		if _, err := r.Fig10(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Fig14a(ctx); err != nil {
			t.Fatal(err)
		}
		m, err := r.BuildManifest("test-rev")
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	seq, par := build(1), build(4)
	if err := seq.Verify(); err != nil {
		t.Fatal(err)
	}
	if len(seq.Cells) == 0 || len(seq.Cells) != len(par.Cells) {
		t.Fatalf("cell counts differ: %d vs %d", len(seq.Cells), len(par.Cells))
	}
	for i := range seq.Cells {
		if seq.Cells[i].Key() != par.Cells[i].Key() || seq.Cells[i].Digest != par.Cells[i].Digest {
			t.Fatalf("cell %d differs across pool widths:\nseq %+v\npar %+v",
				i, seq.Cells[i], par.Cells[i])
		}
	}
	if seq.Digest != par.Digest {
		t.Fatalf("manifest digests differ across pool widths: %s vs %s", seq.Digest, par.Digest)
	}
	if seq.Config.Fingerprint == "" || seq.Env.GitRev != "test-rev" {
		t.Fatalf("manifest misses provenance fields: %+v", seq)
	}
	if seq.SimTimeNs <= 0 {
		t.Fatalf("simulated time not aggregated: %+v", seq.SimTimeNs)
	}
}

// TestBuildManifestRequiresCollector pins the error path.
func TestBuildManifestRequiresCollector(t *testing.T) {
	if _, err := fastRunner(1).BuildManifest(""); err == nil {
		t.Fatal("BuildManifest without a collector must fail")
	}
}

func TestRunnerCancellationMidSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var log cellLog
	r := fastRunner(2, WithResultObserver(log.observe), WithProgress(func(p Progress) {
		if p.Done == 1 {
			cancel() // abort as soon as the first cell lands
		}
	}))
	const cells = 8 // 2 workloads x 4 schemes
	start := time.Now()
	if _, err := r.SchemeComparison(ctx, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	completed := len(log.res)
	if completed == cells {
		t.Fatal("cancellation did not stop the sweep: every cell completed")
	}
	t.Logf("canceled after %d/%d cells in %v", completed, cells, time.Since(start))

	// A pre-canceled context runs nothing.
	dead, deadCancel := context.WithCancel(context.Background())
	deadCancel()
	var deadLog cellLog
	r = fastRunner(2, WithResultObserver(deadLog.observe))
	if _, err := r.SchemeComparison(dead, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled err = %v", err)
	}
	if len(deadLog.res) != 0 || r.Snapshot().CellsDone != 0 {
		t.Fatalf("pre-canceled context still ran cells: %v", deadLog.res)
	}
}

func TestRunnerCancellationAbortsFigures(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := fastRunner(2)
	if _, err := r.SchemeComparison(ctx, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("SchemeComparison err = %v", err)
	}
	if _, err := r.Fig14b(ctx, []int{32 << 10}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Fig14b err = %v", err)
	}
}

// TestRunnerPoolBounding drives the pool with instrumented jobs and
// asserts concurrency never exceeds the configured width.
func TestRunnerPoolBounding(t *testing.T) {
	const width = 4
	r := NewRunner(WithParallelism(width))
	var cur, peak int64
	err := r.dispatch(context.Background(), oneCellUnits(make([]Cell, 32)), func(context.Context, *machinePool, workUnit) ([]time.Duration, error) {
		n := atomic.AddInt64(&cur, 1)
		for {
			p := atomic.LoadInt64(&peak)
			if n <= p || atomic.CompareAndSwapInt64(&peak, p, n) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		atomic.AddInt64(&cur, -1)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt64(&peak); got > width {
		t.Fatalf("pool ran %d jobs concurrently, bound is %d", got, width)
	} else {
		t.Logf("peak concurrency %d (bound %d)", got, width)
	}
}

func TestRunnerProgress(t *testing.T) {
	var events []Progress
	r := fastRunner(2, WithWorkloads("array"), WithProgress(func(p Progress) { events = append(events, p) }))
	if _, err := r.Fig10(context.Background()); err != nil {
		t.Fatal(err)
	}
	const cells = 2 // array under wb and star
	if len(events) != cells {
		t.Fatalf("progress events = %d, want %d", len(events), cells)
	}
	for i, p := range events {
		if p.Done != i+1 || p.Total != cells {
			t.Fatalf("event %d = %d/%d, want %d/%d", i, p.Done, p.Total, i+1, cells)
		}
		if p.CellWall <= 0 || p.Elapsed <= 0 {
			t.Fatalf("event %d has zero timing: %+v", i, p)
		}
		if p.Done == p.Total && p.ETA != 0 {
			t.Fatalf("final event has nonzero ETA: %+v", p)
		}
	}
}

// TestRunnerSpeedup times the same sweep sequentially and with a
// 4-wide pool and logs the ratio. The speedup assertion only makes
// sense with real parallel hardware, so it is logged (and checked
// loosely) rather than hard-asserted on small machines.
func TestRunnerSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison skipped in -short")
	}
	ctx := context.Background()
	run := func(parallel int) time.Duration {
		r := fastRunner(parallel, WithWorkloads("array", "queue", "hash"))
		start := time.Now()
		if _, err := r.SchemeComparison(ctx, nil); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	run(1) // warm caches so the comparison is fair
	seq := run(1)
	par := run(4)
	t.Logf("sequential %v, 4-worker %v, speedup %.2fx (GOMAXPROCS-visible CPUs matter)",
		seq, par, float64(seq)/float64(par))
	if par > seq*3 {
		t.Errorf("parallel sweep pathologically slower: seq %v, par %v", seq, par)
	}
}

// TestProgressCountsRecordedCells runs every figure sweep and a
// two-point crash-point sweep on one small runner. Each sweep's
// progress stream must be exactly the cells it records: as many events
// as collector records and completed cells, a final Total equal to
// both, and no cell that stands for anything but a recorded result.
func TestProgressCountsRecordedCells(t *testing.T) {
	ctx := context.Background()
	coll := provenance.NewCollector()
	var events []Progress
	r := fastRunner(2, WithWorkloads("queue"), WithCrashPoints(400, 800), WithCollector(coll),
		WithProgress(func(p Progress) { events = append(events, p) }))
	sweeps := []struct {
		name string
		run  func() error
	}{
		{"fig10", func() error { _, err := r.Fig10(ctx); return err }},
		{"scheme-comparison", func() error { _, err := r.SchemeComparison(ctx, nil); return err }},
		{"table2", func() error { _, err := r.Table2(ctx, []int{2, 16}); return err }},
		{"fig14a", func() error { _, err := r.Fig14a(ctx); return err }},
		{"fig14b", func() error { _, err := r.Fig14b(ctx, []int{32 << 10, 128 << 10}); return err }},
		{"ablation-index", func() error { _, err := r.AblationIndex(ctx); return err }},
		{"crash-points", func() error { _, err := r.CrashPoints(ctx, nil); return err }},
	}
	for _, sw := range sweeps {
		events = events[:0]
		recorded, done := coll.Len(), r.Snapshot().CellsDone
		if err := sw.run(); err != nil {
			t.Fatalf("%s: %v", sw.name, err)
		}
		recorded, done = coll.Len()-recorded, r.Snapshot().CellsDone-done
		total := 0
		if len(events) > 0 {
			total = events[len(events)-1].Total
		}
		if recorded == 0 || len(events) != recorded || int64(recorded) != done || total != recorded {
			t.Errorf("%s: %d progress events, %d recorded cells, %d cells done, final Total %d; want all equal",
				sw.name, len(events), recorded, done, total)
		}
		for _, p := range events {
			if strings.HasPrefix(p.Cell.Label, "base") {
				t.Errorf("%s: progress reports pseudo-cell %q", sw.name, p.Cell.name())
			}
		}
	}
	if s := r.Snapshot(); s.CellsDone != int64(coll.Len()) || s.CellsTotal != s.CellsDone {
		t.Errorf("runner completed %d of %d cells and recorded %d", s.CellsDone, s.CellsTotal, coll.Len())
	}
}
