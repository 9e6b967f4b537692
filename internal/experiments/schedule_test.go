package experiments

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nvmstar/internal/provenance"
	"nvmstar/internal/sim"
)

// TestDispatcherLPTOrder pins the dispatch policy: units go out in
// descending cost order, ties resolved to the earliest-queued unit.
func TestDispatcherLPTOrder(t *testing.T) {
	got := lptOrder([]float64{3, 9, 1, 9, 5})
	want := []int{1, 3, 4, 0, 2} // 9 (idx 1 beats idx 3), 9, 5, 3, 1
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("dispatch order = %v, want %v", got, want)
	}
}

// TestStaticCostRanksStrictHeaviest makes sure the a-priori weights
// send strict-scheme units to the front of the queue even though
// strict cells run ops/4: that cell is still the sweep's heaviest.
func TestStaticCostRanksStrictHeaviest(t *testing.T) {
	r := fastRunner(1)
	strict := r.staticCost(Cell{Workload: "hash", Scheme: "strict"})
	for _, s := range []string{"wb", "star", "anubis", "unknown"} {
		if c := r.staticCost(Cell{Workload: "hash", Scheme: s}); c >= strict {
			t.Fatalf("staticCost(%s) = %v >= staticCost(strict) = %v", s, c, strict)
		}
	}
}

// TestRunnerWidthSweepDeterminism is the tentpole's safety harness:
// with seed-split scheduling, every figure's rows and the sealed
// provenance manifest digest must be bit-identical at pool widths
// 1, 2, 4 and 8 with multi-seed averaging.
func TestRunnerWidthSweepDeterminism(t *testing.T) {
	ctx := context.Background()
	type outcome struct {
		scheme []SchemeRow
		fig10  []Fig10Row
		digest string
	}
	run := func(width int) outcome {
		c := provenance.NewCollector()
		r := fastRunner(width, WithSeeds(3), WithCollector(c))
		rows, err := r.SchemeComparison(ctx, nil)
		if err != nil {
			t.Fatal(err)
		}
		f10, err := r.Fig10(ctx)
		if err != nil {
			t.Fatal(err)
		}
		m, err := r.BuildManifest("width-sweep")
		if err != nil {
			t.Fatal(err)
		}
		return outcome{scheme: rows, fig10: f10, digest: m.Digest}
	}
	base := run(1)
	if base.digest == "" {
		t.Fatal("sequential manifest has no digest")
	}
	for _, width := range []int{2, 4, 8} {
		got := run(width)
		if !reflect.DeepEqual(base.scheme, got.scheme) {
			t.Errorf("width %d: SchemeComparison differs from sequential:\nseq %+v\ngot %+v",
				width, base.scheme, got.scheme)
		}
		if !reflect.DeepEqual(base.fig10, got.fig10) {
			t.Errorf("width %d: Fig10 differs from sequential:\nseq %+v\ngot %+v",
				width, base.fig10, got.fig10)
		}
		if got.digest != base.digest {
			t.Errorf("width %d: manifest digest %s != sequential %s", width, got.digest, base.digest)
		}
	}
}

// TestRunnerSeedSplitMatchesSequentialLoop pins the deterministic
// merge against ground truth: a cell averaged from seed units spread
// across the pool must equal a hand-rolled sequential loop that runs
// each seed on a fresh machine and folds them in ascending order.
func TestRunnerSeedSplitMatchesSequentialLoop(t *testing.T) {
	const seeds = 3
	r := fastRunner(4, WithSeeds(seeds))
	cells := []Cell{
		{Workload: "array", Scheme: "star"},
		{Workload: "queue", Scheme: "wb"},
	}
	got, err := r.runCellsAveraged(context.Background(), "seed-split-test", cells)
	if err != nil {
		t.Fatal(err)
	}
	for ci, c := range cells {
		var want *sim.Results
		for s := 0; s < seeds; s++ {
			cfg := r.cfg()
			cfg.Scheme = c.Scheme
			cfg.Seed += uint64(s) * 7919
			m, err := sim.NewMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := m.Run(c.Workload, r.opsFor(c.Scheme))
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = res
			} else {
				want.Accumulate(res)
			}
		}
		want.DivideBy(seeds)
		if !reflect.DeepEqual(want, got[ci]) {
			t.Errorf("cell %v: seed-split average differs from the sequential loop:\nwant %+v\ngot  %+v",
				c, want, got[ci])
		}
	}
}

// TestRunnerSkewSpeedup drives the pool with sleeping jobs shaped like
// the pathological sweep from the ROADMAP: one heavy strict cell among
// light ones. With seed-level units and longest-expected-first
// dispatch over 4 workers the heavy unit starts immediately, so the
// sweep's wall time must undercut the sequential sum by at least 2x.
// Sleeping jobs make this meaningful on any machine, including
// single-CPU CI containers where compute-bound speedup is impossible.
func TestRunnerSkewSpeedup(t *testing.T) {
	const (
		heavy = 400 * time.Millisecond
		light = 100 * time.Millisecond
	)
	cells := []Cell{{Workload: "hash", Scheme: "strict"}} // the heavy outlier
	for i := 0; i < 7; i++ {
		cells = append(cells, Cell{Workload: "hash", Scheme: "wb"})
	}
	seq := heavy + 7*light // 1.1s if run back to back

	// At width 1 dispatch order is observable directly: the heavy
	// strict unit must go first. (At width 4 which worker's job body
	// runs first is up to the goroutine scheduler, even though the
	// dispatcher handed strict out first.)
	var order []string
	probe := NewRunner(WithParallelism(1))
	err := probe.dispatch(context.Background(), oneCellUnits(cells), func(_ context.Context, _ *machinePool, u workUnit) ([]time.Duration, error) {
		order = append(order, u.cells[0].Scheme)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if order[0] != "strict" {
		t.Errorf("dispatch order %v, want the heavy strict cell first", order)
	}

	r := NewRunner(WithParallelism(4))
	start := time.Now()
	err = r.dispatch(context.Background(), oneCellUnits(cells), func(_ context.Context, _ *machinePool, u workUnit) ([]time.Duration, error) {
		if u.cells[0].Scheme == "strict" {
			time.Sleep(heavy)
		} else {
			time.Sleep(light)
		}
		return nil, nil
	})
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if speedup := float64(seq) / float64(wall); speedup < 2 {
		t.Errorf("skewed sweep speedup %.2fx (wall %v vs sequential %v), want >= 2x",
			speedup, wall, seq)
	} else {
		t.Logf("skewed sweep: wall %v vs sequential %v = %.2fx", wall, seq, speedup)
	}
}

// TestRunnerSlowProgressCallbackDoesNotBlockWorkers pins the narrow
// critical section: a progress callback that takes far longer than the
// jobs must not serialize the pool. The jobs of an 8-cell sweep over 4
// workers finish in ~2 job-lengths of wall time even while each of the
// 8 callbacks sleeps, because reporting happens on its own goroutine.
func TestRunnerSlowProgressCallbackDoesNotBlockWorkers(t *testing.T) {
	const (
		jobSleep      = 20 * time.Millisecond
		callbackSleep = 150 * time.Millisecond
	)
	var (
		jobsDone  atomic.Int64
		jobsEnd   atomic.Int64 // ns since start when the last job body finished
		callbacks int
	)
	cells := make([]Cell, 8)
	start := time.Now()
	r := NewRunner(WithParallelism(4), WithProgress(func(p Progress) {
		callbacks++ // reporter goroutine only; no lock needed
		time.Sleep(callbackSleep)
	}))
	err := r.dispatch(context.Background(), oneCellUnits(cells), func(context.Context, *machinePool, workUnit) ([]time.Duration, error) {
		time.Sleep(jobSleep)
		if jobsDone.Add(1) == int64(len(cells)) {
			jobsEnd.Store(time.Since(start).Nanoseconds())
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if callbacks != len(cells) {
		t.Fatalf("callbacks = %d, want %d", callbacks, len(cells))
	}
	// 8 jobs x 20ms over 4 workers is 40ms of pool time; under the old
	// design the 150ms callbacks ran inside the pool's lock, pushing
	// the job bodies past 8 x 150ms = 1.2s. 400ms splits those regimes
	// with a wide margin on both sides.
	if got := time.Duration(jobsEnd.Load()); got > 400*time.Millisecond {
		t.Errorf("job bodies took %v, slow progress callback is blocking workers", got)
	} else {
		t.Logf("job bodies done in %v with %v callbacks in flight", got, callbackSleep)
	}
}

// TestRunnerWorkerTelemetry checks the per-lane accounting that
// starbench -http exposes: every unit is attributed to a lane, and
// lanes report busy time.
func TestRunnerWorkerTelemetry(t *testing.T) {
	r := fastRunner(2)
	if _, err := r.SchemeComparison(context.Background(), []string{"wb", "star"}); err != nil {
		t.Fatal(err)
	}
	const units = 4 // array and queue under wb and star
	stats := r.Snapshot()
	if len(stats.Workers) == 0 {
		t.Fatal("no worker telemetry after a sweep")
	}
	var lanes, busy int64
	for _, w := range stats.Workers {
		if w.Worker < 0 || w.Worker >= r.Parallelism() {
			t.Fatalf("worker lane %d out of range [0,%d)", w.Worker, r.Parallelism())
		}
		lanes += w.Units
		busy += w.BusyNs
	}
	if lanes != units {
		t.Fatalf("lanes account for %d units, sweep had %d", lanes, units)
	}
	if busy <= 0 {
		t.Fatal("no busy time recorded")
	}
}

// TestRunnerProgressOrderUnderWidth checks the reporter's reordering:
// even at width 8 with out-of-order completions, Done is contiguous
// and every unit is reported exactly once.
func TestRunnerProgressOrderUnderWidth(t *testing.T) {
	var mu sync.Mutex
	var seen []int
	r := fastRunner(8, WithSeeds(2), WithProgress(func(p Progress) {
		mu.Lock()
		seen = append(seen, p.Done)
		mu.Unlock()
	}))
	if _, err := r.Fig10(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := 2 /*workloads*/ * 2 /*schemes*/ * 2 /*seeds*/
	if len(seen) != want {
		t.Fatalf("progress events = %d, want %d", len(seen), want)
	}
	for i, d := range seen {
		if d != i+1 {
			t.Fatalf("event %d has Done=%d; reporting is not in completion order: %v", i, d, seen)
		}
	}
}
