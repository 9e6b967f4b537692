package experiments

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"nvmstar/internal/cache"
	"nvmstar/internal/sim"
)

// observedSweep drives a 4-wide observed sweep through an Observatory
// and checks what its write-cause and latency halves share: every cell
// carries both fields, and there is one row per (workload, scheme)
// observed once, in workload-major scheme order. A second observer
// rides along to pin WithResultObserver's compose-don't-replace
// contract: both observers must see every cell. It returns the cell
// results, the aggregate rows and the report.
func observedSweep(t *testing.T) (res map[Cell]*sim.Results, rows []ObservatoryRow, md string) {
	t.Helper()
	obs := NewObservatory()
	var log cellLog
	r := NewRunner(
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
			cfg.Observe = true
			return cfg
		}),
		WithParallelism(4),
		WithResultObserver(obs.Observe),
		WithResultObserver(log.observe),
	)
	if _, err := r.SchemeComparison(context.Background(), []string{"wb", "star"}); err != nil {
		t.Fatal(err)
	}
	if got := len(log.res); got != 4 {
		t.Fatalf("co-registered observer saw %d cells, want 4", got)
	}
	for c, res := range log.res {
		if res.WriteBreakdown == nil || res.Latency == nil {
			t.Fatalf("cell %v missing an observatory field with Observe enabled", c)
		}
	}

	rows = obs.Rows()
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4 (2 workloads x 2 schemes): %+v", len(rows), rows)
	}
	for _, row := range rows {
		if row.Cells != 1 {
			t.Errorf("%s/%s cells = %d, want 1", row.Workload, row.Scheme, row.Cells)
		}
	}
	// Rows are in workload-major, scheme-ordered sequence.
	if rows[0].Scheme != "wb" || rows[1].Scheme != "star" || rows[0].Workload != rows[1].Workload {
		t.Errorf("row order wrong: %+v", rows)
	}
	return log.res, rows, obs.Markdown()
}

// TestAttrAggregatorSweep checks the write-cause half of an observed
// sweep's aggregate: per-pair totals equal the cells' write totals,
// writes are attributed to data, and the write-cause report section is
// rendered.
func TestAttrAggregatorSweep(t *testing.T) {
	res, rows, md := observedSweep(t)
	want := map[obsKey]uint64{}
	for c, r := range res {
		want[obsKey{c.Workload, c.Scheme}] += r.WriteBreakdown.Total
	}
	for _, row := range rows {
		if w := want[obsKey{row.Workload, row.Scheme}]; row.Breakdown.Total != w {
			t.Errorf("%s/%s aggregate total = %d, want %d", row.Workload, row.Scheme, row.Breakdown.Total, w)
		}
		if row.Breakdown.CauseWrites("data") == 0 {
			t.Errorf("%s/%s has no data-attributed writes", row.Workload, row.Scheme)
		}
	}
	for _, want := range []string{"## Write-cause breakdown", "| workload | scheme | cells | writes |", "| array | star |"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
}

// TestLatencyAggregatorSweep checks the latency half of the same
// aggregate: per-pair write-op counts equal the cells' counts, and the
// tail-latency report section is rendered.
func TestLatencyAggregatorSweep(t *testing.T) {
	res, rows, md := observedSweep(t)
	want := map[obsKey]uint64{}
	for c, r := range res {
		want[obsKey{c.Workload, c.Scheme}] += r.Latency.Op("write").Count
	}
	for _, row := range rows {
		if got, w := row.Latency.Op("write").Count, want[obsKey{row.Workload, row.Scheme}]; got != w {
			t.Errorf("%s/%s aggregate write count = %d, want %d", row.Workload, row.Scheme, got, w)
		}
	}
	for _, want := range []string{"## Tail latency", "| workload | scheme | op |", "| array | star | write |"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
}

// TestObservatoryOrderIndependent pins that the aggregate does not
// depend on the order cells complete in, which varies with -parallel
// and scheduling. Three seeds per (workload, scheme) give every row a
// three-way merge; one Observatory sees the cells in worker completion
// order, two more are fed the same results in cell order and in
// reverse. The report, the write breakdowns and every latency row's
// count, buckets and derived percentiles (what -latency-out writes)
// must be identical. SumNs and the component times are float sums, so
// they only agree within rounding. The per-seed cells are planned and
// run through runGroup straight from the dispatcher, since the
// seed-averaged sweeps observe only merged cells.
func TestObservatoryOrderIndependent(t *testing.T) {
	live := NewObservatory()
	r := NewRunner(
		WithOps(600),
		WithWorkloads("array", "queue"),
		WithSeeds(3),
		WithConfig(func() sim.Config {
			cfg := sim.Default()
			cfg.Cores = 2
			cfg.DataBytes = 16 << 20
			cfg.MetaCache = cache.Config{SizeBytes: 64 << 10, Ways: 8}
			cfg.Observe = true
			return cfg
		}),
		WithParallelism(4),
		WithResultObserver(live.Observe),
	)
	var cells []Cell
	var planned []sweepCell
	for _, w := range []string{"array", "queue"} {
		for _, scheme := range []string{"wb", "star"} {
			for seed := 0; seed < 3; seed++ {
				c := r.cell(w, scheme, "")
				c.Seed = seed
				c.cfg.Seed += uint64(seed) * 7919
				cells = append(cells, c.Cell)
				planned = append(planned, c)
			}
		}
	}
	res := make([]*sim.Results, len(cells))
	err := r.dispatch(context.Background(), plan(planned), func(ctx context.Context, mp *machinePool, u workUnit) ([]time.Duration, error) {
		rs, _, err := r.runGroup(ctx, mp, u.cfgs, u.cells[0].Workload, r.opsFor(u.cells[0].Scheme))
		for k, i := range u.idx {
			if err == nil {
				res[i] = rs[u.member[k]]
			}
			r.record("observe-test", cells[i], 0, res[i], err)
		}
		return nil, err
	})
	if err != nil {
		t.Fatal(err)
	}
	forward, reverse := NewObservatory(), NewObservatory()
	for i := range res {
		forward.Observe(cells[i], res[i])
		back := len(res) - 1 - i
		reverse.Observe(cells[back], res[back])
	}

	want := forward.Rows()
	if len(want) != 4 {
		t.Fatalf("rows = %d, want 4 (2 workloads x 2 schemes)", len(want))
	}
	for _, row := range want {
		if row.Cells != 3 {
			t.Fatalf("%s/%s merged %d cells, want 3", row.Workload, row.Scheme, row.Cells)
		}
	}
	closeTo := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b)) }
	for name, obs := range map[string]*Observatory{"completion order": live, "reverse order": reverse} {
		if got, wantMD := obs.Markdown(), forward.Markdown(); got != wantMD {
			t.Errorf("%s: Markdown differs from cell order:\n%s\nwant:\n%s", name, got, wantMD)
		}
		got := obs.Rows()
		if len(got) != len(want) {
			t.Fatalf("%s: rows = %d, want %d", name, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			id := fmt.Sprintf("%s: %s/%s", name, w.Workload, w.Scheme)
			if g.Workload != w.Workload || g.Scheme != w.Scheme || g.Cells != w.Cells {
				t.Errorf("%s: row %d is %s/%s with %d cells", id, i, g.Workload, g.Scheme, g.Cells)
			}
			if !reflect.DeepEqual(g.Breakdown, w.Breakdown) {
				t.Errorf("%s: breakdown %+v, want %+v", id, g.Breakdown, w.Breakdown)
			}
			for j, gop := range g.Latency.Ops {
				wop := w.Latency.Ops[j]
				if gop.Op != wop.Op || gop.Count != wop.Count || !reflect.DeepEqual(gop.BucketsNs, wop.BucketsNs) ||
					gop.P50Ns != wop.P50Ns || gop.P90Ns != wop.P90Ns || gop.P99Ns != wop.P99Ns ||
					gop.P999Ns != wop.P999Ns || gop.MaxNs != wop.MaxNs {
					t.Errorf("%s %s: latency row %+v, want %+v", id, wop.Op, gop, wop)
				}
				if !closeTo(gop.SumNs, wop.SumNs) {
					t.Errorf("%s %s: SumNs %v, want %v", id, wop.Op, gop.SumNs, wop.SumNs)
				}
				for k, c := range gop.Components {
					if wc := wop.Components[k]; c.Component != wc.Component || !closeTo(c.Ns, wc.Ns) {
						t.Errorf("%s %s: component %+v, want %+v", id, wop.Op, c, wc)
					}
				}
			}
		}
	}
}

// TestAttrAggregatorEmpty pins the disabled-sweep behavior: a stub
// under the write-cause heading, and observing a result without the
// observatory fields is a no-op, not a panic.
func TestAttrAggregatorEmpty(t *testing.T) {
	obs := NewObservatory()
	if md := obs.Markdown(); !strings.Contains(md, "## Write-cause breakdown\n\nNo observed cells") {
		t.Fatalf("empty markdown missing the write-cause stub:\n%s", md)
	}
	obs.Observe(Cell{Workload: "array", Scheme: "wb"}, &sim.Results{})
	if len(obs.Rows()) != 0 {
		t.Fatal("unobserved result was aggregated")
	}
}

// TestLatencyAggregatorEmpty pins the stub under the tail-latency
// heading of an empty aggregate's report.
func TestLatencyAggregatorEmpty(t *testing.T) {
	if md := NewObservatory().Markdown(); !strings.Contains(md, "## Tail latency\n\nNo observed cells") {
		t.Fatalf("empty markdown missing the tail-latency stub:\n%s", md)
	}
}

// TestResultObserverSeedMerged checks WithResultObserver's contract on
// seed-averaged sweeps: the observer sees one merged cell per
// (workload, scheme), not one call per seed.
func TestResultObserverSeedMerged(t *testing.T) {
	obs := NewObservatory()
	r := NewRunner(
		WithOps(600),
		WithWorkloads("array"),
		WithSeeds(3),
		WithConfig(func() sim.Config {
			cfg := sim.Default()
			cfg.Cores = 2
			cfg.DataBytes = 16 << 20
			cfg.MetaCache = cache.Config{SizeBytes: 64 << 10, Ways: 8}
			cfg.Observe = true
			return cfg
		}),
		WithParallelism(2),
		WithResultObserver(obs.Observe),
	)
	rows, err := r.SchemeComparison(context.Background(), []string{"wb", "star"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("scheme rows = %d", len(rows))
	}
	got := obs.Rows()
	if len(got) != 2 {
		t.Fatalf("aggregated rows = %d, want 2 merged cells: %+v", len(got), got)
	}
	for _, row := range got {
		if row.Cells != 1 {
			t.Errorf("%s/%s observed %d times, want once (merged)", row.Workload, row.Scheme, row.Cells)
		}
		if row.Breakdown.Total == 0 || row.Latency.Op("write").Count == 0 {
			t.Errorf("%s/%s merged breakdowns empty", row.Workload, row.Scheme)
		}
	}
}

// TestObservatoryCountsEachRunOnce runs the sweeps that share the
// default wb and star runs — Fig. 10, Figs. 11-13, Table II (whose
// adr=N points run other bitmap splits under the star key) and
// Fig. 14a — on one observed runner. Every row must hold exactly one
// run, with the breakdown and per-op counts of that run made alone.
func TestObservatoryCountsEachRunOnce(t *testing.T) {
	cfgFn := func() sim.Config {
		cfg := sim.Default()
		cfg.Cores = 2
		cfg.DataBytes = 16 << 20
		cfg.MetaCache = cache.Config{SizeBytes: 64 << 10, Ways: 8}
		cfg.Observe = true
		return cfg
	}
	const ops = 600
	obs := NewObservatory()
	r := NewRunner(
		WithOps(ops),
		WithWorkloads("array"),
		WithConfig(cfgFn),
		WithParallelism(2),
		WithResultObserver(obs.Observe),
	)
	ctx := context.Background()
	if _, err := r.Fig10(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := r.SchemeComparison(ctx, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Table2(ctx, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Fig14a(ctx); err != nil {
		t.Fatal(err)
	}

	rows := obs.Rows()
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4 (array x wb, star, anubis, strict): %+v", len(rows), rows)
	}
	for _, row := range rows {
		id := row.Workload + "/" + row.Scheme
		if row.Cells != 1 {
			t.Errorf("%s aggregates %d cells, want 1", id, row.Cells)
		}
		cfg := cfgFn()
		cfg.Scheme = row.Scheme
		n := ops
		if row.Scheme == "strict" {
			n = ops / 4
		}
		solo, _, err := sim.RunScenario(cfg, row.Workload, n)
		if err != nil {
			t.Fatal(err)
		}
		if row.Breakdown.Total != solo.WriteBreakdown.Total {
			t.Errorf("%s: %d writes, want %d as in a solo run", id, row.Breakdown.Total, solo.WriteBreakdown.Total)
		}
		for _, want := range solo.Latency.Ops {
			if got := row.Latency.Op(want.Op).Count; got != want.Count {
				t.Errorf("%s %s: %d ops observed, want %d as in a solo run", id, want.Op, got, want.Count)
			}
		}
	}
}
