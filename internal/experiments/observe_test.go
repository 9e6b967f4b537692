package experiments

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

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
func observedSweep(t *testing.T) (res []CellResult, rows []ObservatoryRow, md string) {
	t.Helper()
	obs := NewObservatory()
	var seen atomic.Int64
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
		WithResultObserver(func(Cell, *sim.Results) { seen.Add(1) }),
	)
	cells := r.Matrix(nil, []string{"wb", "star"})
	res, err := r.Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	for _, cr := range res {
		if cr.Err != nil {
			t.Fatalf("cell %v: %v", cr.Cell, cr.Err)
		}
		if cr.Results.WriteBreakdown == nil || cr.Results.Latency == nil {
			t.Fatalf("cell %v missing an observatory field with Observe enabled", cr.Cell)
		}
	}
	if got := seen.Load(); got != int64(len(cells)) {
		t.Fatalf("co-registered observer saw %d cells, want %d", got, len(cells))
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
	return res, rows, obs.Markdown()
}

// TestAttrAggregatorSweep checks the write-cause half of an observed
// sweep's aggregate: per-pair totals equal the cells' write totals,
// writes are attributed to data, and the write-cause report section is
// rendered.
func TestAttrAggregatorSweep(t *testing.T) {
	res, rows, md := observedSweep(t)
	want := map[obsKey]uint64{}
	for _, cr := range res {
		want[obsKey{cr.Workload, cr.Scheme}] += cr.Results.WriteBreakdown.Total
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
	for _, cr := range res {
		want[obsKey{cr.Workload, cr.Scheme}] += cr.Results.Latency.Op("write").Count
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
// they only agree within rounding.
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
	res, err := r.Run(context.Background(), r.Matrix(nil, []string{"wb", "star"}))
	if err != nil {
		t.Fatal(err)
	}
	forward, reverse := NewObservatory(), NewObservatory()
	for i := range res {
		if res[i].Err != nil {
			t.Fatalf("cell %v: %v", res[i].Cell, res[i].Err)
		}
		forward.Observe(res[i].Cell, res[i].Results)
		back := res[len(res)-1-i]
		reverse.Observe(back.Cell, back.Results)
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
