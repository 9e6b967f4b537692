package experiments

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"nvmstar/internal/bitmap"
	"nvmstar/internal/provenance"
	"nvmstar/internal/sim"
	"nvmstar/internal/simcrypto"
)

// freshDigest runs one recorded cell on a newly built machine and
// returns its canonical digest: the value the run memo must reproduce.
func freshDigest(t *testing.T, r *Runner, rec provenance.CellRecord) string {
	t.Helper()
	cfg := r.cfg()
	cfg.Scheme = rec.Scheme
	cfg.Seed += uint64(rec.Seed) * 7919
	if rec.Sweep == "table2" {
		var lines int
		if _, err := fmt.Sscanf(rec.Label, "adr=%d", &lines); err != nil {
			t.Fatalf("table2 label %q: %v", rec.Label, err)
		}
		cfg.Bitmap = bitmap.Config{ADRL1Lines: lines - max(lines/8, 1), ADRL2Lines: max(lines/8, 1)}
	}
	m, err := sim.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(rec.Workload, r.opsFor(rec.Scheme))
	if err != nil {
		t.Fatalf("%s: fresh run: %v", rec.Key(), err)
	}
	d, err := provenance.Digest(res)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestRunMemoFigureSequence runs the figure sweeps that repeat each
// other's runs on one runner. Fig. 10 runs wb and star; the scheme
// comparison repeats both (4 hits over two workloads), Table II's
// adr=16 point is the default star run (2 hits, each a unit of its
// own, beside one lock-step unit of the other four points per
// workload) and Fig. 14a is star again (2 hits). Every recorded cell,
// hit or not, must carry the digest of a fresh machine running exactly
// that cell.
func TestRunMemoFigureSequence(t *testing.T) {
	ctx := context.Background()
	coll := provenance.NewCollector()
	var reported int
	r := fastRunner(2, WithCollector(coll), WithProgress(func(Progress) { reported++ }))
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
	const cells = 4 + 8 + 10 + 2
	const units = 4 + 8 + 4 + 2
	s := r.Snapshot()
	if s.RunsShared != 8 {
		t.Fatalf("RunsShared = %d, want 8", s.RunsShared)
	}
	var ran int64
	for _, w := range s.Workers {
		ran += w.Units
	}
	if s.MachinesBuilt+s.MachinesReused+s.RunsShared != units || ran != units || s.CellsDone != cells {
		t.Fatalf("stats do not cover every unit: %+v", s)
	}
	if reported != cells || coll.Len() != cells {
		t.Fatalf("progress reported %d cells and the collector recorded %d, want %d each", reported, coll.Len(), cells)
	}
	for _, rec := range coll.Cells() {
		if rec.Err != "" {
			t.Fatalf("%s: %s", rec.Key(), rec.Err)
		}
		if want := freshDigest(t, r, rec); rec.Digest != want {
			t.Errorf("%s: digest %.16s, fresh machine %.16s", rec.Key(), rec.Digest, want)
		}
	}
}

// TestRunMemoSeedMergeAfterHit pins the copy-out rule: the seed merge
// accumulates and divides the per-seed Results in place, so a merge
// over memo hits must neither see nor corrupt the stored runs. Fig. 14a
// after Fig. 10 is all hits; Fig. 10 again must record the digests it
// recorded the first time, and Fig. 14a those of a fresh runner.
func TestRunMemoSeedMergeAfterHit(t *testing.T) {
	ctx := context.Background()
	coll := provenance.NewCollector()
	memo := fastRunner(2, WithSeeds(2), WithCollector(coll))
	fig10, err := memo.Fig10(ctx)
	if err != nil {
		t.Fatal(err)
	}
	fig14a, err := memo.Fig14a(ctx)
	if err != nil {
		t.Fatal(err)
	}
	again, err := memo.Fig10(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := memo.Snapshot().RunsShared; got != 4+8 {
		t.Fatalf("RunsShared = %d, want 12 (Fig. 14a's 4 star units, then all 8 of Fig. 10)", got)
	}
	freshColl := provenance.NewCollector()
	fresh14a, err := fastRunner(2, WithSeeds(2), WithCollector(freshColl)).Fig14a(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fig14a, fresh14a) {
		t.Errorf("seed-merged Fig. 14a over hits differs from a fresh runner:\nmemo  %+v\nfresh %+v", fig14a, fresh14a)
	}
	if !reflect.DeepEqual(fig10, again) {
		t.Errorf("Fig. 10 changed after the memo served a seed merge:\nfirst %+v\nagain %+v", fig10, again)
	}
	want := map[string]string{}
	for _, rec := range freshColl.Cells() {
		want[rec.Key()] = rec.Digest
	}
	for _, rec := range coll.Cells() {
		if d, ok := want[rec.Key()]; ok && d != rec.Digest {
			t.Errorf("%s: digest %.16s, fresh runner %.16s", rec.Key(), rec.Digest, d)
		}
		want[rec.Key()] = rec.Digest // the second Fig. 10 must match the first
	}
}

// TestRunMemoSkipsFailuresAndCustomSuites checks what the memo must
// not store: a failed run is simulated again by the next sweep that
// needs it, and a caller-supplied crypto suite (not fingerprintable)
// always runs.
func TestRunMemoSkipsFailuresAndCustomSuites(t *testing.T) {
	ctx := context.Background()
	r := fastRunner(1, WithWorkloads("no-such-workload"))
	for i := 0; i < 2; i++ {
		_, err := r.Fig10(ctx)
		if err == nil || errors.Is(err, context.Canceled) {
			t.Fatalf("sweep %d over an unknown workload: err = %v, want the workload's error", i, err)
		}
	}
	if s := r.Snapshot(); s.RunsShared != 0 || s.MachinesBuilt+s.MachinesReused != 2 {
		t.Fatalf("a failed run was shared instead of simulated again: %+v", s)
	}
	if len(r.memo.runs) != 0 {
		t.Fatalf("the memo stored %d failed runs", len(r.memo.runs))
	}

	base := fastRunner(1).cfg
	suite := fastRunner(1, WithWorkloads("queue"), WithConfig(func() sim.Config {
		cfg := base()
		cfg.Suite = simcrypto.NewFast(1)
		return cfg
	}))
	if _, err := suite.Fig10(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := suite.Fig14a(ctx); err != nil { // Fig. 10's star run again
		t.Fatal(err)
	}
	if s := suite.Snapshot(); s.RunsShared != 0 || s.MachinesBuilt != 3 {
		t.Fatalf("a custom-suite config went through the memo: %+v", s)
	}
}

// TestRunMemoConcurrentSweeps runs two sweeps that share every star run
// — Fig. 10 and Fig. 14a — at once on one 2-wide runner. Whichever
// sweep simulates a shared run first, every recorded cell must carry
// the digest a fresh runner records for it.
func TestRunMemoConcurrentSweeps(t *testing.T) {
	ctx := context.Background()
	coll := provenance.NewCollector()
	r := fastRunner(2, WithCollector(coll))
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, errs[0] = r.Fig10(ctx)
	}()
	go func() {
		defer wg.Done()
		_, errs[1] = r.Fig14a(ctx)
	}()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	freshColl := provenance.NewCollector()
	if _, err := fastRunner(2, WithCollector(freshColl)).Fig10(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := fastRunner(2, WithCollector(freshColl)).Fig14a(ctx); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, rec := range freshColl.Cells() {
		want[rec.Key()] = rec.Digest
	}
	if coll.Len() != len(want) {
		t.Fatalf("recorded %d cells, a fresh runner %d", coll.Len(), len(want))
	}
	for _, rec := range coll.Cells() {
		if d, ok := want[rec.Key()]; !ok || d != rec.Digest {
			t.Errorf("%s: digest %.16s, fresh runner %.16s", rec.Key(), rec.Digest, d)
		}
	}
}

// TestBuildManifestCellsPerSecSpansSweeps pins the manifest's rate to
// the whole run: two sweeps of very different speeds must record every
// completed unit over the summed sweep wall time, not the last sweep's
// rate.
func TestBuildManifestCellsPerSecSpansSweeps(t *testing.T) {
	r := fastRunner(1, WithCollector(provenance.NewCollector()))
	sleepy := func(d time.Duration, n int) {
		t.Helper()
		err := r.dispatch(context.Background(), oneCellUnits(make([]Cell, n)), func(context.Context, *machinePool, workUnit) ([]time.Duration, error) {
			time.Sleep(d)
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	sleepy(100*time.Millisecond, 2) // slow: about 10 cells/s
	sleepy(0, 20)                   // fast: thousands of cells/s
	m, err := r.BuildManifest("test-rev")
	if err != nil {
		t.Fatal(err)
	}
	want := float64(22) / r.WallTime().Seconds()
	if got := m.Stats.CellsPerSec; got != want {
		t.Fatalf("manifest cells/s = %v, want %v (22 cells over %v)", got, want, r.WallTime())
	}
}
