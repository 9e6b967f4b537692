package bitmap

import (
	"reflect"
	"testing"

	"nvmstar/internal/nvm"
	"nvmstar/internal/sit"
)

func setup(t *testing.T, dataBytes uint64, cfg Config) (*Tracker, *sit.Geometry, *nvm.Device) {
	t.Helper()
	geo, err := sit.New(dataBytes, 8)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := nvm.New(nvm.Config{CapacityBytes: geo.TotalBytes()})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTracker(geo, dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr, geo, dev
}

func TestConfigValidation(t *testing.T) {
	geo, _ := sit.New(1<<16, 8)
	dev, _ := nvm.New(nvm.Config{CapacityBytes: geo.TotalBytes()})
	if _, err := NewTracker(geo, dev, Config{ADRL1Lines: 0, ADRL2Lines: 1}); err == nil {
		t.Error("zero L1 lines accepted")
	}
	if _, err := NewTracker(geo, dev, Config{ADRL1Lines: 1, ADRL2Lines: 0}); err == nil {
		t.Error("zero L2 lines accepted")
	}
}

func TestSplitADR(t *testing.T) {
	// The run memo's Table II adr=16 cell reuses the default-config
	// run, which holds only while the two configs are equal.
	if got, err := SplitADR(16); err != nil || got != DefaultConfig() {
		t.Fatalf("SplitADR(16) = %+v, %v; want DefaultConfig %+v", got, err, DefaultConfig())
	}
	if got, err := SplitADR(2); err != nil || got != (Config{ADRL1Lines: 1, ADRL2Lines: 1}) {
		t.Fatalf("SplitADR(2) = %+v, %v; want {1 1}", got, err)
	}
	if _, err := SplitADR(1); err == nil {
		t.Fatal("SplitADR(1) accepted")
	}
}

func TestMarkAndScanRoundTrip(t *testing.T) {
	tr, _, _ := setup(t, 1<<20, DefaultConfig())
	marked := []uint64{0, 5, 511, 512, 1000}
	for _, idx := range marked {
		tr.MarkStale(idx)
	}
	tr.MarkFresh(5)
	tr.Crash()
	got := tr.ScanStale().StaleMetaIdx
	want := []uint64{0, 511, 512, 1000}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scan = %v, want %v", got, want)
	}
}

func TestScanFlatMatchesIndexed(t *testing.T) {
	tr, geo, _ := setup(t, 1<<20, Config{ADRL1Lines: 2, ADRL2Lines: 1})
	// Spread marks across many bitmap lines to force ADR churn.
	for i := uint64(0); i < geo.MetaLines(); i += 97 {
		tr.MarkStale(i)
	}
	tr.Crash()
	indexed := tr.ScanStale()
	flat := tr.ScanStaleFlat()
	if !reflect.DeepEqual(indexed.StaleMetaIdx, flat.StaleMetaIdx) {
		t.Fatal("indexed and flat scans disagree")
	}
	// Worst case (every L1 line non-zero) the index adds only its own
	// L2 lines on top of the flat scan; the win shows when L1 lines
	// are sparse (TestIndexSkipsZeroLines).
	if indexed.LinesRead > flat.LinesRead+geo.RAL2Lines() {
		t.Fatalf("index read %d lines, flat scan %d (+%d L2)",
			indexed.LinesRead, flat.LinesRead, geo.RAL2Lines())
	}
}

func TestIndexSkipsZeroLines(t *testing.T) {
	tr, geo, _ := setup(t, 1<<22, DefaultConfig())
	// Mark a single metadata line: the scan must read exactly one L2
	// line (if any) and one L1 line.
	tr.MarkStale(3)
	tr.Crash()
	res := tr.ScanStale()
	if len(res.StaleMetaIdx) != 1 || res.StaleMetaIdx[0] != 3 {
		t.Fatalf("scan = %v", res.StaleMetaIdx)
	}
	if res.LinesRead != 2 {
		t.Fatalf("LinesRead = %d, want 2 (one L2 + one L1)", res.LinesRead)
	}
	flat := tr.ScanStaleFlat()
	if flat.LinesRead != geo.RAL1Lines() {
		t.Fatalf("flat LinesRead = %d, want all %d L1 lines", flat.LinesRead, geo.RAL1Lines())
	}
}

func TestADREvictionAndReload(t *testing.T) {
	// One L1 line in ADR: marking lines in two different 512-line
	// regions must evict and reload, with the content surviving.
	tr, _, dev := setup(t, 1<<20, Config{ADRL1Lines: 1, ADRL2Lines: 1})
	tr.MarkStale(0)   // L1 line 0
	tr.MarkStale(512) // L1 line 1: evicts line 0 to RA
	st := tr.Stats()
	if st.L1.Evicts == 0 {
		t.Fatal("no L1 eviction recorded")
	}
	if dev.Stats().Writes == 0 {
		t.Fatal("eviction did not write to NVM")
	}
	tr.MarkStale(1) // back to L1 line 0: reload from RA
	tr.Crash()
	got := tr.ScanStale().StaleMetaIdx
	want := []uint64{0, 1, 512}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scan = %v, want %v", got, want)
	}
}

func TestStatsTransitionsOnly(t *testing.T) {
	tr, _, _ := setup(t, 1<<20, DefaultConfig())
	tr.MarkStale(7)
	tr.MarkFresh(7)
	tr.MarkStale(7)
	st := tr.Stats()
	if st.SetOps != 2 || st.ClearOps != 1 {
		t.Fatalf("ops = %+v", st)
	}
	// All three touches hit the same L1 line; the first misses (cold),
	// the rest hit.
	if st.L1.Accesses != 3 || st.L1.Hits != 2 {
		t.Fatalf("L1 stats = %+v", st.L1)
	}
}

func TestHitRatioImprovesWithMoreLines(t *testing.T) {
	// Strided marks across many bitmap lines: a larger ADR must not
	// have a lower hit ratio (Table II's monotonicity).
	ratios := make([]float64, 0, 3)
	for _, lines := range []int{1, 4, 16} {
		tr, geo, _ := setup(t, 1<<24, Config{ADRL1Lines: lines, ADRL2Lines: 2})
		idx := uint64(0)
		for i := 0; i < 4000; i++ {
			tr.MarkStale(idx % geo.MetaLines())
			idx += 513 // cross L1-line boundaries frequently
		}
		ratios = append(ratios, tr.Stats().HitRatio())
	}
	for i := 1; i < len(ratios); i++ {
		if ratios[i] < ratios[i-1] {
			t.Fatalf("hit ratio decreased with more ADR lines: %v", ratios)
		}
	}
}

func TestCrashFlushDoesNotCountWrites(t *testing.T) {
	tr, _, dev := setup(t, 1<<20, DefaultConfig())
	tr.MarkStale(0)
	before := dev.Stats().Writes
	tr.Crash()
	if dev.Stats().Writes != before {
		t.Fatal("battery flush counted as measured writes")
	}
}

func TestL3RegisterTracksL2(t *testing.T) {
	tr, _, _ := setup(t, 1<<20, DefaultConfig())
	if reg := tr.L3Register(); !reg.IsZero() {
		t.Fatal("L3 register not initially zero")
	}
	tr.MarkStale(0)
	if reg := tr.L3Register(); !reg.Test(0) {
		t.Fatal("L3 register did not record non-zero L2 line")
	}
	tr.MarkFresh(0)
	if reg := tr.L3Register(); !reg.IsZero() {
		t.Fatal("L3 register did not clear")
	}
}
