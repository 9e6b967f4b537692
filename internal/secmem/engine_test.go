package secmem_test

import (
	"errors"
	"testing"

	"nvmstar/internal/bitmap"
	"nvmstar/internal/cache"
	"nvmstar/internal/memline"
	"nvmstar/internal/schemes/anubis"
	"nvmstar/internal/schemes/phoenix"
	"nvmstar/internal/schemes/star"
	"nvmstar/internal/schemes/strict"
	"nvmstar/internal/schemes/wb"
	"nvmstar/internal/secmem"
	"nvmstar/internal/simcrypto"
)

// newEngineBare builds a small engine with no scheme installed.
func newEngineBare(t testing.TB, dataBytes uint64, cacheBytes int) *secmem.Engine {
	t.Helper()
	e, err := secmem.New(secmem.Config{
		DataBytes: dataBytes,
		MetaCache: cache.Config{SizeBytes: cacheBytes, Ways: 8},
		Suite:     simcrypto.NewFast(2024),
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// newEngine builds a small engine with the named scheme.
func newEngine(t testing.TB, scheme string, dataBytes uint64, cacheBytes int) *secmem.Engine {
	t.Helper()
	return withScheme(t, newEngineBare(t, dataBytes, cacheBytes), scheme)
}

// withScheme installs the named scheme on e and returns e.
func withScheme(t testing.TB, e *secmem.Engine, scheme string) *secmem.Engine {
	t.Helper()
	switch scheme {
	case "wb":
		e.SetScheme(wb.New())
	case "strict":
		e.SetScheme(strict.New(e))
	case "anubis":
		s, err := anubis.New(e)
		if err != nil {
			t.Fatal(err)
		}
		e.SetScheme(s)
	case "phoenix":
		s, err := phoenix.New(e)
		if err != nil {
			t.Fatal(err)
		}
		e.SetScheme(s)
	case "star":
		s, err := star.New(e, bitmap.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		e.SetScheme(s)
	default:
		t.Fatalf("unknown scheme %q", scheme)
	}
	return e
}

func lineFor(addr, seq uint64) memline.Line {
	var l memline.Line
	for i := range l {
		l[i] = byte(addr>>3) ^ byte(seq*131) ^ byte(i)
	}
	return l
}

// lcg is a tiny deterministic PRNG for workload generation.
type lcg uint64

func (r *lcg) next() uint64 {
	*r = lcg(uint64(*r)*6364136223846793005 + 1442695040888963407)
	return uint64(*r) >> 11
}

// runWorkload issues n writes over the data space with mild locality
// and returns the expected plaintext contents.
func runWorkload(t testing.TB, e *secmem.Engine, n int, seed uint64) map[uint64]memline.Line {
	t.Helper()
	r := lcg(seed)
	expect := make(map[uint64]memline.Line)
	lines := e.Geometry().DataBytes() / memline.Size
	var seq uint64
	for i := 0; i < n; i++ {
		base := (r.next() % lines) &^ 7
		burst := int(r.next()%4) + 1 // spatial locality: short runs
		for b := 0; b < burst && i < n; b++ {
			addr := ((base + uint64(b)) % lines) * memline.Size
			seq++
			l := lineFor(addr, seq)
			if err := e.WriteLine(addr, l); err != nil {
				t.Fatalf("write %#x: %v", addr, err)
			}
			expect[addr] = l
			i++
		}
	}
	return expect
}

func verifyAll(t testing.TB, e *secmem.Engine, expect map[uint64]memline.Line) {
	t.Helper()
	for addr, want := range expect {
		got, err := e.ReadLine(addr)
		if err != nil {
			t.Fatalf("read %#x: %v", addr, err)
		}
		if got != want {
			t.Fatalf("read %#x: content mismatch", addr)
		}
	}
}

func countReadFailures(e *secmem.Engine, expect map[uint64]memline.Line) int {
	failures := 0
	for addr, want := range expect {
		got, err := e.ReadLine(addr)
		if err != nil || got != want {
			failures++
		}
	}
	return failures
}

func TestWriteReadRoundTripAllSchemes(t *testing.T) {
	for _, scheme := range []string{"wb", "strict", "anubis", "star"} {
		t.Run(scheme, func(t *testing.T) {
			e := newEngine(t, scheme, 1<<20, 16<<10)
			expect := runWorkload(t, e, 3000, 1)
			verifyAll(t, e, expect)
		})
	}
}

func TestUnwrittenLineReadsZero(t *testing.T) {
	e := newEngine(t, "star", 1<<20, 16<<10)
	got, err := e.ReadLine(4096)
	if err != nil {
		t.Fatal(err)
	}
	if !got.IsZero() {
		t.Fatal("unwritten line not zero")
	}
}

func TestOverwriteSameLine(t *testing.T) {
	e := newEngine(t, "star", 1<<20, 16<<10)
	for seq := uint64(0); seq < 50; seq++ {
		if err := e.WriteLine(0, lineFor(0, seq)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := e.ReadLine(0)
	if err != nil {
		t.Fatal(err)
	}
	if got != lineFor(0, 49) {
		t.Fatal("latest write not visible")
	}
}

func TestWBCannotRecover(t *testing.T) {
	e := newEngine(t, "wb", 1<<20, 16<<10)
	expect := runWorkload(t, e, 5000, 2)
	if e.MetaCache().DirtyCount() == 0 {
		t.Fatal("workload left no dirty metadata; test is vacuous")
	}
	e.Crash()
	if _, err := e.Recover(); !errors.Is(err, secmem.ErrRecoveryUnsupported) {
		t.Fatalf("WB recovery error = %v", err)
	}
	if failures := countReadFailures(e, expect); failures == 0 {
		t.Fatal("WB survived a crash unscathed; stale metadata should break verification")
	}
}

func TestStrictSurvivesCrashWithoutRecovery(t *testing.T) {
	e := newEngine(t, "strict", 1<<20, 16<<10)
	expect := runWorkload(t, e, 2000, 3)
	if e.MetaCache().DirtyCount() != 0 {
		t.Fatalf("strict left %d dirty lines", e.MetaCache().DirtyCount())
	}
	e.Crash()
	rep, err := e.Recover()
	if err != nil || !rep.Verified {
		t.Fatalf("strict recovery: %v (%+v)", err, rep)
	}
	verifyAll(t, e, expect)
}

func TestSTARCrashRecovery(t *testing.T) {
	e := newEngine(t, "star", 1<<20, 16<<10)
	expect := runWorkload(t, e, 5000, 4)
	dirty := e.MetaCache().DirtyCount()
	if dirty == 0 {
		t.Fatal("no dirty metadata; test is vacuous")
	}
	e.Crash()
	rep, err := e.Recover()
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if !rep.Verified || !rep.Supported {
		t.Fatalf("report = %+v", rep)
	}
	if rep.StaleNodes != dirty {
		t.Fatalf("restored %d nodes, %d were dirty at crash", rep.StaleNodes, dirty)
	}
	verifyAll(t, e, expect)
}

func TestSTARRecoveryReadsTenLinesPerNode(t *testing.T) {
	e := newEngine(t, "star", 1<<20, 16<<10)
	runWorkload(t, e, 5000, 5)
	e.Crash()
	rep, err := e.Recover()
	if err != nil {
		t.Fatal(err)
	}
	// Paper, Section IV-F: restoring one stale node reads 10 related
	// lines (itself, its parent, its 8 children). Stale nodes directly
	// under the on-chip root need no parent read, so the total can dip
	// slightly below 10 per node.
	max := uint64(rep.StaleNodes) * 10
	min := max - uint64(rep.StaleNodes) // even if every node were top-level
	if rep.NodeReads < min || rep.NodeReads > max {
		t.Fatalf("NodeReads = %d, want within [%d, %d] (~10 per stale node)", rep.NodeReads, min, max)
	}
	if rep.NodeReads < max-64 {
		t.Fatalf("NodeReads = %d, far below 10 per stale node (%d)", rep.NodeReads, max)
	}
	if rep.NodeWrites != uint64(rep.StaleNodes) {
		t.Fatalf("NodeWrites = %d, want %d", rep.NodeWrites, rep.StaleNodes)
	}
}

func TestSTARDoubleCrashRecovery(t *testing.T) {
	e := newEngine(t, "star", 1<<20, 16<<10)
	expect := runWorkload(t, e, 3000, 6)
	e.Crash()
	if _, err := e.Recover(); err != nil {
		t.Fatalf("first recovery: %v", err)
	}
	// Continue executing, then crash and recover again: the tracker,
	// cache-tree and RA must have been reset correctly.
	for addr, l := range runWorkload(t, e, 3000, 7) {
		expect[addr] = l
	}
	e.Crash()
	rep, err := e.Recover()
	if err != nil || !rep.Verified {
		t.Fatalf("second recovery: %v (%+v)", err, rep)
	}
	verifyAll(t, e, expect)
}

func TestSTARCrashWithCleanCache(t *testing.T) {
	e := newEngine(t, "star", 1<<20, 16<<10)
	expect := runWorkload(t, e, 2000, 8)
	if err := e.FlushAllMetadata(); err != nil {
		t.Fatal(err)
	}
	if e.MetaCache().DirtyCount() != 0 {
		t.Fatal("FlushAllMetadata left dirty lines")
	}
	e.Crash()
	rep, err := e.Recover()
	if err != nil || !rep.Verified {
		t.Fatalf("recovery: %v (%+v)", err, rep)
	}
	if rep.StaleNodes != 0 {
		t.Fatalf("clean crash restored %d nodes", rep.StaleNodes)
	}
	verifyAll(t, e, expect)
}

func TestSTARFlatScanRecoveryEquivalent(t *testing.T) {
	e := newEngine(t, "star", 1<<20, 16<<10)
	expect := runWorkload(t, e, 4000, 9)
	e.Crash()
	s := e.Scheme().(*star.Scheme)
	rep, err := s.RecoverFlatScan()
	if err != nil || !rep.Verified {
		t.Fatalf("flat-scan recovery: %v (%+v)", err, rep)
	}
	verifyAll(t, e, expect)
}

func TestAnubisCrashRecovery(t *testing.T) {
	e := newEngine(t, "anubis", 1<<20, 16<<10)
	expect := runWorkload(t, e, 5000, 10)
	if e.MetaCache().DirtyCount() == 0 {
		t.Fatal("no dirty metadata; test is vacuous")
	}
	e.Crash()
	rep, err := e.Recover()
	if err != nil || !rep.Verified {
		t.Fatalf("recovery: %v (%+v)", err, rep)
	}
	verifyAll(t, e, expect)
}

func TestAnubisDoubleCrashRecovery(t *testing.T) {
	e := newEngine(t, "anubis", 1<<20, 16<<10)
	expect := runWorkload(t, e, 2000, 11)
	e.Crash()
	if _, err := e.Recover(); err != nil {
		t.Fatalf("first recovery: %v", err)
	}
	for addr, l := range runWorkload(t, e, 2000, 12) {
		expect[addr] = l
	}
	e.Crash()
	if _, err := e.Recover(); err != nil {
		t.Fatalf("second recovery: %v", err)
	}
	verifyAll(t, e, expect)
}

func TestForcedMSBFlush(t *testing.T) {
	// Hammer a single line > 2^10 times without evicting its counter
	// block: the MSB rule must force write-backs, and recovery must
	// still reconstruct counters exactly.
	e := newEngine(t, "star", 1<<20, 16<<10)
	var last memline.Line
	for seq := uint64(0); seq < 3000; seq++ {
		last = lineFor(64, seq)
		if err := e.WriteLine(64, last); err != nil {
			t.Fatal(err)
		}
	}
	if e.Stats().ForcedFlushes == 0 {
		t.Fatal("no forced flushes after 3000 writes to one line")
	}
	e.Crash()
	rep, err := e.Recover()
	if err != nil || !rep.Verified {
		t.Fatalf("recovery: %v (%+v)", err, rep)
	}
	got, err := e.ReadLine(64)
	if err != nil || got != last {
		t.Fatalf("read after recovery: %v", err)
	}
}

func TestWriteTrafficOrdering(t *testing.T) {
	// The headline comparison (Fig. 11): STAR's total NVM writes must
	// be close to WB's, Anubis about double, strict persistence far
	// above.
	writes := make(map[string]uint64)
	for _, scheme := range []string{"wb", "star", "anubis", "strict"} {
		e := newEngine(t, scheme, 1<<20, 16<<10)
		runWorkload(t, e, 8000, 13)
		writes[scheme] = e.Device().Stats().Writes
	}
	ratio := func(s string) float64 { return float64(writes[s]) / float64(writes["wb"]) }
	if r := ratio("star"); r > 1.30 {
		t.Errorf("STAR writes %.2fx WB, want close to 1x", r)
	}
	if r := ratio("anubis"); r < 1.6 || r > 2.4 {
		t.Errorf("Anubis writes %.2fx WB, want ~2x", r)
	}
	if r := ratio("strict"); r < 2.0 {
		t.Errorf("strict writes %.2fx WB, want well above", r)
	}
	if writes["star"] >= writes["anubis"] {
		t.Errorf("STAR (%d) should write less than Anubis (%d)", writes["star"], writes["anubis"])
	}
}

func TestEngineStatsConsistency(t *testing.T) {
	// Engine region counters plus scheme-side traffic must equal the
	// device totals.
	e := newEngine(t, "star", 1<<20, 16<<10)
	runWorkload(t, e, 4000, 14)
	st := e.Stats()
	s := e.Scheme().(*star.Scheme)
	trk := s.Tracker().Stats()
	dev := e.Device().Stats()
	if got := st.DataNVMWrites + st.MetaNVMWrites + trk.NVMWrites(); got != dev.Writes {
		t.Fatalf("write accounting: engine %d != device %d", got, dev.Writes)
	}
	if got := st.DataNVMReads + st.MetaNVMReads + trk.NVMReads(); got != dev.Reads {
		t.Fatalf("read accounting: engine %d != device %d", got, dev.Reads)
	}
}

func TestSetSchemeTwicePanics(t *testing.T) {
	e := newEngine(t, "wb", 1<<20, 16<<10)
	defer func() {
		if recover() == nil {
			t.Fatal("second SetScheme did not panic")
		}
	}()
	e.SetScheme(wb.New())
}
