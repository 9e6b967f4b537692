package sim_test

import (
	"testing"
	"time"

	"nvmstar/internal/bitmap"
	"nvmstar/internal/memline"
	"nvmstar/internal/sim"
)

func newMachine(t *testing.T, scheme string) *sim.Machine {
	t.Helper()
	m, err := sim.NewMachine(testCfg(scheme))
	if err != nil {
		t.Fatal(err)
	}
	m.SetCore(0)
	return m
}

func TestLoadStoreSpanningLines(t *testing.T) {
	m := newMachine(t, "star")
	data := make([]byte, 200) // crosses 4 lines
	for i := range data {
		data[i] = byte(i + 1)
	}
	m.Store(60, data) // deliberately unaligned
	got := make([]byte, 200)
	m.Load(60, got)
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("byte %d = %d, want %d", i, got[i], data[i])
		}
	}
	if m.Err() != nil {
		t.Fatal(m.Err())
	}
}

func TestPersistWritesThroughAndRetains(t *testing.T) {
	m := newMachine(t, "star")
	m.Store(0, []byte{42})
	devBefore := m.Engine().Device().Stats().Writes
	m.Persist(0, 1)
	if m.Engine().Device().Stats().Writes == devBefore {
		t.Fatal("persist issued no NVM write")
	}
	// CLWB retains: a reload must not go to NVM.
	readsBefore := m.Engine().Device().Stats().Reads
	buf := make([]byte, 1)
	m.Load(0, buf)
	if buf[0] != 42 {
		t.Fatal("content lost by persist")
	}
	if m.Engine().Device().Stats().Reads != readsBefore {
		t.Fatal("persist dropped the line from the caches")
	}
}

func TestPersistIdempotent(t *testing.T) {
	m := newMachine(t, "star")
	m.Store(0, []byte{1})
	m.Persist(0, 1)
	devBefore := m.Engine().Device().Stats().Writes
	m.Persist(0, 1) // clean line: no write
	if m.Engine().Device().Stats().Writes != devBefore {
		t.Fatal("persisting a clean line wrote to NVM")
	}
}

func TestPersistRangeCoversAllLines(t *testing.T) {
	m := newMachine(t, "star")
	data := make([]byte, 3*memline.Size)
	for i := range data {
		data[i] = 7
	}
	m.Store(0, data)
	m.Persist(0, len(data))
	m.Fence()
	m.Crash()
	if _, err := m.Recover(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	m.Load(0, got)
	if m.Err() != nil {
		t.Fatal(m.Err())
	}
	for i, b := range got {
		if b != 7 {
			t.Fatalf("byte %d lost (= %d)", i, b)
		}
	}
}

func TestPersistWrappingRangeTerminates(t *testing.T) {
	m := newMachine(t, "wb")
	m.Store(0, []byte{5})
	// addr+size-1 wraps uint64; the bounds check must reject the range
	// up front instead of walking (or circling) the 64-bit space.
	done := make(chan struct{})
	go func() {
		m.Persist(^uint64(0)-100, 4096)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("Persist with a wrapping range did not terminate")
	}
	if m.Err() == nil {
		t.Fatal("wrapping persist recorded no bounds error")
	}
}

func TestNewMachinePartialBitmapConfigRejected(t *testing.T) {
	cfg := testCfg("star")
	cfg.Bitmap = bitmap.Config{ADRL2Lines: 2}
	if _, err := sim.NewMachine(cfg); err == nil {
		t.Fatal("Bitmap config with only ADRL2Lines accepted")
	}
	cfg.Bitmap = bitmap.Config{ADRL1Lines: 14}
	if _, err := sim.NewMachine(cfg); err == nil {
		t.Fatal("Bitmap config with only ADRL1Lines accepted")
	}
	cfg.Bitmap = bitmap.Config{} // both zero: the documented default
	if _, err := sim.NewMachine(cfg); err != nil {
		t.Fatalf("zero Bitmap config rejected: %v", err)
	}
	cfg.Bitmap = bitmap.DefaultConfig()
	if _, err := sim.NewMachine(cfg); err != nil {
		t.Fatalf("default Bitmap config rejected: %v", err)
	}
	// Other schemes ignore the bitmap allocation entirely.
	cfg = testCfg("wb")
	cfg.Bitmap = bitmap.Config{ADRL2Lines: 2}
	if _, err := sim.NewMachine(cfg); err != nil {
		t.Fatalf("non-STAR scheme rejected a Bitmap config it does not use: %v", err)
	}
}

func TestPersistFindsLineInOtherCoreCache(t *testing.T) {
	m := newMachine(t, "star")
	m.SetCore(0)
	m.Store(0, []byte{9})
	// Core 1 persists the line that core 0's L1 holds dirty.
	m.SetCore(1)
	devBefore := m.Engine().Device().Stats().Writes
	m.Persist(0, 1)
	if m.Engine().Device().Stats().Writes == devBefore {
		t.Fatal("cross-core persist missed the dirty line")
	}
	m.Crash()
	if _, err := m.Recover(); err != nil {
		t.Fatal(err)
	}
	m.SetCore(0)
	buf := make([]byte, 1)
	m.Load(0, buf)
	if buf[0] != 9 || m.Err() != nil {
		t.Fatalf("cross-core persisted data lost: %d, %v", buf[0], m.Err())
	}
}

func TestFlushCPUCachesPersistsEverything(t *testing.T) {
	m := newMachine(t, "star")
	for i := uint64(0); i < 64; i++ {
		m.SetCore(int(i) % 4)
		m.Store(i*memline.Size, []byte{byte(i + 1)})
	}
	if err := m.FlushCPUCaches(); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	if _, err := m.Recover(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 64; i++ {
		m.SetCore(0)
		buf := make([]byte, 1)
		m.Load(i*memline.Size, buf)
		if buf[0] != byte(i+1) {
			t.Fatalf("line %d lost after FlushCPUCaches (= %d)", i, buf[0])
		}
	}
	if m.Err() != nil {
		t.Fatal(m.Err())
	}
}

func TestFenceAdvancesTime(t *testing.T) {
	m := newMachine(t, "star")
	r1, err := m.Measure("probe", func() error {
		for i := 0; i < 100; i++ {
			m.Fence()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if r1.TimeNs <= 0 {
		t.Fatal("fences cost no time")
	}
}

func TestPhoenixOnMachine(t *testing.T) {
	res, m, err := sim.RunScenario(testCfg("phoenix"), "btree", 1500)
	if err != nil {
		t.Fatal(err)
	}
	if m.Err() != nil {
		t.Fatal(m.Err())
	}
	if res.Dev.Writes == 0 {
		t.Fatal("no writes measured")
	}
	mm := newMachine(t, "phoenix")
	if _, err := mm.RunUnverified("queue", 1500); err != nil {
		t.Fatal(err)
	}
	mm.Crash()
	rep, err := mm.Recover()
	if err != nil || !rep.Verified {
		t.Fatalf("phoenix machine recovery: %v (%+v)", err, rep)
	}
}
