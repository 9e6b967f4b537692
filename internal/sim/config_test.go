package sim

import (
	"testing"

	"nvmstar/internal/nvm"
)

// TestDefaultMatchesTableI pins the default configuration and the
// machine's timing constants to the paper's Table I so accidental
// drift is caught.
func TestDefaultMatchesTableI(t *testing.T) {
	cfg := Default()
	if cfg.Cores != 8 {
		t.Errorf("cores = %d, Table I says 8", cfg.Cores)
	}
	if freqGHz != 2 {
		t.Errorf("frequency = %v GHz, Table I says 2", freqGHz)
	}
	if l1LatNs != 0.5 || l2LatNs != 2 || l3LatNs != 15 || mcLatNs != 5 {
		t.Errorf("L1/L2/L3/MC latency = %v/%v/%v/%v ns, want 0.5/2/15/5", l1LatNs, l2LatNs, l3LatNs, mcLatNs)
	}
	if Banks != 8 || writeQueue != 64 {
		t.Errorf("banks = %d, write queue = %d, want 8 and 64", Banks, writeQueue)
	}
	if cfg.L1.SizeBytes != 64<<10 || cfg.L1.Ways != 2 {
		t.Errorf("L1 = %+v, Table I says 64 KB 2-way", cfg.L1)
	}
	if cfg.L2.SizeBytes != 512<<10 || cfg.L2.Ways != 8 {
		t.Errorf("L2 = %+v, Table I says 512 KB 8-way", cfg.L2)
	}
	if cfg.L3.SizeBytes != 4<<20 || cfg.L3.Ways != 8 {
		t.Errorf("L3 = %+v, Table I says 4 MB 8-way", cfg.L3)
	}
	if cfg.MetaCache.SizeBytes != 512<<10 || cfg.MetaCache.Ways != 8 {
		t.Errorf("metadata cache = %+v, Table I says 512 KB 8-way", cfg.MetaCache)
	}
	// The paper's 14+2 ADR split.
	if cfg.Bitmap.ADRL1Lines+cfg.Bitmap.ADRL2Lines != 16 {
		t.Errorf("ADR bitmap lines = %d+%d, Table I says 16",
			cfg.Bitmap.ADRL1Lines, cfg.Bitmap.ADRL2Lines)
	}
}

// TestDefaultTimingMatchesTableI pins the PCM latency and energy
// model: tRCD+tCL and tCWD+tWR of Table I, the write queue's drain
// interval over the banks, and 2 and 16 pJ/bit over a 512-bit line.
func TestDefaultTimingMatchesTableI(t *testing.T) {
	if nvm.ReadNs != 63 || nvm.WriteNs != 313 {
		t.Errorf("line read/write service = %v/%v ns, Table I gives 48+15 and 13+300", nvm.ReadNs, nvm.WriteNs)
	}
	if writeDrainNs != 39.125 {
		t.Errorf("write drain interval = %v ns, want 313/8", writeDrainNs)
	}
	if nvm.ReadPJ != 1024 || nvm.WritePJ != 8192 {
		t.Errorf("line read/write energy = %v/%v pJ, want 1024 and 8192", nvm.ReadPJ, nvm.WritePJ)
	}
}

func TestNewMachineValidation(t *testing.T) {
	cfg := Default()
	cfg.Cores = 0
	if _, err := NewMachine(cfg); err == nil {
		t.Error("zero cores accepted")
	}
	cfg = Default()
	cfg.L1.Ways = 0
	if _, err := NewMachine(cfg); err == nil {
		t.Error("invalid L1 accepted")
	}
	cfg = Default()
	cfg.DataBytes = 100
	if _, err := NewMachine(cfg); err == nil {
		t.Error("unaligned data size accepted")
	}
}

// TestSchemesAreWhatNewSchemeBuilds pins Schemes to newScheme: every
// listed scheme builds, and a name off the list does not.
func TestSchemesAreWhatNewSchemeBuilds(t *testing.T) {
	var cfgs []Config
	for _, s := range Schemes() {
		cfgs = append(cfgs, goldenConfig(s))
	}
	if _, err := NewGroup(cfgs...); err != nil {
		t.Fatal(err)
	}
	if _, err := NewMachine(goldenConfig("foo")); err == nil {
		t.Error("a scheme off the list built")
	}
}

// TestSetCoreOutOfRange checks SetCore's fail-stop policy: an
// out-of-range core is a machine error and leaves the selected core as
// it was.
func TestSetCoreOutOfRange(t *testing.T) {
	cfg := Default()
	cfg.DataBytes = 16 << 20
	cfg.Scheme = "wb"
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.SetCore(1)
	m.SetCore(99)
	if m.Err() == nil {
		t.Fatal("SetCore(99) recorded no error")
	}
	if m.curCore != 1 {
		t.Fatalf("SetCore(99) changed the selected core to %d", m.curCore)
	}
}
