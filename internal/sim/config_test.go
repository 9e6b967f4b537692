package sim

import (
	"testing"

	"nvmstar/internal/nvm"
)

// TestDefaultMatchesTableI pins the default configuration to the
// paper's Table I so accidental drift is caught.
func TestDefaultMatchesTableI(t *testing.T) {
	cfg := Default()
	if cfg.Cores != 8 {
		t.Errorf("cores = %d, Table I says 8", cfg.Cores)
	}
	if cfg.FreqGHz != 2 {
		t.Errorf("frequency = %v GHz, Table I says 2", cfg.FreqGHz)
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

// TestDefaultTimingMatchesTableI pins the PCM latency model.
func TestDefaultTimingMatchesTableI(t *testing.T) {
	tm := nvm.DefaultTiming()
	want := nvm.Timing{TRCDns: 48, TCLns: 15, TCWDns: 13, TFAWns: 50, TWTRns: 7.5, TWRns: 300}
	if tm != want {
		t.Errorf("timing = %+v, Table I says %+v", tm, want)
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

func TestMachineDefaultsFilledIn(t *testing.T) {
	cfg := Default()
	cfg.Suite = nil
	cfg.WriteQueue = 0
	cfg.Banks = 0
	cfg.FreqGHz = 0
	cfg.DataBytes = 16 << 20
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := m.Config()
	if got.WriteQueue <= 0 || got.Banks <= 0 || got.FreqGHz <= 0 {
		t.Fatalf("defaults not applied: %+v", got)
	}
}
