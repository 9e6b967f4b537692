package sim

import (
	"errors"
	"testing"

	"nvmstar/internal/memline"
	"nvmstar/internal/nvm"
	"nvmstar/internal/secmem"
)

// wornMachine returns a small wb machine with a Wear attached and its
// device, which the tests write directly: every counted device write
// reaches the wear counter through the machine's access hook.
func wornMachine(t *testing.T) (*nvm.Device, *Wear) {
	t.Helper()
	m, err := NewMachine(telemetryTestConfig("wb"))
	if err != nil {
		t.Fatal(err)
	}
	w := NewWear(m)
	m.Attach(w)
	return m.Engine().Device(), w
}

func TestWearTracking(t *testing.T) {
	d, w := wornMachine(t)
	for i := 0; i < 5; i++ {
		d.WriteCause(128, memline.Line{}, nvm.CauseData)
	}
	d.WriteCause(192, memline.Line{}, nvm.CauseData)
	d.Read(256)
	d.Poke(320, memline.Line{})
	d.StoreOOB(384, memline.Line{}, nvm.CauseADRFlush)
	if addr, writes := w.MaxWear(); addr != 128 || writes != 5 {
		t.Fatalf("MaxWear = (%d, %d), want (128, 5)", addr, writes)
	}
	if lines := w.BankWearStats(1)[0].Lines; lines != 2 {
		t.Fatalf("%d worn lines, want 2: a read, a poke or an out-of-band store was counted", lines)
	}
	for i := 0; i < 5; i++ {
		d.WriteCause(64, memline.Line{}, nvm.CauseData)
	}
	if addr, writes := w.MaxWear(); addr != 64 || writes != 5 {
		t.Fatalf("MaxWear on a tie = (%d, %d), want the lower address (64, 5)", addr, writes)
	}
}

func TestBankWearStats(t *testing.T) {
	d, w := wornMachine(t)
	var l memline.Line
	for i := 0; i < 3; i++ {
		d.WriteCause(0, l, nvm.CauseData) // bank 0, line 0: wear 3
	}
	d.WriteCause(2*memline.Size, l, nvm.CauseData) // bank 0, line 2: wear 1
	d.WriteCause(1*memline.Size, l, nvm.CauseData) // bank 1, line 1: wear 1

	stats := w.BankWearStats(2)
	if len(stats) != 2 {
		t.Fatalf("len = %d, want 2", len(stats))
	}
	b0 := stats[0]
	if b0.Lines != 2 || b0.MaxWear != 3 || b0.MeanWear != 2 {
		t.Fatalf("bank 0 = %+v, want lines=2 max=3 mean=2", b0)
	}
	if stats[1].Lines != 1 || stats[1].MaxWear != 1 {
		t.Fatalf("bank 1 = %+v", stats[1])
	}
	if b0.P99Wear <= 0 {
		t.Fatalf("bank 0 p99 = %v, want > 0", b0.P99Wear)
	}
	d.WriteCause(0, l, nvm.CauseData)
	if w.BankWearStats(2)[0].MaxWear != 4 {
		t.Fatal("BankWearStats stale after a write")
	}
	if one := w.BankWearStats(0); len(one) != 1 || one[0].Lines != 3 {
		t.Fatalf("banks < 1 must count as one bank holding every line: %+v", one)
	}
}

func TestWearGrid(t *testing.T) {
	d, w := wornMachine(t)
	var l memline.Line
	for i := 0; i < 5; i++ {
		d.WriteCause(0, l, nvm.CauseData) // bank 0, first slot
	}
	d.WriteCause(1*memline.Size, l, nvm.CauseData) // bank 1, first slot
	grid := w.WearGrid(2, 4)
	if len(grid) != 2 || len(grid[0]) != 4 {
		t.Fatalf("grid shape %dx%d, want 2x4", len(grid), len(grid[0]))
	}
	if grid[0][0] != 5 || grid[1][0] != 1 {
		t.Fatalf("grid = %v", grid)
	}
	if w.WearGrid(2, 0) != nil {
		t.Fatal("cols < 1 must return nil")
	}
}

// accessTally counts the device accesses a machine reports, by kind.
type accessTally [3]uint64

func (a *accessTally) Observe(ev Event) {
	if ev.Kind == EvAccess {
		a[ev.Access]++
	}
}

// TestWearCountsEveryDeviceWrite pins the subscriber's invariant on
// every scheme, through set-up, a measured run, a crash and recovery:
// the per-line counts sum to the device writes gained since attach,
// so no counted write is missed and no read or out-of-band store (the
// crash's ADR flush and star's recovery-area resets) is counted.
func TestWearCountsEveryDeviceWrite(t *testing.T) {
	for _, scheme := range Schemes() {
		t.Run(scheme, func(t *testing.T) {
			m, err := NewMachine(telemetryTestConfig(scheme))
			if err != nil {
				t.Fatal(err)
			}
			dev := m.Engine().Device()
			before := dev.Stats().Writes
			w, tally := NewWear(m), &accessTally{}
			m.Attach(w)
			m.Attach(tally)
			if _, err := m.RunUnverified("hash", 400); err != nil {
				t.Fatal(err)
			}
			m.Crash()
			if _, err := m.Recover(); err != nil && !errors.Is(err, secmem.ErrRecoveryUnsupported) {
				t.Fatal(err)
			}
			var sum uint64
			w.lines.Range(func(_, n uint64) { sum += n })
			if gained := dev.Stats().Writes - before; sum != gained || sum != tally[nvm.AccessWrite] {
				t.Fatalf("wear sums to %d; the device gained %d writes and reported %d", sum, gained, tally[nvm.AccessWrite])
			}
			if tally[nvm.AccessRead] == 0 {
				t.Fatal("the run read nothing; the test cannot tell reads are left out")
			}
			if scheme == "star" && tally[nvm.AccessOOB] == 0 {
				t.Fatal("star stored nothing out of band; the test cannot tell such stores are left out")
			}
		})
	}
}
