package nvm

import (
	"reflect"
	"testing"

	"nvmstar/internal/memline"
)

func wornDevice(t *testing.T) *Device {
	t.Helper()
	d, err := New(Config{CapacityBytes: 1 << 20, TrackWear: true})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// hookCauses records the (kind, cause) of every access the hook sees.
func hookCauses(d *Device) *[][2]uint8 {
	var seen [][2]uint8
	d.SetHook(func(kind Access, _ uint64, cause Cause) {
		seen = append(seen, [2]uint8{uint8(kind), uint8(cause)})
	})
	return &seen
}

func TestAttributionUntaggedWritesAreOther(t *testing.T) {
	d := wornDevice(t)
	seen := hookCauses(d)
	d.Write(0, memline.Line{})
	if want := [][2]uint8{{uint8(AccessWrite), uint8(CauseOther)}}; !reflect.DeepEqual(*seen, want) {
		t.Fatalf("untagged Write reached the hook as %v, want %v", *seen, want)
	}
}

// TestAttributionOOB pins the device side of out-of-band attribution:
// StoreOOB stores the line like Poke — no count, no energy, no wear —
// and reports it to the hook with its cause.
func TestAttributionOOB(t *testing.T) {
	d := wornDevice(t)
	seen := hookCauses(d)
	d.StoreOOB(64, memline.Line{5}, CauseADRFlush)
	if l, ok := d.Peek(64); !ok || l[0] != 5 {
		t.Fatalf("StoreOOB did not store the line: (%v, %v)", l, ok)
	}
	if s := d.Stats(); s != (Stats{}) || d.Wear(64) != 0 {
		t.Fatalf("StoreOOB counted: stats %+v, wear %d", s, d.Wear(64))
	}
	if want := [][2]uint8{{uint8(AccessOOB), uint8(CauseADRFlush)}}; !reflect.DeepEqual(*seen, want) {
		t.Fatalf("hook saw %v, want %v", *seen, want)
	}
}

// breakdown builds a two-bank breakdown with the given data and
// counter writes and out-of-band stores.
func breakdown(data, counter uint64, oob ...CauseCount) *Breakdown {
	b := &Breakdown{Total: data + counter, Banks: 2, Causes: make([]CauseCount, NumCauses), OOB: oob}
	for c := Cause(0); c < NumCauses; c++ {
		b.Causes[c] = CauseCount{Cause: c.String(), Banks: make([]uint64, 2)}
	}
	b.Causes[CauseData].Writes, b.Causes[CauseData].Banks[0] = data, data
	b.Causes[CauseCounter].Writes, b.Causes[CauseCounter].Banks[1] = counter, counter
	return b
}

func TestAttributionSubAccumulateDivide(t *testing.T) {
	before := breakdown(1, 0)
	after := breakdown(2, 1, CauseCount{Cause: "adr-flush", Writes: 3})
	delta := after.Sub(before)
	if delta.Total != 2 || delta.CauseWrites("data") != 1 || delta.CauseWrites("counter") != 1 ||
		!reflect.DeepEqual(delta.OOB, after.OOB) {
		t.Fatalf("delta = %+v", delta)
	}
	// Accumulate two deltas, then average.
	sum := delta.Sub(nil)
	sum.Accumulate(delta)
	if sum.Total != 4 || sum.CauseWrites("data") != 2 || sum.OOB[0].Writes != 6 {
		t.Fatalf("accumulated = %+v", sum)
	}
	sum.DivideBy(2)
	if !reflect.DeepEqual(sum, delta) {
		t.Fatalf("averaged = %+v, want %+v", sum, delta)
	}
	// Accumulate must not have mutated the operand.
	if delta.Total != 2 {
		t.Fatalf("Accumulate mutated its operand: %+v", delta)
	}
}

// TestBreakdownAccumulateOOBOrder pins that merging keeps the
// out-of-band causes in ascending Cause order, whichever operand saw a
// cause first, as Sub emits them.
func TestBreakdownAccumulateOOBOrder(t *testing.T) {
	a := breakdown(1, 0, CauseCount{Cause: "recovery", Writes: 2})
	b := breakdown(0, 1, CauseCount{Cause: "adr-flush", Writes: 5})
	ab, ba := a.Sub(nil), b.Sub(nil)
	ab.Accumulate(b)
	ba.Accumulate(a)
	want := []CauseCount{{Cause: "adr-flush", Writes: 5}, {Cause: "recovery", Writes: 2}}
	if !reflect.DeepEqual(ab.OOB, want) || !reflect.DeepEqual(ba.OOB, want) {
		t.Fatalf("a+b OOB = %+v, b+a OOB = %+v, want both %+v", ab.OOB, ba.OOB, want)
	}
	if !reflect.DeepEqual(ab, ba) {
		t.Fatalf("a+b = %+v differs from b+a = %+v", ab, ba)
	}
}

func TestBankWearStats(t *testing.T) {
	d := wornDevice(t)
	var l memline.Line
	for i := 0; i < 3; i++ {
		d.WriteCause(0, l, CauseData) // bank 0, line 0: wear 3
	}
	d.WriteCause(2*memline.Size, l, CauseData) // bank 0, line 2: wear 1
	d.WriteCause(1*memline.Size, l, CauseData) // bank 1, line 1: wear 1

	stats := d.BankWearStats(2)
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
	d.WriteCause(0, l, CauseData)
	if d.BankWearStats(2)[0].MaxWear != 4 {
		t.Fatal("BankWearStats stale after a write")
	}
	if one := d.BankWearStats(0); len(one) != 1 || one[0].Lines != 3 {
		t.Fatalf("banks < 1 must count as one bank holding every line: %+v", one)
	}
}

func TestWearGrid(t *testing.T) {
	d := wornDevice(t)
	var l memline.Line
	for i := 0; i < 5; i++ {
		d.WriteCause(0, l, CauseData) // bank 0, first slot
	}
	d.WriteCause(1*memline.Size, l, CauseData) // bank 1, first slot
	grid := d.WearGrid(2, 4)
	if len(grid) != 2 || len(grid[0]) != 4 {
		t.Fatalf("grid shape %dx%d, want 2x4", len(grid), len(grid[0]))
	}
	if grid[0][0] != 5 || grid[1][0] != 1 {
		t.Fatalf("grid = %v", grid)
	}
	if d.WearGrid(2, 0) != nil {
		t.Fatal("cols < 1 must return nil")
	}
}
