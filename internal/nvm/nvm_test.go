package nvm

import (
	"reflect"
	"testing"

	"nvmstar/internal/memline"
)

func newDev(t *testing.T, capacity uint64) *Device {
	t.Helper()
	d, err := New(Config{CapacityBytes: capacity})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewRejectsBadCapacity(t *testing.T) {
	for _, c := range []uint64{0, 63, 65} {
		if _, err := New(Config{CapacityBytes: c}); err == nil {
			t.Errorf("capacity %d accepted", c)
		}
	}
}

func TestUnwrittenLinesReadZero(t *testing.T) {
	d := newDev(t, 1<<20)
	line, ok := d.Read(128)
	if ok {
		t.Error("unwritten line reported present")
	}
	if !line.IsZero() {
		t.Error("unwritten line not zero")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	d := newDev(t, 1<<20)
	var l memline.Line
	l[0], l[63] = 0xab, 0xcd
	d.Write(640, l)
	got, ok := d.Read(640)
	if !ok || got != l {
		t.Fatalf("read back mismatch (ok=%v)", ok)
	}
}

func TestStatsAndEnergy(t *testing.T) {
	d := newDev(t, 1<<20)
	d.Write(0, memline.Line{})
	d.Write(64, memline.Line{})
	d.Read(0)
	s := d.Stats()
	if s.Writes != 2 || s.Reads != 1 {
		t.Fatalf("stats = %+v", s)
	}
	wantW, wantR := 2*8192.0, 1*1024.0 // 16 and 2 pJ/bit over 512 bits
	if s.WriteEnergy != wantW || s.ReadEnergy != wantR {
		t.Fatalf("energy = %+v", s)
	}
	if s.TotalEnergyPJ() != wantW+wantR {
		t.Fatal("total energy mismatch")
	}
}

func TestPeekAndPokeDoNotCount(t *testing.T) {
	d := newDev(t, 1<<20)
	d.Poke(0, memline.Line{1})
	if _, ok := d.Peek(0); !ok {
		t.Fatal("poked line not visible to Peek")
	}
	if s := d.Stats(); s.Reads != 0 || s.Writes != 0 {
		t.Fatalf("Peek/Poke counted accesses: %+v", s)
	}
}

func TestAccessHookFires(t *testing.T) {
	d := newDev(t, 1<<20)
	type access struct {
		kind  Access
		addr  uint64
		cause Cause
	}
	var events []access
	d.SetHook(func(kind Access, addr uint64, cause Cause) {
		events = append(events, access{kind, addr, cause})
	})
	d.WriteCause(64, memline.Line{}, CauseMAC)
	d.Read(64)
	d.Poke(128, memline.Line{}) // must not fire
	want := []access{{AccessWrite, 64, CauseMAC}, {AccessRead, 64, CauseOther}}
	if !reflect.DeepEqual(events, want) {
		t.Fatalf("hook events = %+v, want %+v", events, want)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	d := newDev(t, 1<<10)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range write did not panic")
		}
	}()
	d.Write(1<<10, memline.Line{})
}

func TestTimingModel(t *testing.T) {
	if ReadNs != 63 {
		t.Errorf("ReadNs = %v, want 63 (tRCD+tCL)", ReadNs)
	}
	if WriteNs != 313 {
		t.Errorf("WriteNs = %v, want 313 (tCWD+tWR)", WriteNs)
	}
}
