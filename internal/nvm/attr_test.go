package nvm

import (
	"reflect"
	"testing"

	"nvmstar/internal/memline"
)

// hookCauses records the (kind, cause) of every access the hook sees.
func hookCauses(d *Device) *[][2]uint8 {
	var seen [][2]uint8
	d.SetHook(func(kind Access, _ uint64, cause Cause) {
		seen = append(seen, [2]uint8{uint8(kind), uint8(cause)})
	})
	return &seen
}

func TestAttributionUntaggedWritesAreOther(t *testing.T) {
	d := newDev(t, 1<<20)
	seen := hookCauses(d)
	d.Write(0, memline.Line{})
	if want := [][2]uint8{{uint8(AccessWrite), uint8(CauseOther)}}; !reflect.DeepEqual(*seen, want) {
		t.Fatalf("untagged Write reached the hook as %v, want %v", *seen, want)
	}
}

// TestAttributionOOB pins the device side of out-of-band attribution:
// StoreOOB stores the line like Poke — no count, no energy — and
// reports it to the hook with its cause.
func TestAttributionOOB(t *testing.T) {
	d := newDev(t, 1<<20)
	seen := hookCauses(d)
	d.StoreOOB(64, memline.Line{5}, CauseADRFlush)
	if l, ok := d.Peek(64); !ok || l[0] != 5 {
		t.Fatalf("StoreOOB did not store the line: (%v, %v)", l, ok)
	}
	if s := d.Stats(); s != (Stats{}) {
		t.Fatalf("StoreOOB counted: stats %+v", s)
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

// TestBreakdownCopyAccumulateDivide pins the seed merge: a copy is
// independent of its source, and accumulating n equal breakdowns then
// dividing by n gives the breakdown back.
func TestBreakdownCopyAccumulateDivide(t *testing.T) {
	b := breakdown(1, 1, CauseCount{Cause: "adr-flush", Writes: 3})
	sum := b.Copy()
	if !reflect.DeepEqual(sum, b) {
		t.Fatalf("copy = %+v, want %+v", sum, b)
	}
	sum.Accumulate(b)
	if sum.Total != 4 || sum.CauseWrites("data") != 2 || sum.Causes[CauseData].Banks[0] != 2 || sum.OOB[0].Writes != 6 {
		t.Fatalf("accumulated = %+v", sum)
	}
	// Neither Accumulate's receiver nor its operand aliases the other.
	if b.Total != 2 || b.Causes[CauseData].Banks[0] != 1 || b.OOB[0].Writes != 3 {
		t.Fatalf("accumulating into a copy mutated the source: %+v", b)
	}
	sum.DivideBy(2)
	if !reflect.DeepEqual(sum, b) {
		t.Fatalf("averaged = %+v, want %+v", sum, b)
	}
	if (*Breakdown)(nil).Copy() != nil {
		t.Fatal("copy of nil is not nil")
	}
}

// TestBreakdownAccumulateOOBOrder pins that merging keeps the
// out-of-band causes in ascending Cause order, whichever operand saw a
// cause first, as the observatory emits them.
func TestBreakdownAccumulateOOBOrder(t *testing.T) {
	a := breakdown(1, 0, CauseCount{Cause: "recovery", Writes: 2})
	b := breakdown(0, 1, CauseCount{Cause: "adr-flush", Writes: 5})
	ab, ba := a.Copy(), b.Copy()
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
