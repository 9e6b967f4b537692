package counter

import (
	"math/rand"
	"testing"
	"testing/quick"

	"nvmstar/internal/memline"
	"nvmstar/internal/simcrypto"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	n := Node{MACField: 0xdeadbeefcafef00d}
	for i := range n.Counters {
		n.Counters[i] = uint64(i+1) * 0x0123456789ab % (CounterMask + 1)
	}
	got := Decode(n.Encode())
	if got != n {
		t.Fatalf("round trip mismatch: %+v != %+v", got, n)
	}
}

func TestZeroNodeEncodesToZeroLine(t *testing.T) {
	var n Node
	line := n.Encode()
	if !line.IsZero() {
		t.Fatal("zero node did not encode to a zero line")
	}
}

func TestEncodePanicsOnOverflowingCounter(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Encode with 57-bit counter did not panic")
		}
	}()
	n := Node{}
	n.Counters[3] = CounterMask + 1
	n.Encode()
}

func TestEncodeDecodeQuick(t *testing.T) {
	f := func(ctrs [Arity]uint64, mac uint64) bool {
		var n Node
		for i, c := range ctrs {
			n.Counters[i] = c & CounterMask
		}
		n.MACField = mac
		return Decode(n.Encode()) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPackMACField(t *testing.T) {
	field := PackMACField(^uint64(0), 0x3ff)
	if MAC54(field) != simcrypto.MAC54Mask {
		t.Errorf("MAC54 = %#x", MAC54(field))
	}
	if LSB10(field) != 0x3ff {
		t.Errorf("LSB10 = %#x", LSB10(field))
	}
	field = PackMACField(0x1234, 0x2a5)
	if MAC54(field) != 0x1234 || LSB10(field) != 0x2a5 {
		t.Errorf("pack/unpack mismatch: mac %#x lsb %#x", MAC54(field), LSB10(field))
	}
}

func TestPackMACFieldQuick(t *testing.T) {
	f := func(mac, lsb uint64) bool {
		field := PackMACField(mac, lsb)
		return MAC54(field) == mac&simcrypto.MAC54Mask && LSB10(field) == lsb&simcrypto.LSBMask
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCombineLSBSameWindow(t *testing.T) {
	// True value in the same 1024-window as the stale MSB base.
	stale := uint64(5 * 1024)
	for delta := uint64(0); delta < 1024; delta++ {
		truth := stale + delta
		if got := CombineLSB(stale, truth&simcrypto.LSBMask); got != truth {
			t.Fatalf("CombineLSB(%d, lsb(%d)) = %d", stale, truth, got)
		}
	}
}

func TestCombineLSBCrossesWindow(t *testing.T) {
	// Stale value mid-window; true value advanced past the next
	// window boundary (but by < 1024 total, per the forced-flush
	// invariant).
	stale := uint64(5*1024 + 900)
	for delta := uint64(0); delta < 1024; delta++ {
		truth := stale + delta
		if got := CombineLSB(stale, truth&simcrypto.LSBMask); got != truth {
			t.Fatalf("CombineLSB(%d, lsb(%d)) = %d", stale, truth, got)
		}
	}
}

func TestCombineLSBQuick(t *testing.T) {
	// Property: for any stale value and any advance < 1024, the
	// combination reconstructs the true value exactly.
	f := func(stale uint64, advance uint16) bool {
		stale &= CounterMask / 2 // headroom so stale+advance stays in range
		truth := stale + uint64(advance)%1024
		return CombineLSB(stale, truth&simcrypto.LSBMask) == truth
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestIncrementWraps(t *testing.T) {
	if got := Increment(CounterMask); got != 0 {
		t.Fatalf("Increment(max) = %#x, want 0", got)
	}
	if got := Increment(41); got != 42 {
		t.Fatalf("Increment(41) = %d", got)
	}
}

// refDecode and refEncode are the byte-at-a-time codec the word-load
// Decode and Encode must agree with: counter i is bytes [7i, 7i+7)
// little-endian, the MAC field is bytes [56, 64) little-endian.
func refDecode(l memline.Line) Node {
	var n Node
	for i := range n.Counters {
		for b := counterBytes - 1; b >= 0; b-- {
			n.Counters[i] = n.Counters[i]<<8 | uint64(l[i*counterBytes+b])
		}
	}
	for b := 7; b >= 0; b-- {
		n.MACField = n.MACField<<8 | uint64(l[macOffset+b])
	}
	return n
}

func refEncode(n Node) memline.Line {
	var l memline.Line
	for i, c := range n.Counters {
		for b := 0; b < counterBytes; b++ {
			l[i*counterBytes+b] = byte(c >> (8 * b))
		}
	}
	for b := 0; b < 8; b++ {
		l[macOffset+b] = byte(n.MACField >> (8 * b))
	}
	return l
}

func TestCodecMatchesBytewiseReference(t *testing.T) {
	var ones memline.Line
	for i := range ones {
		ones[i] = 0xff
	}
	lines := []memline.Line{{}, ones}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		var l memline.Line
		rng.Read(l[:])
		lines = append(lines, l)
	}
	for _, l := range lines {
		want := refDecode(l)
		got := Decode(l)
		if got != want {
			t.Fatalf("Decode(%x) = %+v, reference %+v", l, got, want)
		}
		if enc := got.Encode(); enc != refEncode(want) || enc != l {
			t.Fatalf("Encode(%+v) = %x, reference %x, line %x", got, enc, refEncode(want), l)
		}
	}
	for i := 0; i < Arity; i++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Encode with counter %d over 56 bits did not panic", i)
				}
			}()
			var n Node
			n.Counters[i] = CounterMask + 1
			n.Encode()
		}()
	}
}
