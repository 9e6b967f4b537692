package simcrypto

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"nvmstar/internal/memline"
)

func suites() map[string]Suite {
	return map[string]Suite{
		"real": NewReal([16]byte{1, 2, 3, 4}),
		"fast": NewFast(42),
	}
}

func TestOTPDeterministic(t *testing.T) {
	for name, s := range suites() {
		a := s.OTP(0x1000, 7)
		b := s.OTP(0x1000, 7)
		if a != b {
			t.Errorf("%s: OTP not deterministic", name)
		}
	}
}

func TestOTPDistinctAcrossInputs(t *testing.T) {
	for name, s := range suites() {
		base := s.OTP(0x1000, 7)
		if base == s.OTP(0x1040, 7) {
			t.Errorf("%s: OTP reused across addresses", name)
		}
		if base == s.OTP(0x1000, 8) {
			t.Errorf("%s: OTP reused across counters", name)
		}
	}
}

func TestOTPKeyDependence(t *testing.T) {
	a := NewReal([16]byte{1}).OTP(64, 1)
	b := NewReal([16]byte{2}).OTP(64, 1)
	if a == b {
		t.Error("real: OTP independent of key")
	}
	c := NewFast(1).OTP(64, 1)
	d := NewFast(2).OTP(64, 1)
	if c == d {
		t.Error("fast: OTP independent of seed")
	}
}

func TestXORLineRoundTrip(t *testing.T) {
	for name, s := range suites() {
		var plain memline.Line
		for i := range plain {
			plain[i] = byte(i * 3)
		}
		pad := s.OTP(0x40, 99)
		cipher := XORLine(plain, pad)
		if cipher == plain {
			t.Errorf("%s: ciphertext equals plaintext", name)
		}
		if got := XORLine(cipher, pad); got != plain {
			t.Errorf("%s: XOR round trip failed", name)
		}
	}
}

func TestMACDeterministicAndSensitive(t *testing.T) {
	for name, s := range suites() {
		m1 := s.MAC([]byte("hello"))
		if m1 != s.MAC([]byte("hello")) {
			t.Errorf("%s: MAC not deterministic", name)
		}
		if m1 == s.MAC([]byte("hellp")) {
			t.Errorf("%s: MAC insensitive to input change", name)
		}
		if m1 == s.MAC([]byte("hellox")) {
			t.Errorf("%s: MAC insensitive to extra byte", name)
		}
	}
}

func TestMACLengthSensitive(t *testing.T) {
	// Inputs that differ only by trailing padding-like bytes must not
	// collide: the tail chunk encodes the residual length.
	for name, s := range suites() {
		a := s.MAC([]byte("abcdefgh"))
		b := s.MAC([]byte("abcdefgh\x00"))
		if a == b {
			t.Errorf("%s: MAC insensitive to trailing zero byte", name)
		}
	}
}

// TestRealMACMatchesReference pins the real suite's MAC to an
// independent computation: the first 8 bytes, little-endian, of
// SHA-256(macKey || msg), where macKey = SHA-256("nvmstar-mac" || key).
func TestRealMACMatchesReference(t *testing.T) {
	key := [16]byte{0x57, 0xa2, 0x0b, 0xff}
	s := NewReal(key)
	macKey := sha256.Sum256(append([]byte("nvmstar-mac"), key[:]...))
	// Lengths around the SHA-256 block (64 B) and padding (55/56 B)
	// boundaries, plus the engine's 80-byte node/data MAC inputs.
	for _, n := range []int{0, 1, 8, 31, 55, 56, 63, 64, 65, 80, 200} {
		msg := make([]byte, n)
		for i := range msg {
			msg[i] = byte(i*37 + n)
		}
		sum := sha256.Sum256(append(macKey[:], msg...))
		if got, want := s.MAC(msg), binary.LittleEndian.Uint64(sum[:8]); got != want {
			t.Errorf("len %d: MAC = %#x, want %#x", n, got, want)
		}
	}
}

// TestSuiteConcurrentUse holds the Suite contract that implementations
// are safe for concurrent use: goroutines sharing one suite compute
// exactly the MACs and pads a serial loop does. Run under -race to
// check for data races as well as wrong values.
func TestSuiteConcurrentUse(t *testing.T) {
	const (
		workers = 4
		msgs    = 200
	)
	for name, s := range suites() {
		t.Run(name, func(t *testing.T) {
			msg := func(i int) []byte {
				b := make([]byte, 80)
				binary.LittleEndian.PutUint64(b, uint64(i))
				return b
			}
			wantMAC := make([]uint64, msgs)
			wantOTP := make([]memline.Line, msgs)
			for i := range wantMAC {
				wantMAC[i] = s.MAC(msg(i))
				wantOTP[i] = s.OTP(uint64(i)*memline.Size, uint64(i))
			}
			var wg sync.WaitGroup
			errs := make(chan string, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for k := 0; k < msgs; k++ {
						i := (k + w*msgs/workers) % msgs // stagger so workers overlap on different inputs
						if s.MAC(msg(i)) != wantMAC[i] || s.OTP(uint64(i)*memline.Size, uint64(i)) != wantOTP[i] {
							errs <- fmt.Sprintf("worker %d: input %d differs from the serial result", w, i)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for e := range errs {
				t.Error(e)
			}
		})
	}
}

func TestMACInputBuilder(t *testing.T) {
	for name, s := range suites() {
		var in1 MACInput
		in1.U64(5).Bytes([]byte{9, 9}).U64(7)
		var in2 MACInput
		in2.U64(5).Bytes([]byte{9, 9}).U64(7)
		if in1.Sum(s) != in2.Sum(s) {
			t.Errorf("%s: builder not deterministic", name)
		}
		var in3 MACInput
		in3.U64(5).Bytes([]byte{9, 8}).U64(7)
		if in1.Sum(s) == in3.Sum(s) {
			t.Errorf("%s: builder insensitive to content", name)
		}
	}
}

func TestMaskConstants(t *testing.T) {
	if MAC54Mask != (uint64(1)<<54)-1 {
		t.Error("MAC54Mask wrong")
	}
	if LSBMask != 1023 {
		t.Error("LSBMask wrong")
	}
	if MAC54Mask&(LSBMask<<54) != 0 {
		t.Error("MAC54 and LSB fields overlap")
	}
	if MAC54Mask|(LSBMask<<54) != ^uint64(0) {
		t.Error("MAC54 and LSB fields do not cover 64 bits")
	}
}

func TestFastMACQuickProperties(t *testing.T) {
	s := NewFast(7)
	// Property: any single-byte perturbation changes the MAC.
	f := func(data []byte, pos uint8) bool {
		if len(data) == 0 {
			return true
		}
		i := int(pos) % len(data)
		orig := s.MAC(data)
		mutated := append([]byte(nil), data...)
		mutated[i] ^= 0x5a
		return s.MAC(mutated) != orig
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestOTPQuickDecryptInverse(t *testing.T) {
	s := NewFast(11)
	f := func(addr, ctr uint64, data [8]byte) bool {
		addr = memline.Align(addr)
		var plain memline.Line
		copy(plain[:], data[:])
		pad := s.OTP(addr, ctr)
		return XORLine(XORLine(plain, pad), pad) == plain
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
