package anubis_test

import (
	"errors"
	"testing"

	"nvmstar/internal/attack"
	"nvmstar/internal/cache"
	"nvmstar/internal/memline"
	"nvmstar/internal/schemes/anubis"
	"nvmstar/internal/schemes/phoenix"
	"nvmstar/internal/secmem"
	"nvmstar/internal/simcrypto"
	"nvmstar/internal/sit"
)

// schemes are the two users of the shadow table.
var schemes = []string{"anubis", "phoenix"}

// newEngine builds a small engine running the named scheme and returns
// the scheme's shadow table alongside it.
func newEngine(t testing.TB, scheme string) (*secmem.Engine, *anubis.ShadowTable) {
	t.Helper()
	e, err := secmem.New(secmem.Config{
		DataBytes: 1 << 20,
		MetaCache: cache.Config{SizeBytes: 16 << 10, Ways: 8},
		Suite:     simcrypto.NewFast(4242),
	})
	if err != nil {
		t.Fatal(err)
	}
	var st *anubis.ShadowTable
	switch scheme {
	case "anubis":
		s, err := anubis.New(e)
		if err != nil {
			t.Fatal(err)
		}
		e.SetScheme(s)
		st = s.ShadowTable
	case "phoenix":
		s, err := phoenix.New(e)
		if err != nil {
			t.Fatal(err)
		}
		e.SetScheme(s)
		st = s.ShadowTable
	default:
		t.Fatalf("unknown scheme %q", scheme)
	}
	return e, st
}

func lineFor(addr, seq uint64) memline.Line {
	var l memline.Line
	for i := range l {
		l[i] = byte(addr>>5) ^ byte(seq*31) ^ byte(i)
	}
	return l
}

func workload(t testing.TB, e *secmem.Engine, n int, seed uint64) map[uint64]memline.Line {
	t.Helper()
	expect := make(map[uint64]memline.Line)
	x := seed
	lines := e.Geometry().DataBytes() / memline.Size
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		addr := (x >> 11 % lines) * memline.Size
		l := lineFor(addr, uint64(i))
		if err := e.WriteLine(addr, l); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		expect[addr] = l
	}
	return expect
}

func verifyAll(t testing.TB, e *secmem.Engine, expect map[uint64]memline.Line) {
	t.Helper()
	for addr, want := range expect {
		got, err := e.ReadLine(addr)
		if err != nil || got != want {
			t.Fatalf("read %#x: %v", addr, err)
		}
	}
}

func TestEntryCodecRoundTrip(t *testing.T) {
	in := anubis.Entry{NodeAddr: 0x1234_5678_9abc_def0, MAC: 0xfedc_ba98_7654_3210}
	for i := range in.CtrLSBs {
		// Bits above 48 must be dropped by the encoding.
		in.CtrLSBs[i] = uint64(i+1)<<52 | uint64(i)*0x0101_0101_0101
	}
	out := anubis.DecodeEntry(in.Encode())
	if out.NodeAddr != in.NodeAddr || out.MAC != in.MAC {
		t.Fatalf("address/MAC: got %#x/%#x, want %#x/%#x", out.NodeAddr, out.MAC, in.NodeAddr, in.MAC)
	}
	for i, c := range in.CtrLSBs {
		if want := c & anubis.LSB48Mask; out.CtrLSBs[i] != want {
			t.Errorf("counter %d: got %#x, want %#x", i, out.CtrLSBs[i], want)
		}
	}
}

func TestCombine48(t *testing.T) {
	const hi = uint64(3) << 48
	for _, tc := range []struct {
		name              string
		stale, lsb48, out uint64
	}{
		{"current entry advances the stale counter", hi | 100, 140, hi | 140},
		{"equal entry keeps the counter", hi | 100, 100, hi | 100},
		{"leftover entry combining lower keeps the stale counter", hi | 100, 60, hi | 100},
	} {
		if got := anubis.Combine48(tc.stale, tc.lsb48); got != tc.out {
			t.Errorf("%s: combine48(%#x, %#x) = %#x, want %#x", tc.name, tc.stale, tc.lsb48, got, tc.out)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	for _, scheme := range schemes {
		t.Run(scheme, func(t *testing.T) {
			e, _ := newEngine(t, scheme)
			verifyAll(t, e, workload(t, e, 3000, 1))
		})
	}
}

func TestCrashRecovery(t *testing.T) {
	for _, scheme := range schemes {
		t.Run(scheme, func(t *testing.T) {
			e, _ := newEngine(t, scheme)
			expect := workload(t, e, 3000, 2)
			e.Crash()
			rep, err := e.Recover()
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Verified {
				t.Fatalf("not verified: %+v", rep)
			}
			verifyAll(t, e, expect)
		})
	}
}

func TestDoubleCrash(t *testing.T) {
	for _, scheme := range schemes {
		t.Run(scheme, func(t *testing.T) {
			e, _ := newEngine(t, scheme)
			expect := workload(t, e, 1500, 3)
			e.Crash()
			if _, err := e.Recover(); err != nil {
				t.Fatal(err)
			}
			for addr, l := range workload(t, e, 1500, 4) {
				expect[addr] = l
			}
			e.Crash()
			if _, err := e.Recover(); err != nil {
				t.Fatal(err)
			}
			verifyAll(t, e, expect)
		})
	}
}

func TestSTTamperDetected(t *testing.T) {
	for _, scheme := range schemes {
		t.Run(scheme, func(t *testing.T) {
			e, _ := newEngine(t, scheme)
			workload(t, e, 3000, 6)
			e.Crash()
			geo := e.Geometry()
			tampered := false
			for slot := uint64(0); slot < geo.STLines(); slot++ {
				if _, ok := e.Device().Peek(geo.STAddr(slot)); ok {
					if err := attack.TamperST(e, slot, 11); err != nil {
						t.Fatal(err)
					}
					tampered = true
					break
				}
			}
			if !tampered {
				t.Skip("no ST entries written")
			}
			if _, err := e.Recover(); !errors.Is(err, secmem.ErrRecoveryVerification) {
				t.Fatalf("ST tampering not detected: %v", err)
			}
		})
	}
}

// TestPhoenixRejectsCounterBlockEntry shadows a counter block through
// the table itself, so the ST root still matches: Anubis replays the
// entry, while Phoenix, which never shadows counter blocks, must
// refuse it.
func TestPhoenixRejectsCounterBlockEntry(t *testing.T) {
	for _, scheme := range schemes {
		t.Run(scheme, func(t *testing.T) {
			e, st := newEngine(t, scheme)
			if err := e.WriteLine(0, lineFor(0, 1)); err != nil {
				t.Fatal(err)
			}
			if err := st.Shadow(sit.NodeID{Level: 0, Index: 0}); err != nil {
				t.Fatal(err)
			}
			e.Crash()
			_, err := e.Recover()
			if scheme == "anubis" {
				if err != nil {
					t.Fatalf("anubis rejected a counter-block entry: %v", err)
				}
				return
			}
			if !errors.Is(err, secmem.ErrRecoveryVerification) {
				t.Fatalf("phoenix accepted an ST entry naming a counter block: %v", err)
			}
		})
	}
}
