package secmem_test

import (
	"fmt"
	"testing"

	"nvmstar/internal/memline"
)

// TestRandomCrashPoints is the crash-consistency fuzz: random write
// streams interrupted by crashes at random points. Every write
// acknowledged by the engine is a persisted write, so after recovery
// every line ever written must read back exactly; nothing may be lost,
// rolled back or corrupted, at any crash point, under any recoverable
// scheme.
func TestRandomCrashPoints(t *testing.T) {
	schemes := []string{"star", "anubis", "strict", "phoenix"}
	for _, scheme := range schemes {
		for seed := uint64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", scheme, seed), func(t *testing.T) {
				e := newEngine(t, scheme, 1<<20, 16<<10)
				r := lcg(seed * 1315423911)
				lines := e.Geometry().DataBytes() / memline.Size
				persisted := make(map[uint64]memline.Line)
				var seq uint64
				for burst := 0; burst < 4; burst++ {
					// Random-length burst of writes.
					n := int(r.next()%1200) + 100
					for i := 0; i < n; i++ {
						addr := (r.next() % lines) * memline.Size
						seq++
						l := lineFor(addr, seq)
						if err := e.WriteLine(addr, l); err != nil {
							t.Fatalf("burst %d write %d: %v", burst, i, err)
						}
						persisted[addr] = l
					}
					// Crash at this random point and recover.
					e.Crash()
					rep, err := e.Recover()
					if err != nil {
						t.Fatalf("burst %d recovery: %v", burst, err)
					}
					if !rep.Verified {
						t.Fatalf("burst %d: recovery unverified: %+v", burst, rep)
					}
					// Spot-check a sample of persisted lines each burst
					// (full check at the end).
					checked := 0
					for addr, want := range persisted {
						got, err := e.ReadLine(addr)
						if err != nil {
							t.Fatalf("burst %d read %#x: %v", burst, addr, err)
						}
						if got != want {
							t.Fatalf("burst %d: line %#x lost its persisted content", burst, addr)
						}
						if checked++; checked >= 100 {
							break
						}
					}
				}
				verifyAll(t, e, persisted)
			})
		}
	}
}
