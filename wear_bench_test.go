package nvmstar_test

// Endurance analysis: PCM cells survive 10^7-10^9 writes (the paper's
// Section I motivation for reducing write traffic). Beyond total
// traffic, the DISTRIBUTION matters: Anubis's shadow table maps hot
// cache slots to fixed NVM lines, concentrating wear; STAR's extra
// writes go to bitmap lines that rotate through ADR. These benchmarks
// report the hottest NVM line per scheme.

import (
	"testing"

	"nvmstar/internal/sim"
)

// BenchmarkWearHotspot reports the maximum per-line write count after
// identical workloads under each scheme.
func BenchmarkWearHotspot(b *testing.B) {
	for _, scheme := range []string{"wb", "star", "anubis"} {
		b.Run(scheme, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m, err := sim.NewMachine(benchCfg(scheme))
				if err != nil {
					b.Fatal(err)
				}
				wear := sim.NewWear(m)
				m.Attach(wear)
				s, err := m.NewSession("ycsb")
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := s.StepN(benchOps); err != nil {
					b.Fatal(err)
				}
				_, maxWear := wear.MaxWear()
				b.ReportMetric(float64(maxWear), "max-line-writes")
				b.ReportMetric(float64(m.Engine().Device().Stats().Writes)/float64(benchOps), "writes/op")
			}
		})
	}
}

// TestWearStaysDistributed asserts the endurance property that makes
// either scheme viable on PCM: no single NVM line absorbs more than a
// tiny fraction of the total write traffic. (Measured behaviour on
// this machine: STAR's hottest line is a recovery-area bitmap line for
// a hot metadata region; Anubis's shadow-table slots rotate with LRU
// ways and spread a little wider — but both stay far under 1% of the
// total, i.e. orders of magnitude inside PCM's 10^7-10^9 endurance
// budget over a device lifetime.)
func TestWearStaysDistributed(t *testing.T) {
	for _, scheme := range []string{"wb", "star", "anubis"} {
		t.Run(scheme, func(t *testing.T) {
			m, err := sim.NewMachine(benchCfg(scheme))
			if err != nil {
				t.Fatal(err)
			}
			wear := sim.NewWear(m)
			m.Attach(wear)
			if _, err := m.RunUnverified("ycsb", 4000); err != nil {
				t.Fatal(err)
			}
			total := m.Engine().Device().Stats().Writes
			addr, maxWear := wear.MaxWear()
			if frac := float64(maxWear) / float64(total); frac > 0.01 {
				t.Errorf("hottest line %#x absorbed %.2f%% of all writes (%d/%d)",
					addr, 100*frac, maxWear, total)
			}
		})
	}
}
