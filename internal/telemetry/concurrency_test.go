package telemetry

import (
	"fmt"
	"sync"
	"testing"
)

// TestRegistryConcurrentRegistrationAndScrape models a reader walking
// the registry on another goroutine under the race detector: writer
// goroutines keep registering gauge funcs while reader goroutines
// concurrently walk SeriesNames and Each. Run with -race (make race
// covers it); the assertions themselves only check that every
// registration survives the concurrency intact.
func TestRegistryConcurrentRegistrationAndScrape(t *testing.T) {
	r := NewRegistry()
	const (
		writers   = 4
		perWriter = 50
		scrapes   = 200
		scrapers  = 2
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				v := float64(i)
				r.GaugeFunc(fmt.Sprintf("w%d.gauge.%03d", w, i), func() float64 { return v })
			}
		}(w)
	}
	for s := 0; s < scrapers; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < scrapes; i++ {
				_ = r.SeriesNames()
				r.Each(func(name string, v float64) {
					if v < 0 {
						t.Errorf("series %s went negative: %v", name, v)
					}
				})
			}
		}()
	}
	wg.Wait()

	// After the dust settles every series is registered once, in
	// sorted order, and reads its own value.
	names := r.SeriesNames()
	if len(names) != writers*perWriter {
		t.Fatalf("found %d series, want %d", len(names), writers*perWriter)
	}
	i := 0
	r.Each(func(name string, v float64) {
		var w, n int
		if _, err := fmt.Sscanf(name, "w%d.gauge.%d", &w, &n); err != nil || float64(n) != v {
			t.Errorf("%s = %v (parse err %v)", name, v, err)
		}
		if name != names[i] {
			t.Errorf("Each order %q at %d, SeriesNames has %q", name, i, names[i])
		}
		i++
	})
}

// TestInstrumentConcurrentUpdates drives Histogram.Observe from
// several goroutines and checks the totals are exact — the CAS loops
// must not lose updates.
func TestInstrumentConcurrentUpdates(t *testing.T) {
	h := NewHistogram([]float64{10, 20})
	const goroutines, n = 8, 10000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < n; j++ {
				h.Observe(15)
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != goroutines*n {
		t.Errorf("histogram count = %d, want %d", got, goroutines*n)
	}
	if got := h.Sum(); got != float64(goroutines*n)*15 {
		t.Errorf("histogram sum = %v, want %v", got, float64(goroutines*n)*15)
	}
	if got := h.Max(); got != 15 {
		t.Errorf("histogram max = %v, want 15", got)
	}
	_, counts := h.Buckets()
	if counts[1] != goroutines*n {
		t.Errorf("bucket counts = %v, want all %d in bucket 1", counts, goroutines*n)
	}
}
