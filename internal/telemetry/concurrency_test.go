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
