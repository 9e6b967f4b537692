package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"nvmstar/internal/bitmap"
)

// legacyAccumulate is a verbatim copy of the seed-averaging block the
// experiment runner's sequential seed loop used before the arithmetic
// moved onto Results — the ground truth Accumulate/DivideBy must match
// field for field, including integer truncation.
func legacyAccumulate(acc, res *Results) {
	acc.Instructions += res.Instructions
	acc.TimeNs += res.TimeNs
	acc.Cycles += res.Cycles
	acc.IPC += res.IPC
	acc.Dev.Reads += res.Dev.Reads
	acc.Dev.Writes += res.Dev.Writes
	acc.Dev.ReadEnergy += res.Dev.ReadEnergy
	acc.Dev.WriteEnergy += res.Dev.WriteEnergy
	acc.DirtyMetaLines += res.DirtyMetaLines
	acc.DirtyMetaFrac += res.DirtyMetaFrac
	if acc.Bitmap != nil && res.Bitmap != nil {
		sum := *acc.Bitmap
		sum.L1.Accesses += res.Bitmap.L1.Accesses
		sum.L1.Hits += res.Bitmap.L1.Hits
		sum.L1.Misses += res.Bitmap.L1.Misses
		sum.L1.Evicts += res.Bitmap.L1.Evicts
		sum.L1.Fills += res.Bitmap.L1.Fills
		sum.L2.Accesses += res.Bitmap.L2.Accesses
		sum.L2.Hits += res.Bitmap.L2.Hits
		sum.L2.Misses += res.Bitmap.L2.Misses
		sum.L2.Evicts += res.Bitmap.L2.Evicts
		sum.L2.Fills += res.Bitmap.L2.Fills
		acc.Bitmap = &sum
	}
}

func legacyDivide(acc *Results, seeds int) {
	if seeds <= 1 {
		return
	}
	n := uint64(seeds)
	fn := float64(seeds)
	acc.Instructions /= n
	acc.TimeNs /= fn
	acc.Cycles /= fn
	acc.IPC /= fn
	acc.Dev.Reads /= n
	acc.Dev.Writes /= n
	acc.Dev.ReadEnergy /= fn
	acc.Dev.WriteEnergy /= fn
	acc.DirtyMetaLines /= seeds
	acc.DirtyMetaFrac /= fn
	if acc.Bitmap != nil {
		acc.Bitmap.L1.Accesses /= n
		acc.Bitmap.L1.Hits /= n
		acc.Bitmap.L1.Misses /= n
		acc.Bitmap.L1.Evicts /= n
		acc.Bitmap.L1.Fills /= n
		acc.Bitmap.L2.Accesses /= n
		acc.Bitmap.L2.Hits /= n
		acc.Bitmap.L2.Misses /= n
		acc.Bitmap.L2.Evicts /= n
		acc.Bitmap.L2.Fills /= n
	}
}

// randomResults fills every accumulated field (and a few that must NOT
// be accumulated, to catch over-eager additions) from rng.
func randomResults(rng *rand.Rand, withBitmap bool) *Results {
	r := &Results{
		Workload:       "hash",
		Scheme:         "star",
		Ops:            int(rng.Int31n(100000)),
		Instructions:   rng.Uint64() >> 8,
		TimeNs:         rng.Float64() * 1e9,
		Cycles:         rng.Float64() * 1e9,
		IPC:            rng.Float64() * 4,
		DirtyMetaLines: int(rng.Int31n(4096)),
		DirtyMetaFrac:  rng.Float64(),
	}
	r.Dev.Reads = rng.Uint64() >> 8
	r.Dev.Writes = rng.Uint64() >> 8
	r.Dev.ReadEnergy = rng.Float64() * 1e6
	r.Dev.WriteEnergy = rng.Float64() * 1e6
	r.Engine.DataNVMWrites = rng.Uint64() >> 8
	if withBitmap {
		var bm bitmap.Stats
		for _, l := range []*struct{ a, h, m, e, f *uint64 }{
			{&bm.L1.Accesses, &bm.L1.Hits, &bm.L1.Misses, &bm.L1.Evicts, &bm.L1.Fills},
			{&bm.L2.Accesses, &bm.L2.Hits, &bm.L2.Misses, &bm.L2.Evicts, &bm.L2.Fills},
		} {
			*l.a, *l.h, *l.m, *l.e, *l.f = rng.Uint64()>>8, rng.Uint64()>>8,
				rng.Uint64()>>8, rng.Uint64()>>8, rng.Uint64()>>8
		}
		bm.SetOps = rng.Uint64() >> 8
		r.Bitmap = &bm
	}
	return r
}

func clone(r *Results) *Results {
	c := *r
	if r.Bitmap != nil {
		bm := *r.Bitmap
		c.Bitmap = &bm
	}
	return &c
}

// TestAccumulateDivideMatchesLegacyLoop folds randomized seed results
// through both the legacy block and the Results methods and requires
// bit-identical outcomes — with and without the Bitmap block, at
// several seed counts (1 exercises the no-divide path, odd counts the
// integer truncation).
func TestAccumulateDivideMatchesLegacyLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, withBitmap := range []bool{true, false} {
		for _, seeds := range []int{1, 2, 3, 5, 8} {
			perSeed := make([]*Results, seeds)
			for i := range perSeed {
				perSeed[i] = randomResults(rng, withBitmap)
			}

			want := clone(perSeed[0])
			for i := 1; i < seeds; i++ {
				legacyAccumulate(want, perSeed[i])
			}
			legacyDivide(want, seeds)

			got := clone(perSeed[0])
			for i := 1; i < seeds; i++ {
				got.Accumulate(perSeed[i])
			}
			got.DivideBy(seeds)

			if !reflect.DeepEqual(want, got) {
				t.Errorf("seeds=%d bitmap=%v: Accumulate/DivideBy diverges from the legacy loop:\nlegacy %+v\nmethod %+v",
					seeds, withBitmap, want, got)
			}
		}
	}
}

// TestAccumulateCopiesBitmap pins the aliasing contract: accumulating
// must replace r.Bitmap with a fresh copy rather than mutate the
// original in place (machine snapshots may alias it).
func TestAccumulateCopiesBitmap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomResults(rng, true)
	orig := a.Bitmap
	before := *orig
	a.Accumulate(randomResults(rng, true))
	if a.Bitmap == orig {
		t.Fatal("Accumulate mutated the shared Bitmap stats in place")
	}
	if !reflect.DeepEqual(*orig, before) {
		t.Fatal("Accumulate changed the original Bitmap stats")
	}
}

// TestResultsCloneIsDeep pins Clone's contract, which the experiment
// runner's run memo relies on when it hands one run to several seed
// merges: the clone equals the original, and mutating every pointer
// and slice the clone holds leaves the original untouched.
func TestResultsCloneIsDeep(t *testing.T) {
	for _, scheme := range []string{"star", "anubis"} {
		cfg := observeConfig(scheme)
		res, _, err := RunScenario(cfg, "hash", 400)
		if err != nil {
			t.Fatal(err)
		}
		if res.WriteBreakdown == nil || res.Latency == nil ||
			(res.Bitmap == nil && res.Anubis == nil) {
			t.Fatalf("%s: run lacks a field Clone must copy: %+v", scheme, res)
		}
		want, _, err := RunScenario(cfg, "hash", 400) // the same run, sharing nothing with res
		if err != nil {
			t.Fatal(err)
		}
		c := res.Clone()
		if !reflect.DeepEqual(c, res) {
			t.Fatalf("%s: clone differs from the original", scheme)
		}
		if c.Bitmap != nil {
			c.Bitmap.L1.Hits++
		}
		if c.Anubis != nil {
			c.Anubis.STWrites++
		}
		c.WriteBreakdown.Causes[0].Banks[0]++
		c.Latency.Ops[0].BucketsNs[0]++
		c.Latency.Ops[0].Components = append(c.Latency.Ops[0].Components[:0], ComponentNs{})
		if !reflect.DeepEqual(res, want) {
			t.Fatalf("%s: mutating the clone changed the original", scheme)
		}
	}
}
