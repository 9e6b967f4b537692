package sim

// Seed-averaging arithmetic for Results. The experiment runner
// averages a cell's counters over several PRNG seeds; the committed
// baselines (golden corpus, provenance manifests, shape reports) pin
// the averaged values bit-for-bit, so these methods reproduce the
// historical sequential seed loop's accumulation exactly: the same
// fields, in the same order, with the same integer/float division
// semantics. Fields outside that set (Engine, Anubis and the identity
// fields) deliberately keep the first seed's values, as
// the legacy loop did.

// Accumulate adds o's seed-averaged counters into r. It is one step of
// the seed-averaging fold: r starts as the seed-0 Results and each
// later seed is accumulated in ascending order, then DivideBy(seeds)
// finishes the mean. The Bitmap block is summed onto a fresh copy so
// aliased Stats from other snapshots are never mutated.
func (r *Results) Accumulate(o *Results) {
	r.Instructions += o.Instructions
	r.TimeNs += o.TimeNs
	r.Cycles += o.Cycles
	r.IPC += o.IPC
	r.Dev.Reads += o.Dev.Reads
	r.Dev.Writes += o.Dev.Writes
	r.Dev.ReadEnergy += o.Dev.ReadEnergy
	r.Dev.WriteEnergy += o.Dev.WriteEnergy
	r.DirtyMetaLines += o.DirtyMetaLines
	r.DirtyMetaFrac += o.DirtyMetaFrac
	if r.Bitmap != nil && o.Bitmap != nil {
		sum := *r.Bitmap
		sum.L1.Accesses += o.Bitmap.L1.Accesses
		sum.L1.Hits += o.Bitmap.L1.Hits
		sum.L1.Misses += o.Bitmap.L1.Misses
		sum.L1.Evicts += o.Bitmap.L1.Evicts
		sum.L1.Fills += o.Bitmap.L1.Fills
		sum.L2.Accesses += o.Bitmap.L2.Accesses
		sum.L2.Hits += o.Bitmap.L2.Hits
		sum.L2.Misses += o.Bitmap.L2.Misses
		sum.L2.Evicts += o.Bitmap.L2.Evicts
		sum.L2.Fills += o.Bitmap.L2.Fills
		r.Bitmap = &sum
	}
	if r.WriteBreakdown != nil && o.WriteBreakdown != nil {
		sum := r.WriteBreakdown.Sub(nil) // fresh deep copy, aliased snapshots stay unmutated
		sum.Accumulate(o.WriteBreakdown)
		r.WriteBreakdown = sum
	}
	if r.Latency != nil && o.Latency != nil {
		sum := r.Latency.Copy() // fresh deep copy, aliased snapshots stay unmutated
		sum.Accumulate(o.Latency)
		r.Latency = sum
	}
}

// DivideBy turns n accumulated seeds into their mean. Integer counters
// divide with truncation (uint64 and int division, exactly as the
// legacy loop did); n <= 1 is a no-op so single-seed cells pass
// through untouched.
func (r *Results) DivideBy(n int) {
	if n <= 1 {
		return
	}
	un := uint64(n)
	fn := float64(n)
	r.Instructions /= un
	r.TimeNs /= fn
	r.Cycles /= fn
	r.IPC /= fn
	r.Dev.Reads /= un
	r.Dev.Writes /= un
	r.Dev.ReadEnergy /= fn
	r.Dev.WriteEnergy /= fn
	r.DirtyMetaLines /= n
	r.DirtyMetaFrac /= fn
	if r.Bitmap != nil {
		r.Bitmap.L1.Accesses /= un
		r.Bitmap.L1.Hits /= un
		r.Bitmap.L1.Misses /= un
		r.Bitmap.L1.Evicts /= un
		r.Bitmap.L1.Fills /= un
		r.Bitmap.L2.Accesses /= un
		r.Bitmap.L2.Hits /= un
		r.Bitmap.L2.Misses /= un
		r.Bitmap.L2.Evicts /= un
		r.Bitmap.L2.Fills /= un
	}
	r.WriteBreakdown.DivideBy(n)
	r.Latency.DivideBy(n)
}

// Clone returns a deep copy of r: no pointer or slice of the copy
// aliases r, so the copy may be accumulated, divided or handed to
// another goroutine while r stays untouched.
func (r *Results) Clone() *Results {
	c := *r
	if r.Bitmap != nil {
		b := *r.Bitmap
		c.Bitmap = &b
	}
	if r.Anubis != nil {
		a := *r.Anubis
		c.Anubis = &a
	}
	c.WriteBreakdown = r.WriteBreakdown.Sub(nil)
	c.Latency = r.Latency.Copy()
	return &c
}
