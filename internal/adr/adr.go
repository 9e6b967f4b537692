// Package adr models the Asynchronous DRAM Refresh (ADR) domain of the
// memory controller: a small battery-backed buffer whose contents are
// guaranteed to reach NVM when power fails.
//
// STAR keeps its bitmap lines in ADR. The Pool here is a fully
// associative, LRU-replaced set of line-sized slots keyed by an
// arbitrary identifier: on a miss the caller supplies the backing load,
// and the evicted victim is handed back for write-back to the recovery
// area. At a crash every resident slot is flushed by battery.
package adr

import "fmt"

// Stats counts pool events. Hits and Misses feed the paper's Table II
// (ADR bitmap-line hit ratio); evictions and fills are the NVM traffic
// in Fig. 10.
type Stats struct {
	Accesses uint64
	Hits     uint64
	Misses   uint64
	Evicts   uint64 // dirty write-backs caused by replacement
	Fills    uint64 // backing-store loads caused by misses
}

// Sub returns s - o, for measuring a phase between two snapshots.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Accesses: s.Accesses - o.Accesses,
		Hits:     s.Hits - o.Hits,
		Misses:   s.Misses - o.Misses,
		Evicts:   s.Evicts - o.Evicts,
		Fills:    s.Fills - o.Fills,
	}
}

// HitRatio returns Hits/Accesses, or 0 when untouched.
func (s Stats) HitRatio() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// Words is the payload of one ADR slot: a 512-bit line as 8 words.
type Words [8]uint64

// Test reports bit i of the line.
func (w *Words) Test(i uint) bool { return w[i/64]>>(i%64)&1 == 1 }

// Set sets bit i and reports whether it was previously clear.
func (w *Words) Set(i uint) bool {
	mask := uint64(1) << (i % 64)
	was := w[i/64]&mask != 0
	w[i/64] |= mask
	return !was
}

// Clear clears bit i and reports whether it was previously set.
func (w *Words) Clear(i uint) bool {
	mask := uint64(1) << (i % 64)
	was := w[i/64]&mask != 0
	w[i/64] &^= mask
	return was
}

// PopCount returns the number of set bits.
func (w *Words) PopCount() int {
	n := 0
	for _, v := range w {
		n += popcount(v)
	}
	return n
}

// IsZero reports whether no bit is set.
func (w *Words) IsZero() bool {
	for _, v := range w {
		if v != 0 {
			return false
		}
	}
	return true
}

func popcount(v uint64) int {
	n := 0
	for v != 0 {
		v &= v - 1
		n++
	}
	return n
}

type slot struct {
	id    uint64
	words Words
	valid bool
	lru   uint64
}

// LoadFn fetches the backing copy of line id on an ADR miss.
type LoadFn func(id uint64) Words

// SpillFn persists an evicted line to its backing store.
type SpillFn func(id uint64, w Words)

// Pool is the battery-backed line buffer. Lines resident in the pool
// are always considered dirty with respect to the backing store: they
// are spilled on eviction and on Flush (power-fail battery dump).
type Pool struct {
	slots []slot
	load  LoadFn
	spill SpillFn
	clock uint64
	stats Stats
}

// NewPool creates a pool with n slots.
func NewPool(n int, load LoadFn, spill SpillFn) (*Pool, error) {
	if n <= 0 {
		return nil, fmt.Errorf("adr: pool needs at least one slot, got %d", n)
	}
	if load == nil || spill == nil {
		return nil, fmt.Errorf("adr: load and spill functions are required")
	}
	return &Pool{slots: make([]slot, n), load: load, spill: spill}, nil
}

// Size returns the number of slots.
func (p *Pool) Size() int { return len(p.slots) }

// Stats returns a copy of the event counters.
func (p *Pool) Stats() Stats { return p.stats }

// Access returns the resident line for id, loading it (and evicting the
// LRU victim) on a miss. The returned pointer stays valid until the
// next Access/Flush and may be mutated in place.
func (p *Pool) Access(id uint64) *Words {
	p.stats.Accesses++
	for i := range p.slots {
		s := &p.slots[i]
		if s.valid && s.id == id {
			p.stats.Hits++
			p.clock++
			s.lru = p.clock
			return &s.words
		}
	}
	p.stats.Misses++
	victim := &p.slots[0]
	for i := range p.slots {
		s := &p.slots[i]
		if !s.valid {
			victim = s
			break
		}
		if s.lru < victim.lru {
			victim = s
		}
	}
	if victim.valid {
		p.stats.Evicts++
		p.spill(victim.id, victim.words)
	}
	p.stats.Fills++
	p.clock++
	*victim = slot{id: id, words: p.load(id), valid: true, lru: p.clock}
	return &victim.words
}

// Fork returns a deep copy of the pool — same resident lines, LRU
// order and statistics — wired to the given load and spill functions.
// The caller supplies fresh functions because the originals close over
// the parent's owner (the bitmap tracker and its device); the copy's
// owner must provide its own. The copy and the original may then be
// used from different goroutines.
func (p *Pool) Fork(load LoadFn, spill SpillFn) (*Pool, error) {
	if load == nil || spill == nil {
		return nil, fmt.Errorf("adr: load and spill functions are required")
	}
	f := &Pool{load: load, spill: spill, clock: p.clock, stats: p.stats}
	f.slots = append([]slot(nil), p.slots...)
	return f, nil
}

// Peek returns the resident line for id without LRU or stat effects.
func (p *Pool) Peek(id uint64) (*Words, bool) {
	for i := range p.slots {
		if p.slots[i].valid && p.slots[i].id == id {
			return &p.slots[i].words, true
		}
	}
	return nil, false
}

// Flush spills every resident line via fn (battery dump at power
// failure) and leaves the pool empty. A nil fn uses the pool's spill
// function but does not count evictions — power-fail flushes happen
// outside the measured run.
func (p *Pool) Flush(fn SpillFn) {
	if fn == nil {
		fn = p.spill
	}
	for i := range p.slots {
		if p.slots[i].valid {
			fn(p.slots[i].id, p.slots[i].words)
			p.slots[i] = slot{}
		}
	}
}
