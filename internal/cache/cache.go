// Package cache implements a generic set-associative, write-back cache
// with LRU replacement at 64-byte line granularity. The same type
// serves as the per-core L1/L2 caches, the shared L3, and the security
// metadata cache in the memory controller; the paper's schemes differ
// only in what they do on the eviction and dirty-transition events this
// package surfaces.
package cache

import (
	"fmt"
	"sort"

	"nvmstar/internal/memline"
)

// Entry is one cache line slot.
type Entry struct {
	Addr   uint64 // line-aligned byte address
	Data   memline.Line
	Dirty  bool
	valid  bool
	pinned bool
	lru    uint64 // global LRU stamp; larger = more recently used
}

// Pinned reports whether the entry is exempt from victim selection.
func (e *Entry) Pinned() bool { return e.pinned }

// Valid reports whether the slot holds a line.
func (e *Entry) Valid() bool { return e.valid }

// Config sizes a cache.
type Config struct {
	SizeBytes int // total capacity
	Ways      int // associativity
}

// Stats counts cache events.
type Stats struct {
	Hits        uint64
	Misses      uint64
	Evictions   uint64 // total evictions of valid lines
	DirtyEvicts uint64 // evictions that required a write-back
}

// HitRatio returns hits/(hits+misses), or 0 for an untouched cache.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// EvictFn receives a line leaving the cache. dirty indicates the line
// was modified and must be written to the next level.
type EvictFn func(addr uint64, data memline.Line, dirty bool)

// Cache is a set-associative write-back cache. It is not safe for
// concurrent use; the simulator is single-goroutine by design so every
// run is deterministic.
type Cache struct {
	cfg     Config
	numSets int
	sets    [][]Entry
	clock   uint64
	stats   Stats
	dirty   int // number of dirty lines currently held
}

// New creates a cache. SizeBytes must be a multiple of Ways*64 and the
// resulting set count must be a power of two (so set indexing is a
// mask, like real hardware).
func New(cfg Config) (*Cache, error) {
	if cfg.Ways <= 0 {
		return nil, fmt.Errorf("cache: ways must be positive, got %d", cfg.Ways)
	}
	lineCapacity := cfg.SizeBytes / memline.Size
	if lineCapacity <= 0 || cfg.SizeBytes%memline.Size != 0 {
		return nil, fmt.Errorf("cache: size %d is not a positive multiple of %d", cfg.SizeBytes, memline.Size)
	}
	if lineCapacity%cfg.Ways != 0 {
		return nil, fmt.Errorf("cache: %d lines not divisible by %d ways", lineCapacity, cfg.Ways)
	}
	numSets := lineCapacity / cfg.Ways
	if numSets&(numSets-1) != 0 {
		return nil, fmt.Errorf("cache: set count %d is not a power of two", numSets)
	}
	sets := make([][]Entry, numSets)
	backing := make([]Entry, numSets*cfg.Ways)
	for i := range sets {
		sets[i] = backing[i*cfg.Ways : (i+1)*cfg.Ways]
	}
	return &Cache{cfg: cfg, numSets: numSets, sets: sets}, nil
}

// MustNew is New but panics on error, for tests and fixed configs.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// NumSets returns the number of sets.
func (c *Cache) NumSets() int { return c.numSets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.cfg.Ways }

// Lines returns the total line capacity.
func (c *Cache) Lines() int { return c.numSets * c.cfg.Ways }

// SetIndex returns the set an address maps to.
func (c *Cache) SetIndex(addr uint64) int {
	return int(memline.Index(memline.Align(addr))) & (c.numSets - 1)
}

// Stats returns a copy of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// DirtyCount returns the number of dirty lines currently cached.
func (c *Cache) DirtyCount() int { return c.dirty }

// find returns the entry holding addr, or nil.
func (c *Cache) find(addr uint64) *Entry {
	set := c.sets[c.SetIndex(addr)]
	for i := range set {
		if set[i].valid && set[i].Addr == addr {
			return &set[i]
		}
	}
	return nil
}

// Lookup returns the cached line and whether it was present, updating
// LRU order and hit/miss statistics.
func (c *Cache) Lookup(addr uint64) (*Entry, bool) {
	addr = memline.Align(addr)
	if e := c.find(addr); e != nil {
		c.clock++
		e.lru = c.clock
		c.stats.Hits++
		return e, true
	}
	c.stats.Misses++
	return nil, false
}

// Peek returns the cached entry without touching LRU order or stats.
func (c *Cache) Peek(addr uint64) (*Entry, bool) {
	e := c.find(memline.Align(addr))
	return e, e != nil
}

// Contains reports presence without touching LRU order or stats.
func (c *Cache) Contains(addr uint64) bool {
	return c.find(memline.Align(addr)) != nil
}

// Insert places a line in the cache, evicting the set's LRU victim if
// needed (reported through onEvict, which may be nil). Inserting an
// address that is already present overwrites it in place.
func (c *Cache) Insert(addr uint64, data memline.Line, dirty bool, onEvict EvictFn) *Entry {
	addr = memline.Align(addr)
	if e := c.find(addr); e != nil {
		if dirty && !e.Dirty {
			c.dirty++
		}
		e.Data = data
		e.Dirty = e.Dirty || dirty
		c.clock++
		e.lru = c.clock
		return e
	}
	victim := c.victimSlot(c.SetIndex(addr))
	if victim == nil {
		panic(fmt.Sprintf("cache: every way of set %d is pinned", c.SetIndex(addr)))
	}
	if victim.valid {
		c.stats.Evictions++
		if victim.Dirty {
			c.stats.DirtyEvicts++
			c.dirty--
		}
		if onEvict != nil {
			onEvict(victim.Addr, victim.Data, victim.Dirty)
		}
	}
	c.clock++
	*victim = Entry{Addr: addr, Data: data, Dirty: dirty, valid: true, lru: c.clock}
	if dirty {
		c.dirty++
	}
	return victim
}

// victimSlot returns the slot Insert would fill in this set: the first
// invalid slot, else the least recently used unpinned entry, or nil if
// every valid slot is pinned.
func (c *Cache) victimSlot(set int) *Entry {
	var victim *Entry
	for i := range c.sets[set] {
		e := &c.sets[set][i]
		if !e.valid {
			return e
		}
		if e.pinned {
			continue
		}
		if victim == nil || e.lru < victim.lru {
			victim = e
		}
	}
	return victim
}

// VictimFor previews the eviction Insert(addr, ...) would perform:
// the valid entry that would leave the cache, or ok=false when the
// insertion needs no eviction (the address is already present, or a
// free slot exists). The engine uses it to flush dirty victims before
// the insertion, so dirty lines never leave the cache unwritten.
func (c *Cache) VictimFor(addr uint64) (*Entry, bool) {
	addr = memline.Align(addr)
	if c.find(addr) != nil {
		return nil, false
	}
	v := c.victimSlot(c.SetIndex(addr))
	if v == nil || !v.valid {
		return nil, false
	}
	return v, true
}

// Pin exempts a cached line from victim selection, returning whether
// it was present. Pins do not nest: one Unpin releases the line.
func (c *Cache) Pin(addr uint64) bool {
	e := c.find(memline.Align(addr))
	if e == nil {
		return false
	}
	e.pinned = true
	return true
}

// Unpin releases a pinned line.
func (c *Cache) Unpin(addr uint64) {
	if e := c.find(memline.Align(addr)); e != nil {
		e.pinned = false
	}
}

// IsPinned reports whether a cached line is pinned.
func (c *Cache) IsPinned(addr uint64) bool {
	e := c.find(memline.Align(addr))
	return e != nil && e.pinned
}

// MarkDirty marks a cached line dirty, returning whether the line was
// present and whether this was a clean-to-dirty transition. The
// transition signal is what STAR's bitmap lines track.
func (c *Cache) MarkDirty(addr uint64) (present, transition bool) {
	e := c.find(memline.Align(addr))
	if e == nil {
		return false, false
	}
	return true, c.MarkEntryDirty(e)
}

// MarkEntryDirty is MarkDirty through an entry handle the caller
// already holds (from Lookup, Peek or Insert), skipping the set scan.
// The handle must come from this cache and still be valid.
func (c *Cache) MarkEntryDirty(e *Entry) (transition bool) {
	transition = !e.Dirty
	if transition {
		c.dirty++
	}
	e.Dirty = true
	return transition
}

// CleanLine clears the dirty bit of a cached line (after a write-back
// that did not evict, e.g. a flush), returning whether it was dirty.
func (c *Cache) CleanLine(addr uint64) (wasDirty bool) {
	e := c.find(memline.Align(addr))
	if e == nil {
		return false
	}
	return c.CleanEntry(e)
}

// CleanEntry is CleanLine through an entry handle the caller already
// holds, skipping the set scan.
func (c *Cache) CleanEntry(e *Entry) (wasDirty bool) {
	wasDirty = e.Dirty
	if e.Dirty {
		c.dirty--
	}
	e.Dirty = false
	return wasDirty
}

// Invalidate removes a line from the cache without writing it back and
// returns the entry contents if it was present. Cross-core migration
// and crash modeling use it.
func (c *Cache) Invalidate(addr uint64) (Entry, bool) {
	e := c.find(memline.Align(addr))
	if e == nil {
		return Entry{}, false
	}
	out := *e
	if e.Dirty {
		c.dirty--
	}
	*e = Entry{}
	return out, true
}

// Take is Invalidate for a demand probe of an exclusive hierarchy: the
// line moves out and the probe counts as a hit or a miss. LRU order is
// left alone — a hit leaves the set, so there is no recency to update.
func (c *Cache) Take(addr uint64) (Entry, bool) {
	e, ok := c.Invalidate(addr)
	if ok {
		c.stats.Hits++
	} else {
		c.stats.Misses++
	}
	return e, ok
}

// FlushAll writes back every dirty line through onEvict and marks the
// whole cache clean but still resident. A nil onEvict just cleans.
func (c *Cache) FlushAll(onEvict EvictFn) {
	for s := range c.sets {
		for i := range c.sets[s] {
			e := &c.sets[s][i]
			if e.valid && e.Dirty {
				if onEvict != nil {
					onEvict(e.Addr, e.Data, true)
				}
				e.Dirty = false
				c.dirty--
			}
		}
	}
}

// DropAll invalidates every line without write-back: the cache's
// contents vanish, as volatile state does at a crash.
func (c *Cache) DropAll() {
	for s := range c.sets {
		for i := range c.sets[s] {
			c.sets[s][i] = Entry{}
		}
	}
	c.dirty = 0
}

// Reset restores the cache to its just-constructed state — every line
// invalid, LRU clock and statistics zeroed — reusing the entry backing
// array. The LRU clock must rewind along with the entries: victim
// selection compares stamps, so a stale clock would change eviction
// order relative to a fresh cache.
func (c *Cache) Reset() {
	c.DropAll()
	c.clock = 0
	c.stats = Stats{}
}

// Fork returns a deep copy of the cache: same contents, LRU order,
// pins, dirty bits and statistics, in freshly allocated storage. The
// copy and the original may then be used from different goroutines.
func (c *Cache) Fork() *Cache {
	f := &Cache{cfg: c.cfg, numSets: c.numSets, clock: c.clock, stats: c.stats, dirty: c.dirty}
	backing := make([]Entry, c.numSets*c.cfg.Ways)
	f.sets = make([][]Entry, c.numSets)
	for i := range f.sets {
		f.sets[i] = backing[i*c.cfg.Ways : (i+1)*c.cfg.Ways]
		copy(f.sets[i], c.sets[i])
	}
	return f
}

// Range calls fn for every valid entry. Iteration order is by set then
// way, which is deterministic.
func (c *Cache) Range(fn func(e *Entry)) {
	for s := range c.sets {
		for i := range c.sets[s] {
			if c.sets[s][i].valid {
				fn(&c.sets[s][i])
			}
		}
	}
}

// SlotOf returns the (set, way) position of a cached address. The
// Anubis baseline keys its shadow-table entries by cache slot.
func (c *Cache) SlotOf(addr uint64) (set, way int, ok bool) {
	addr = memline.Align(addr)
	set = c.SetIndex(addr)
	for i := range c.sets[set] {
		if c.sets[set][i].valid && c.sets[set][i].Addr == addr {
			return set, i, true
		}
	}
	return 0, 0, false
}

// SetEntries returns the valid entries of one set ordered by ascending
// address. The cache-tree's set-MACs are defined over exactly this
// ordering.
func (c *Cache) SetEntries(set int) []*Entry {
	var out []*Entry
	for i := range c.sets[set] {
		if c.sets[set][i].valid {
			out = append(out, &c.sets[set][i])
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}
