// Package cache implements a generic set-associative, write-back cache
// with LRU replacement at 64-byte line granularity. The same type
// serves as the per-core L1/L2 caches, the shared L3, and the security
// metadata cache in the memory controller; the paper's schemes differ
// only in what they do on the eviction and dirty-transition events this
// package surfaces.
//
// The cache is generic over what a slot holds for its line: the CPU
// caches (Cache) hold the 64-byte line itself, the metadata cache holds
// the decoded metadata node, so the engine never re-parses a line it
// already owns.
package cache

import (
	"fmt"

	"nvmstar/internal/memline"
)

// EntryOf is one cache line slot holding a T. Its address and LRU
// stamp live in the cache's tag and stamp arrays, not in the entry: a
// set probe compares tags only, and victim selection reads stamps only.
type EntryOf[T any] struct {
	Data   T
	Dirty  bool
	pinned bool
}

// Entry is a slot of a cache of raw 64-byte lines.
type Entry = EntryOf[memline.Line]

// Pinned reports whether the entry is exempt from victim selection.
func (e *EntryOf[T]) Pinned() bool { return e.pinned }

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
type EvictFn[T any] func(addr uint64, data T, dirty bool)

// Of is a set-associative write-back cache whose slots hold a T. It is
// not safe for concurrent use; the simulator is single-goroutine by
// design so every run is deterministic.
//
// Slots are stored set-major in flat arrays: tags holds one word per
// slot (the line address with bit 0 set when the slot is valid, 0 when
// it is empty — line addresses are 64-byte aligned, so bit 0 is free),
// stamps the slot's LRU stamp (larger = more recently used) and lines
// the entries. A lookup scans only the set's tags, one contiguous
// 64-byte run for an 8-way set, and touches the matching entry alone;
// victim selection scans the set's stamps.
type Of[T any] struct {
	cfg     Config
	numSets int
	tags    []uint64
	stamps  []uint64
	lines   []EntryOf[T]
	clock   uint64
	stats   Stats
	dirty   int // number of dirty lines currently held
}

// Cache is a cache of raw 64-byte lines: the CPU caches.
type Cache = Of[memline.Line]

// tagOf is the tag word of a valid slot holding the line at addr, and
// addrOf its inverse.
func tagOf(addr uint64) uint64 { return addr | 1 }
func addrOf(tag uint64) uint64 { return tag &^ 1 }

// New creates a cache of raw lines; see NewOf.
func New(cfg Config) (*Cache, error) { return NewOf[memline.Line](cfg) }

// NewOf creates a cache whose slots hold a T. SizeBytes must be a
// multiple of Ways*64 and the resulting set count must be a power of
// two (so set indexing is a mask, like real hardware).
func NewOf[T any](cfg Config) (*Of[T], error) {
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
	return &Of[T]{
		cfg:     cfg,
		numSets: numSets,
		tags:    make([]uint64, lineCapacity),
		stamps:  make([]uint64, lineCapacity),
		lines:   make([]EntryOf[T], lineCapacity),
	}, nil
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
func (c *Of[T]) NumSets() int { return c.numSets }

// Ways returns the associativity.
func (c *Of[T]) Ways() int { return c.cfg.Ways }

// Lines returns the total line capacity.
func (c *Of[T]) Lines() int { return len(c.tags) }

// SetIndex returns the set an address maps to.
func (c *Of[T]) SetIndex(addr uint64) int {
	return int(memline.Index(memline.Align(addr))) & (c.numSets - 1)
}

// Stats returns a copy of the event counters.
func (c *Of[T]) Stats() Stats { return c.stats }

// DirtyCount returns the number of dirty lines currently cached.
func (c *Of[T]) DirtyCount() int { return c.dirty }

// setTags returns the first slot of addr's set and the set's tags.
func (c *Of[T]) setTags(addr uint64) (base int, tags []uint64) {
	base = c.SetIndex(addr) * c.cfg.Ways
	return base, c.tags[base : base+c.cfg.Ways]
}

// slot returns the slot holding the line-aligned addr, or -1.
func (c *Of[T]) slot(addr uint64) int {
	base, tags := c.setTags(addr)
	want := tagOf(addr)
	for i, t := range tags {
		if t == want {
			return base + i
		}
	}
	return -1
}

// find returns the entry holding the line-aligned addr, or nil.
func (c *Of[T]) find(addr uint64) *EntryOf[T] {
	if i := c.slot(addr); i >= 0 {
		return &c.lines[i]
	}
	return nil
}

// Lookup returns the cached line and whether it was present, updating
// LRU order and hit/miss statistics.
func (c *Of[T]) Lookup(addr uint64) (*EntryOf[T], bool) {
	if i := c.slot(memline.Align(addr)); i >= 0 {
		c.clock++
		c.stamps[i] = c.clock
		c.stats.Hits++
		return &c.lines[i], true
	}
	c.stats.Misses++
	return nil, false
}

// Peek returns the cached entry without touching LRU order or stats.
func (c *Of[T]) Peek(addr uint64) (*EntryOf[T], bool) {
	e := c.find(memline.Align(addr))
	return e, e != nil
}

// Contains reports presence without touching LRU order or stats.
func (c *Of[T]) Contains(addr uint64) bool {
	return c.slot(memline.Align(addr)) >= 0
}

// Insert places a line in the cache, evicting the set's LRU victim if
// needed (reported through onEvict, which may be nil). Inserting an
// address that is already present overwrites it in place.
func (c *Of[T]) Insert(addr uint64, data T, dirty bool, onEvict EvictFn[T]) *EntryOf[T] {
	addr = memline.Align(addr)
	if i := c.slot(addr); i >= 0 {
		e := &c.lines[i]
		if dirty && !e.Dirty {
			c.dirty++
		}
		e.Data = data
		e.Dirty = e.Dirty || dirty
		c.clock++
		c.stamps[i] = c.clock
		return e
	}
	v := c.victimSlot(addr)
	if v < 0 {
		panic(fmt.Sprintf("cache: every way of set %d is pinned", c.SetIndex(addr)))
	}
	victim := &c.lines[v]
	if tag := c.tags[v]; tag != 0 {
		c.stats.Evictions++
		if victim.Dirty {
			c.stats.DirtyEvicts++
			c.dirty--
		}
		if onEvict != nil {
			onEvict(addrOf(tag), victim.Data, victim.Dirty)
		}
	}
	c.clock++
	c.tags[v] = tagOf(addr)
	c.stamps[v] = c.clock
	victim.Data, victim.Dirty, victim.pinned = data, dirty, false
	if dirty {
		c.dirty++
	}
	return victim
}

// victimSlot returns the slot Insert would fill in addr's set: the
// first empty slot, else the least recently used unpinned entry, or -1
// if every valid slot is pinned.
func (c *Of[T]) victimSlot(addr uint64) int {
	base, tags := c.setTags(addr)
	stamps := c.stamps[base : base+len(tags)]
	oldest := 0
	for i, t := range tags {
		if t == 0 {
			return base + i
		}
		if stamps[i] < stamps[oldest] {
			oldest = i
		}
	}
	if !c.lines[base+oldest].pinned {
		return base + oldest
	}
	// Pins are rare: only now look at every way's pin.
	victim := -1
	for i := range tags {
		if c.lines[base+i].pinned {
			continue
		}
		if victim < 0 || stamps[i] < stamps[victim] {
			victim = i
		}
	}
	if victim < 0 {
		return -1
	}
	return base + victim
}

// VictimFor previews the eviction Insert(addr, ...) would perform: the
// address and dirty bit of the valid line that would leave the cache,
// or ok=false when the insertion needs no eviction (the address is
// already present, or a free slot exists). The engine uses it to flush
// dirty victims before the insertion, so dirty lines never leave the
// cache unwritten.
func (c *Of[T]) VictimFor(addr uint64) (victim uint64, dirty, ok bool) {
	addr = memline.Align(addr)
	if c.slot(addr) >= 0 {
		return 0, false, false
	}
	v := c.victimSlot(addr)
	if v < 0 || c.tags[v] == 0 {
		return 0, false, false
	}
	return addrOf(c.tags[v]), c.lines[v].Dirty, true
}

// Pin exempts a cached line from victim selection, returning whether
// it was present. Pins do not nest: one Unpin releases the line.
func (c *Of[T]) Pin(addr uint64) bool {
	e := c.find(memline.Align(addr))
	if e == nil {
		return false
	}
	e.pinned = true
	return true
}

// Unpin releases a pinned line.
func (c *Of[T]) Unpin(addr uint64) {
	if e := c.find(memline.Align(addr)); e != nil {
		e.pinned = false
	}
}

// IsPinned reports whether a cached line is pinned.
func (c *Of[T]) IsPinned(addr uint64) bool {
	e := c.find(memline.Align(addr))
	return e != nil && e.pinned
}

// MarkDirty marks a cached line dirty, returning whether the line was
// present and whether this was a clean-to-dirty transition. The
// transition signal is what STAR's bitmap lines track.
func (c *Of[T]) MarkDirty(addr uint64) (present, transition bool) {
	e := c.find(memline.Align(addr))
	if e == nil {
		return false, false
	}
	return true, c.MarkEntryDirty(e)
}

// MarkEntryDirty is MarkDirty through an entry handle the caller
// already holds (from Lookup, Peek or Insert), skipping the set scan.
// The handle must come from this cache and still be valid.
func (c *Of[T]) MarkEntryDirty(e *EntryOf[T]) (transition bool) {
	transition = !e.Dirty
	if transition {
		c.dirty++
	}
	e.Dirty = true
	return transition
}

// CleanLine clears the dirty bit of a cached line (after a write-back
// that did not evict, e.g. a flush), returning whether it was dirty.
func (c *Of[T]) CleanLine(addr uint64) (wasDirty bool) {
	e := c.find(memline.Align(addr))
	if e == nil {
		return false
	}
	return c.CleanEntry(e)
}

// CleanEntry is CleanLine through an entry handle the caller already
// holds, skipping the set scan.
func (c *Of[T]) CleanEntry(e *EntryOf[T]) (wasDirty bool) {
	wasDirty = e.Dirty
	if e.Dirty {
		c.dirty--
	}
	e.Dirty = false
	return wasDirty
}

// Invalidate removes a line from the cache without writing it back.
// When data is non-nil the line's contents are moved into it. It
// returns the line's dirty bit and whether it was present. Cross-core
// migration and crash modeling use it.
func (c *Of[T]) Invalidate(addr uint64, data *T) (dirty, ok bool) {
	i := c.slot(memline.Align(addr))
	if i < 0 {
		return false, false
	}
	e := &c.lines[i]
	if data != nil {
		*data = e.Data
	}
	dirty = e.Dirty
	if dirty {
		c.dirty--
	}
	// A zero tag frees the slot; its entry is dead until Insert
	// rewrites every field.
	c.tags[i] = 0
	return dirty, true
}

// Take is Invalidate for a demand probe of an exclusive hierarchy: the
// line moves out and the probe counts as a hit or a miss. LRU order is
// left alone — a hit leaves the set, so there is no recency to update.
func (c *Of[T]) Take(addr uint64, data *T) (dirty, ok bool) {
	dirty, ok = c.Invalidate(addr, data)
	if ok {
		c.stats.Hits++
	} else {
		c.stats.Misses++
	}
	return dirty, ok
}

// FlushAll writes back every dirty line through onEvict and marks the
// whole cache clean but still resident. A nil onEvict just cleans.
func (c *Of[T]) FlushAll(onEvict EvictFn[T]) {
	for i, tag := range c.tags {
		e := &c.lines[i]
		if tag != 0 && e.Dirty {
			if onEvict != nil {
				onEvict(addrOf(tag), e.Data, true)
			}
			e.Dirty = false
			c.dirty--
		}
	}
}

// DropAll invalidates every line without write-back: the cache's
// contents vanish, as volatile state does at a crash.
func (c *Of[T]) DropAll() {
	clear(c.tags)
	clear(c.stamps)
	clear(c.lines)
	c.dirty = 0
}

// Reset restores the cache to its just-constructed state — every line
// invalid, LRU clock and statistics zeroed — reusing the slot arrays.
// The LRU clock must rewind along with the entries: victim selection
// compares stamps, so a stale clock would change eviction order
// relative to a fresh cache.
func (c *Of[T]) Reset() {
	c.DropAll()
	c.clock = 0
	c.stats = Stats{}
}

// Fork returns a deep copy of the cache: same contents, LRU order,
// pins, dirty bits and statistics, in freshly allocated storage. The
// copy and the original may then be used from different goroutines.
func (c *Of[T]) Fork() *Of[T] {
	f := *c
	f.tags = append([]uint64(nil), c.tags...)
	f.stamps = append([]uint64(nil), c.stamps...)
	f.lines = append([]EntryOf[T](nil), c.lines...)
	return &f
}

// Range calls fn for every valid entry with its address. Iteration
// order is by set then way, which is deterministic.
func (c *Of[T]) Range(fn func(addr uint64, e *EntryOf[T])) {
	for i, tag := range c.tags {
		if tag != 0 {
			fn(addrOf(tag), &c.lines[i])
		}
	}
}

// SlotOf returns the (set, way) position of a cached address. The
// Anubis baseline keys its shadow-table entries by cache slot.
func (c *Of[T]) SlotOf(addr uint64) (set, way int, ok bool) {
	i := c.slot(memline.Align(addr))
	if i < 0 {
		return 0, 0, false
	}
	return i / c.cfg.Ways, i % c.cfg.Ways, true
}
