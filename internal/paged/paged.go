// Package paged implements a sparse, fixed-capacity table indexed by
// dense uint64 slot numbers (line indices, in this simulator). It
// replaces the per-access map lookups on the simulator's hot paths: a
// lookup is two array indexations and a bit test, a write allocates at
// most one fixed-size page, and steady-state accesses allocate nothing.
//
// The layout is a two-level radix tree: a directory of lazily
// allocated directories of lazily allocated pages. Presence is tracked
// per slot in a page-local bitmap, so the zero value of V and "never
// written" stay distinguishable — the semantics the sparse NVM line
// store relies on.
package paged

import (
	"fmt"
	"math/bits"
)

const (
	// pageShift sizes a page at 64 slots: one page of memline.Line
	// values holds 4 KiB of lines. Small pages keep copy-on-write cheap
	// — a forked table's first write to a shared page copies only that
	// page — at the price of more pages to allocate on a fresh fill.
	pageShift = 6
	pageSlots = 1 << pageShift
	pageMask  = pageSlots - 1

	// dirShift sizes a directory at 1024 pages (64 K slots, an 8 KiB
	// directory to copy on a forked table's first write); the root
	// directory of the paper's 16 GB space holds 4096 of them.
	dirShift = 10
	dirFan   = 1 << dirShift
	dirMask  = dirFan - 1

	presentWords = pageSlots / 64
)

// cowTag identifies the table that owns a dir or page. Fork gives both
// the parent and the child a fresh tag, so storage allocated before the
// fork is owned by neither side: whichever table writes it first clones
// it (copy-on-write). Tags are compared by pointer identity only; the
// type is non-empty so every allocation has a distinct address.
type cowTag struct{ _ byte }

type page[V any] struct {
	owner   *cowTag
	present [presentWords]uint64
	vals    [pageSlots]V
}

type dir[V any] struct {
	owner *cowTag
	pages [dirFan]*page[V]
}

// Table is a sparse fixed-capacity slot table. The zero Table is not
// usable; construct with New.
type Table[V any] struct {
	slots uint64
	dirs  []*dir[V]
	count int
	// owner tags storage this table may mutate in place. A freshly built
	// table has a nil owner and allocates nil-tagged storage, which
	// compares equal — so tables that never Fork pay two pointer
	// comparisons per write and nothing else.
	owner *cowTag
}

// New creates a table with the given slot capacity. Get beyond the
// capacity reports absence; Ref, Set and Delete beyond it panic (the
// simulator computing an out-of-range slot is a bug).
func New[V any](slots uint64) *Table[V] {
	numPages := (slots + pageSlots - 1) >> pageShift
	numDirs := (numPages + dirFan - 1) >> dirShift
	return &Table[V]{slots: slots, dirs: make([]*dir[V], numDirs)}
}

// Slots returns the table capacity.
func (t *Table[V]) Slots() uint64 { return t.slots }

// Len returns the number of present slots.
func (t *Table[V]) Len() int { return t.count }

// Get returns the value at idx and whether the slot is present.
// Out-of-capacity indices report absence rather than panicking, so
// probe-style callers (the cache-ownership lookup) need no bound check
// of their own.
func (t *Table[V]) Get(idx uint64) (V, bool) {
	var zero V
	if idx >= t.slots {
		return zero, false
	}
	pageIdx := idx >> pageShift
	d := t.dirs[pageIdx>>dirShift]
	if d == nil {
		return zero, false
	}
	p := d.pages[pageIdx&dirMask]
	if p == nil {
		return zero, false
	}
	slot := idx & pageMask
	if p.present[slot>>6]&(1<<(slot&63)) == 0 {
		return zero, false
	}
	return p.vals[slot], true
}

// claim returns the page holding pageIdx with this table as its owner,
// allocating or cloning (copy-on-write) the directory and page as
// needed. Every mutation goes through it, so storage shared with a
// forked table is never written in place.
func (t *Table[V]) claim(pageIdx uint64) *page[V] {
	d := t.dirs[pageIdx>>dirShift]
	switch {
	case d == nil:
		d = &dir[V]{owner: t.owner}
		t.dirs[pageIdx>>dirShift] = d
	case d.owner != t.owner:
		d = &dir[V]{owner: t.owner, pages: d.pages}
		t.dirs[pageIdx>>dirShift] = d
	}
	p := d.pages[pageIdx&dirMask]
	switch {
	case p == nil:
		p = &page[V]{owner: t.owner}
		d.pages[pageIdx&dirMask] = p
	case p.owner != t.owner:
		p = &page[V]{owner: t.owner, present: p.present, vals: p.vals}
		d.pages[pageIdx&dirMask] = p
	}
	return p
}

// Ref returns a pointer to the slot's value, marking it present and
// allocating (or, after a Fork, copy-on-write claiming) its page if
// needed. isNew reports whether the slot was absent before the call.
// The pointer is valid until the next Fork of this table (which turns
// every page shared), though Clear zeroes the value it refers to;
// callers must not retain it across table operations.
func (t *Table[V]) Ref(idx uint64) (ref *V, isNew bool) {
	if idx >= t.slots {
		panic(fmt.Sprintf("paged: slot %d beyond capacity %d", idx, t.slots))
	}
	p := t.claim(idx >> pageShift)
	slot := idx & pageMask
	word, bit := slot>>6, uint64(1)<<(slot&63)
	if p.present[word]&bit == 0 {
		p.present[word] |= bit
		t.count++
		isNew = true
	}
	return &p.vals[slot], isNew
}

// Set stores v at idx, reporting whether the slot was newly created.
func (t *Table[V]) Set(idx uint64, v V) (isNew bool) {
	ref, isNew := t.Ref(idx)
	*ref = v
	return isNew
}

// Delete removes the slot, returning its value and whether it was
// present. The slot's storage is zeroed.
func (t *Table[V]) Delete(idx uint64) (V, bool) {
	var zero V
	if idx >= t.slots {
		panic(fmt.Sprintf("paged: slot %d beyond capacity %d", idx, t.slots))
	}
	pageIdx := idx >> pageShift
	d := t.dirs[pageIdx>>dirShift]
	if d == nil {
		return zero, false
	}
	p := d.pages[pageIdx&dirMask]
	if p == nil {
		return zero, false
	}
	slot := idx & pageMask
	word, bit := slot>>6, uint64(1)<<(slot&63)
	if p.present[word]&bit == 0 {
		return zero, false
	}
	// The slot exists, so the delete mutates its page: claim it first
	// (a no-op unless the page is shared with a forked table).
	p = t.claim(pageIdx)
	out := p.vals[slot]
	p.vals[slot] = zero
	p.present[word] &^= bit
	t.count--
	return out, true
}

// Range calls fn for every present slot in ascending index order.
func (t *Table[V]) Range(fn func(idx uint64, v V)) {
	for di, d := range t.dirs {
		if d == nil {
			continue
		}
		for pi, p := range d.pages {
			if p == nil {
				continue
			}
			base := (uint64(di)<<dirShift | uint64(pi)) << pageShift
			for w, word := range p.present {
				for word != 0 {
					b := bits.TrailingZeros64(word)
					slot := uint64(w)<<6 | uint64(b)
					fn(base|slot, p.vals[slot])
					word &= word - 1
				}
			}
		}
	}
}

// Clear removes every slot. Owned pages are retained and zeroed rather
// than freed — O(allocated pages), skipping pages with nothing present
// — so a table that is cleared and refilled with a similar working set
// allocates nothing. Machine reuse across experiment cells depends on
// this: the NVM line store is Cleared per cell instead of rebuilt.
// Storage shared with a forked table is dropped instead of zeroed (the
// other table still reads it), so the first refill after a Fork
// re-allocates those pages.
func (t *Table[V]) Clear() {
	for di, d := range t.dirs {
		if d == nil {
			continue
		}
		if d.owner != t.owner {
			t.dirs[di] = nil
			continue
		}
		for pi, p := range d.pages {
			if p == nil {
				continue
			}
			if p.owner != t.owner {
				d.pages[pi] = nil
				continue
			}
			occupied := false
			for _, w := range p.present {
				if w != 0 {
					occupied = true
					break
				}
			}
			if !occupied {
				continue
			}
			p.present = [presentWords]uint64{}
			clear(p.vals[:])
		}
	}
	t.count = 0
}

// Fork returns a copy-on-write clone: the child observes exactly the
// parent's current contents, and subsequent writes on either side are
// invisible to the other. The call is O(directories) — page contents
// are shared, not copied — and both tables receive fresh ownership
// tags, so whichever side first mutates a shared page clones it then.
// After the fork, parent and child may be used from different
// goroutines concurrently: shared storage is only ever read, never
// written in place.
func (t *Table[V]) Fork() *Table[V] {
	child := &Table[V]{slots: t.slots, count: t.count, owner: new(cowTag)}
	child.dirs = make([]*dir[V], len(t.dirs))
	copy(child.dirs, t.dirs)
	t.owner = new(cowTag)
	return child
}
