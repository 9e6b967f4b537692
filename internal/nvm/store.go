package nvm

import (
	"sort"

	"nvmstar/internal/memline"
	"nvmstar/internal/paged"
)

// lineStore is the device's backing store for line contents. Two
// implementations exist: the paged slab store used in production
// (allocation-free steady-state accesses) and the original map store
// kept as the behavioral reference — the shared semantics test suite
// runs against both, so the swap is provably behavior-preserving.
//
// Addresses are line-aligned byte addresses, already bounds-checked by
// the Device. rangeLines iterates in ascending address order.
type lineStore interface {
	load(addr uint64) (memline.Line, bool)
	store(addr uint64, l memline.Line)
	linesWritten() int
	rangeLines(fn func(addr uint64, l memline.Line))
	reset()
	// fork returns a copy-on-write clone observing the current contents;
	// subsequent writes on either side are invisible to the other, and
	// the two stores may then be used from different goroutines.
	fork() lineStore
}

// --- paged slab store --------------------------------------------------

// pagedStore keeps line contents in a sparse two-level page table
// indexed by line number: one access is two array indexations and a
// bit test, and steady-state writes allocate nothing (a fixed-size
// page is allocated on the first write into its range).
type pagedStore struct {
	lines *paged.Table[memline.Line]
}

func newPagedStore(capacityBytes uint64) *pagedStore {
	return &pagedStore{lines: paged.New[memline.Line](capacityBytes / memline.Size)}
}

func (s *pagedStore) load(addr uint64) (memline.Line, bool) {
	return s.lines.Get(addr / memline.Size)
}

func (s *pagedStore) store(addr uint64, l memline.Line) {
	s.lines.Set(addr/memline.Size, l)
}

func (s *pagedStore) linesWritten() int { return s.lines.Len() }

func (s *pagedStore) rangeLines(fn func(addr uint64, l memline.Line)) {
	s.lines.Range(func(idx uint64, l memline.Line) { fn(idx*memline.Size, l) })
}

func (s *pagedStore) reset() { s.lines.Clear() }

func (s *pagedStore) fork() lineStore { return &pagedStore{lines: s.lines.Fork()} }

// --- map store ---------------------------------------------------------

// mapStore is the original map-backed store, kept as the reference
// implementation for the shared semantics tests.
type mapStore struct {
	lines map[uint64]memline.Line
}

func newMapStore() *mapStore {
	return &mapStore{lines: make(map[uint64]memline.Line)}
}

func (s *mapStore) load(addr uint64) (memline.Line, bool) {
	l, ok := s.lines[addr]
	return l, ok
}

func (s *mapStore) store(addr uint64, l memline.Line) { s.lines[addr] = l }
func (s *mapStore) linesWritten() int                 { return len(s.lines) }

func (s *mapStore) rangeLines(fn func(addr uint64, l memline.Line)) {
	addrs := make([]uint64, 0, len(s.lines))
	for a := range s.lines { //detlint:ok keys collected then sorted below
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		fn(a, s.lines[a])
	}
}

func (s *mapStore) reset() { s.lines = make(map[uint64]memline.Line) }

func (s *mapStore) fork() lineStore {
	f := newMapStore()
	for a, l := range s.lines { //detlint:ok order-independent map copy
		f.lines[a] = l
	}
	return f
}
