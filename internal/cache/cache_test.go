package cache

import (
	"testing"
	"testing/quick"
	"unsafe"

	"nvmstar/internal/memline"
)

// tiny returns a 4-set, 2-way cache (512 B).
func tiny(t *testing.T) *Cache {
	t.Helper()
	c, err := New(Config{SizeBytes: 512, Ways: 2})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	bad := []Config{
		{SizeBytes: 0, Ways: 2},
		{SizeBytes: 100, Ways: 2},    // not multiple of 64
		{SizeBytes: 192, Ways: 2},    // 3 lines not divisible by 2... actually 192/64=3
		{SizeBytes: 512, Ways: 0},    // no ways
		{SizeBytes: 64 * 6, Ways: 2}, // 3 sets: not power of two
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	if _, err := New(Config{SizeBytes: 512 << 10, Ways: 8}); err != nil {
		t.Errorf("paper config rejected: %v", err)
	}
}

func TestInsertLookupHit(t *testing.T) {
	c := tiny(t)
	c.Insert(64, memline.Line{1}, false, nil)
	e, ok := c.Lookup(64)
	if !ok || e.Data[0] != 1 {
		t.Fatal("lookup after insert failed")
	}
	s := c.Stats()
	if s.Hits != 1 {
		t.Fatalf("hits = %d", s.Hits)
	}
}

func TestLRUEviction(t *testing.T) {
	c := tiny(t) // 4 sets, 2 ways; lines 0,256,512 map to set 0 (stride 4 lines * 64B)
	a0, a1, a2 := uint64(0), uint64(4*64), uint64(8*64)
	var evicted []uint64
	onEvict := func(addr uint64, _ memline.Line, _ bool) { evicted = append(evicted, addr) }
	c.Insert(a0, memline.Line{}, false, onEvict)
	c.Insert(a1, memline.Line{}, false, onEvict)
	c.Lookup(a0) // a0 now MRU; a1 is LRU
	c.Insert(a2, memline.Line{}, false, onEvict)
	if len(evicted) != 1 || evicted[0] != a1 {
		t.Fatalf("evicted %v, want [a1=%d]", evicted, a1)
	}
}

func TestDirtyEvictionReported(t *testing.T) {
	c := tiny(t)
	a0, a1, a2 := uint64(0), uint64(4*64), uint64(8*64)
	var dirtyEvicts int
	onEvict := func(_ uint64, _ memline.Line, dirty bool) {
		if dirty {
			dirtyEvicts++
		}
	}
	c.Insert(a0, memline.Line{}, true, onEvict)
	c.Insert(a1, memline.Line{}, false, onEvict)
	c.Insert(a2, memline.Line{}, false, onEvict) // evicts a0 (LRU, dirty)
	if dirtyEvicts != 1 {
		t.Fatalf("dirty evictions = %d", dirtyEvicts)
	}
	if c.Stats().DirtyEvicts != 1 {
		t.Fatalf("stats.DirtyEvicts = %d", c.Stats().DirtyEvicts)
	}
}

func TestMarkDirtyTransitions(t *testing.T) {
	c := tiny(t)
	if present, _ := c.MarkDirty(0); present {
		t.Fatal("MarkDirty on absent line reported present")
	}
	c.Insert(0, memline.Line{}, false, nil)
	present, transition := c.MarkDirty(0)
	if !present || !transition {
		t.Fatal("first MarkDirty should transition")
	}
	_, transition = c.MarkDirty(0)
	if transition {
		t.Fatal("second MarkDirty should not transition")
	}
	if c.DirtyCount() != 1 {
		t.Fatalf("DirtyCount = %d", c.DirtyCount())
	}
	if wasDirty := c.CleanLine(0); !wasDirty {
		t.Fatal("CleanLine lost the dirty bit")
	}
	if c.DirtyCount() != 0 {
		t.Fatalf("DirtyCount after clean = %d", c.DirtyCount())
	}
}

func TestInsertExistingMergesDirty(t *testing.T) {
	c := tiny(t)
	c.Insert(0, memline.Line{}, true, nil)
	c.Insert(0, memline.Line{7}, false, nil) // overwrite clean must keep dirty
	e, _ := c.Peek(0)
	if !e.Dirty || e.Data[0] != 7 {
		t.Fatalf("merged entry: dirty=%v data=%d", e.Dirty, e.Data[0])
	}
	if c.DirtyCount() != 1 {
		t.Fatalf("DirtyCount = %d", c.DirtyCount())
	}
}

func TestInvalidate(t *testing.T) {
	c := tiny(t)
	c.Insert(0, memline.Line{9}, true, nil)
	var data memline.Line
	dirty, ok := c.Invalidate(0, &data)
	if !ok || data[0] != 9 || !dirty {
		t.Fatal("Invalidate did not return the entry")
	}
	if c.Contains(0) {
		t.Fatal("line still present after Invalidate")
	}
	if c.DirtyCount() != 0 {
		t.Fatal("dirty count leaked")
	}
}

func TestFlushAllAndDropAll(t *testing.T) {
	c := tiny(t)
	c.Insert(0, memline.Line{}, true, nil)
	c.Insert(64, memline.Line{}, true, nil)
	var flushed int
	c.FlushAll(func(_ uint64, _ memline.Line, dirty bool) {
		if dirty {
			flushed++
		}
	})
	if flushed != 2 || c.DirtyCount() != 0 {
		t.Fatalf("flushed=%d dirty=%d", flushed, c.DirtyCount())
	}
	if !c.Contains(0) {
		t.Fatal("FlushAll removed lines")
	}
	c.DropAll()
	if c.Contains(0) || c.Contains(64) {
		t.Fatal("DropAll left lines")
	}
}

func TestSlotOf(t *testing.T) {
	c := tiny(t)
	c.Insert(64, memline.Line{}, false, nil)
	set, way, ok := c.SlotOf(64)
	if !ok {
		t.Fatal("SlotOf missed a cached line")
	}
	if set != c.SetIndex(64) || way < 0 || way >= c.Ways() {
		t.Fatalf("slot = (%d, %d)", set, way)
	}
	if _, _, ok := c.SlotOf(128); ok {
		t.Fatal("SlotOf found an absent line")
	}
}

func TestDirtyCountInvariantQuick(t *testing.T) {
	// Property: DirtyCount always equals the number of dirty valid
	// entries, across random operation sequences.
	c := MustNew(Config{SizeBytes: 64 * 16, Ways: 2})
	f := func(ops []uint16) bool {
		for _, op := range ops {
			addr := uint64(op%32) * 64
			switch (op / 32) % 4 {
			case 0:
				c.Insert(addr, memline.Line{}, op%2 == 0, nil)
			case 1:
				c.MarkDirty(addr)
			case 2:
				c.CleanLine(addr)
			case 3:
				c.Invalidate(addr, nil)
			}
		}
		count := 0
		c.Range(func(_ uint64, e *Entry) {
			if e.Dirty {
				count++
			}
		})
		return count == c.DirtyCount()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestSlotFootprint pins the memory cost of one slot: tag word, LRU
// stamp and entry must not exceed the 88-byte entry (address, data,
// flags, stamp) each slot cost before the tag array.
func TestSlotFootprint(t *testing.T) {
	const tagAndStamp = 2 * unsafe.Sizeof(uint64(0))
	if got := unsafe.Sizeof(Entry{}) + tagAndStamp; got > 88 {
		t.Fatalf("a slot costs %d bytes, want at most 88", got)
	}
}
