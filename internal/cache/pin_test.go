package cache

import (
	"testing"

	"nvmstar/internal/memline"
)

// pinCache returns a 1-set, 2-way cache: every address collides, which
// makes pinning effects directly observable.
func pinCache(t *testing.T) *Cache {
	t.Helper()
	return MustNew(Config{SizeBytes: 128, Ways: 2})
}

func TestPinnedLineNotEvicted(t *testing.T) {
	c := pinCache(t)
	c.Insert(0, memline.Line{}, false, nil)
	c.Insert(64, memline.Line{}, false, nil)
	if !c.Pin(0) {
		t.Fatal("Pin missed a cached line")
	}
	var evicted []uint64
	c.Insert(128, memline.Line{}, false, func(addr uint64, _ memline.Line, _ bool) {
		evicted = append(evicted, addr)
	})
	if len(evicted) != 1 || evicted[0] != 64 {
		t.Fatalf("evicted %v, want the unpinned line 64", evicted)
	}
	if !c.Contains(0) {
		t.Fatal("pinned line was displaced")
	}
}

func TestUnpinRestoresEvictability(t *testing.T) {
	c := pinCache(t)
	c.Insert(0, memline.Line{}, false, nil)
	c.Pin(0)
	c.Unpin(0)
	c.Insert(64, memline.Line{}, false, nil)
	c.Insert(128, memline.Line{}, false, nil) // must evict line 0 (LRU)
	if c.Contains(0) {
		t.Fatal("unpinned LRU line not evicted")
	}
}

func TestIsPinned(t *testing.T) {
	c := pinCache(t)
	c.Insert(0, memline.Line{}, false, nil)
	if c.IsPinned(0) {
		t.Fatal("fresh line reported pinned")
	}
	c.Pin(0)
	if !c.IsPinned(0) {
		t.Fatal("pinned line not reported")
	}
	if c.IsPinned(999 * 64) {
		t.Fatal("absent line reported pinned")
	}
}

func TestAllPinnedPanics(t *testing.T) {
	c := pinCache(t)
	c.Insert(0, memline.Line{}, false, nil)
	c.Insert(64, memline.Line{}, false, nil)
	c.Pin(0)
	c.Pin(64)
	defer func() {
		if recover() == nil {
			t.Fatal("insert into fully pinned set did not panic")
		}
	}()
	c.Insert(128, memline.Line{}, false, nil)
}

func TestVictimForMatchesInsert(t *testing.T) {
	c := pinCache(t)
	c.Insert(0, memline.Line{7}, true, nil)
	c.Insert(64, memline.Line{}, false, nil)
	c.Lookup(0) // 64 becomes LRU

	victim, dirty, ok := c.VictimFor(128)
	if !ok || victim != 64 || dirty {
		t.Fatalf("VictimFor = %#x (dirty=%v, ok=%v), want clean line 64", victim, dirty, ok)
	}
	var evicted uint64
	c.Insert(128, memline.Line{}, false, func(addr uint64, _ memline.Line, _ bool) {
		evicted = addr
	})
	if evicted != 64 {
		t.Fatalf("Insert evicted %#x, VictimFor predicted 64", evicted)
	}
}

func TestVictimForNoEvictionCases(t *testing.T) {
	c := pinCache(t)
	// Free slot: no eviction needed.
	if _, _, ok := c.VictimFor(0); ok {
		t.Fatal("VictimFor reported eviction with free slots")
	}
	c.Insert(0, memline.Line{}, false, nil)
	// Address already present: overwrite in place.
	if _, _, ok := c.VictimFor(0); ok {
		t.Fatal("VictimFor reported eviction for resident address")
	}
}

func TestDropAllClearsPins(t *testing.T) {
	c := pinCache(t)
	c.Insert(0, memline.Line{}, false, nil)
	c.Pin(0)
	c.DropAll()
	c.Insert(0, memline.Line{}, false, nil)
	if c.IsPinned(0) {
		t.Fatal("pin survived DropAll")
	}
}
