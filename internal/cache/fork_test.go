package cache

import (
	"runtime"
	"sync"
	"testing"

	"nvmstar/internal/memline"
)

// TestCacheForkConcurrentWrites has a cache and its fork write right
// after Fork on separate goroutines, both starting from the shared slot
// arrays. Run under -race it checks that making the arrays one's own
// is safe against the other side doing the same; either way each side
// must end with its own writes and none of the other's.
func TestCacheForkConcurrentWrites(t *testing.T) {
	const lines = 256
	parent := MustNew(Config{SizeBytes: lines * memline.Size, Ways: 8})
	for i := uint64(0); i < lines; i++ {
		parent.Insert(i*memline.Size, memline.Line{0xAA}, false, nil)
	}
	for round := 0; round < 8; round++ {
		fork := parent.Fork()
		var wg sync.WaitGroup
		write := func(c *Cache, mark byte, drop bool) {
			defer wg.Done()
			if drop {
				c.DropAll() // a crash racing the other side's first write
			}
			for i := uint64(0); i < lines; i += 2 {
				c.Insert(i*memline.Size, memline.Line{mark}, true, nil)
				c.Lookup((i + 1) * memline.Size)
			}
		}
		wg.Add(2)
		go write(parent, byte(2*round+1), false)
		go write(fork, byte(2*round+2), round%2 == 1)
		wg.Wait()
		for side, c := range []*Cache{parent, fork} {
			want := byte(2*round + 1 + side)
			for i := uint64(0); i < lines; i += 2 {
				e, ok := c.Peek(i * memline.Size)
				if !ok || e.Data[0] != want || !e.Dirty {
					t.Fatalf("round %d side %d line %d: got %+v present=%v, want data %d dirty", round, side, i, e, ok, want)
				}
			}
		}
	}
}

// TestInsertAfterForkDroppedAllocatesNothing checks that a parent
// whose fork dropped its contents writes its arrays in place: the fork
// released its share, so nothing is left to copy. Copying would
// allocate the 720 KB of slot arrays; the bound leaves room only for
// what the test runtime may allocate meanwhile.
func TestInsertAfterForkDroppedAllocatesNothing(t *testing.T) {
	c := MustNew(Config{SizeBytes: 512 << 10, Ways: 8})
	for i := uint64(0); i < 64; i++ {
		c.Insert(i*memline.Size, memline.Line{1}, i%3 == 0, nil)
	}
	f := c.Fork()
	f.DropAll()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c.Insert(1<<20, memline.Line{2}, true, nil)
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n >= 4<<10 {
		t.Fatalf("Insert after the fork's DropAll allocated %d bytes, want 0", n)
	}
	if _, ok := f.Lookup(0); ok {
		t.Fatal("dropped fork still holds a line")
	}
	if e, ok := c.Peek(0); !ok || e.Data[0] != 1 {
		t.Fatal("parent lost a line when its fork dropped its contents")
	}
}
