package nvm

import (
	"bytes"
	"testing"

	"nvmstar/internal/memline"
)

// forEachStore runs the shared Device-semantics suite against both
// backing stores: the paged slab store used in production and the map
// reference implementation. Identical behavior under this battery is
// what makes the store swap provably behavior-preserving.
func forEachStore(t *testing.T, cfg Config, fn func(t *testing.T, d *Device)) {
	t.Helper()
	for _, tc := range []struct {
		name  string
		build func() lineStore
	}{
		{"paged", func() lineStore { return newPagedStore(cfg.CapacityBytes) }},
		{"map", func() lineStore { return newMapStore() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, err := newWithStore(cfg, tc.build())
			if err != nil {
				t.Fatal(err)
			}
			fn(t, d)
		})
	}
}

func devCfg(capacity uint64) Config {
	return Config{CapacityBytes: capacity}
}

func TestStoreZeroFillReads(t *testing.T) {
	forEachStore(t, devCfg(1<<20), func(t *testing.T, d *Device) {
		line, ok := d.Read(4096)
		if ok {
			t.Fatal("unwritten line reported present")
		}
		if !line.IsZero() {
			t.Fatal("unwritten line not zero-filled")
		}
		// An explicitly written all-zero line IS present: the sparse
		// store must distinguish it from a never-written line.
		d.Write(4096, memline.Line{})
		if _, ok := d.Read(4096); !ok {
			t.Fatal("explicitly written zero line reported absent")
		}
	})
}

func TestStorePeekPokeDoNotCount(t *testing.T) {
	forEachStore(t, devCfg(1<<20), func(t *testing.T, d *Device) {
		d.Poke(128, memline.Line{7})
		if l, ok := d.Peek(128); !ok || l[0] != 7 {
			t.Fatalf("Peek after Poke = (%v, %v)", l, ok)
		}
		if s := d.Stats(); s.Reads != 0 || s.Writes != 0 || s.TotalEnergyPJ() != 0 {
			t.Fatalf("Peek/Poke counted accesses: %+v", s)
		}
		var hooked bool
		d.SetHook(func(Access, uint64, Cause) { hooked = true })
		d.Poke(192, memline.Line{1})
		d.Peek(192)
		if hooked {
			t.Fatal("Peek/Poke fired the access hook")
		}
	})
}

func TestStoreLinesWritten(t *testing.T) {
	forEachStore(t, devCfg(1<<20), func(t *testing.T, d *Device) {
		if d.LinesWritten() != 0 {
			t.Fatal("fresh device has written lines")
		}
		d.Write(0, memline.Line{1})
		d.Write(0, memline.Line{2}) // rewrite: still one distinct line
		d.Write(640, memline.Line{3})
		d.Poke(1280, memline.Line{4}) // pokes create lines too
		if n := d.LinesWritten(); n != 3 {
			t.Fatalf("LinesWritten = %d, want 3", n)
		}
	})
}

func TestStoreTopOfCapacity(t *testing.T) {
	const capacity = 1 << 16
	forEachStore(t, devCfg(capacity), func(t *testing.T, d *Device) {
		top := uint64(capacity - memline.Size)
		d.Write(top, memline.Line{42})
		if l, ok := d.Read(top); !ok || l[0] != 42 {
			t.Fatalf("top line = (%v, %v)", l, ok)
		}
	})
}

// TestStoreSnapshotEquivalence saves from one store implementation and
// restores into the other, in both directions: the serialized image is
// store-independent.
func TestStoreSnapshotEquivalence(t *testing.T) {
	cfg := devCfg(1 << 20)
	fill := func(d *Device) {
		for _, i := range []uint64{9, 2, 7, 1, 8, 8, 2} {
			d.Write(i*6400, memline.Line{byte(i)})
		}
	}
	paged, err := newWithStore(cfg, newPagedStore(cfg.CapacityBytes))
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := newWithStore(cfg, newMapStore())
	if err != nil {
		t.Fatal(err)
	}
	fill(paged)
	fill(mapped)

	var fromPaged, fromMap bytes.Buffer
	if err := paged.Save(&fromPaged); err != nil {
		t.Fatal(err)
	}
	if err := mapped.Save(&fromMap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fromPaged.Bytes(), fromMap.Bytes()) {
		t.Fatal("snapshot bytes differ between store implementations")
	}

	restored, err := newWithStore(cfg, newMapStore())
	if err != nil {
		t.Fatal(err)
	}
	if err := restore(restored, &fromPaged); err != nil {
		t.Fatal(err)
	}
	if restored.LinesWritten() != paged.LinesWritten() {
		t.Fatalf("cross-store restore: %d lines, want %d", restored.LinesWritten(), paged.LinesWritten())
	}
}
