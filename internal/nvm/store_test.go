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

func wearCfg(capacity uint64) Config {
	return Config{CapacityBytes: capacity, Timing: DefaultTiming(), Energy: DefaultEnergy(), TrackWear: true}
}

func TestStoreZeroFillReads(t *testing.T) {
	forEachStore(t, wearCfg(1<<20), func(t *testing.T, d *Device) {
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
	forEachStore(t, wearCfg(1<<20), func(t *testing.T, d *Device) {
		d.Poke(128, memline.Line{7})
		if l, ok := d.Peek(128); !ok || l[0] != 7 {
			t.Fatalf("Peek after Poke = (%v, %v)", l, ok)
		}
		if s := d.Stats(); s.Reads != 0 || s.Writes != 0 || s.TotalEnergyPJ() != 0 {
			t.Fatalf("Peek/Poke counted accesses: %+v", s)
		}
		if w := d.Wear(128); w != 0 {
			t.Fatalf("Poke bumped wear to %d", w)
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

func TestStoreWearTracking(t *testing.T) {
	forEachStore(t, wearCfg(1<<20), func(t *testing.T, d *Device) {
		for i := 0; i < 3; i++ {
			d.Write(64, memline.Line{byte(i)})
		}
		d.Write(256, memline.Line{9})
		if w := d.Wear(64); w != 3 {
			t.Fatalf("Wear(64) = %d, want 3", w)
		}
		if w := d.Wear(256); w != 1 {
			t.Fatalf("Wear(256) = %d, want 1", w)
		}
		if w := d.Wear(512); w != 0 {
			t.Fatalf("Wear of untouched line = %d", w)
		}
		if addr, writes := d.MaxWear(); addr != 64 || writes != 3 {
			t.Fatalf("MaxWear = (%d, %d), want (64, 3)", addr, writes)
		}
		prof := d.WearProfile(0)
		if len(prof) != 2 || prof[0] != (WearEntry{Addr: 64, Writes: 3}) || prof[1] != (WearEntry{Addr: 256, Writes: 1}) {
			t.Fatalf("WearProfile = %+v", prof)
		}
		if prof := d.WearProfile(1); len(prof) != 1 {
			t.Fatalf("limited WearProfile has %d entries", len(prof))
		}
	})
}

func TestStoreWearDisabled(t *testing.T) {
	cfg := Config{CapacityBytes: 1 << 20, Timing: DefaultTiming(), Energy: DefaultEnergy()}
	forEachStore(t, cfg, func(t *testing.T, d *Device) {
		d.Write(64, memline.Line{1})
		if w := d.Wear(64); w != 0 {
			t.Fatalf("wear tracked while disabled: %d", w)
		}
	})
}

func TestStoreLinesWritten(t *testing.T) {
	forEachStore(t, wearCfg(1<<20), func(t *testing.T, d *Device) {
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
	forEachStore(t, wearCfg(capacity), func(t *testing.T, d *Device) {
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
	cfg := wearCfg(1 << 20)
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
	if err := restored.Restore(&fromPaged); err != nil {
		t.Fatal(err)
	}
	if restored.LinesWritten() != paged.LinesWritten() {
		t.Fatalf("cross-store restore: %d lines, want %d", restored.LinesWritten(), paged.LinesWritten())
	}
	if w := restored.Wear(8 * 6400); w != 2 {
		t.Fatalf("cross-store restored wear = %d, want 2", w)
	}
}
