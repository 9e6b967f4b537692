package cache

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"nvmstar/internal/memline"
)

// modelLine is one resident line of the reference model.
type modelLine struct {
	data   byte
	dirty  bool
	pinned bool
	lru    uint64
	way    int // the way the cache placed it in; fixed while resident
}

// model is a naive reference for Cache: a map of resident lines with
// LRU stamps, written for obviousness rather than speed.
type model struct {
	sets, ways int
	lines      map[uint64]*modelLine
	clock      uint64
	stats      Stats
}

func (m *model) set(addr uint64) int { return int(addr/memline.Size) & (m.sets - 1) }

// members returns the resident addresses of addr's set.
func (m *model) members(addr uint64) []uint64 {
	var out []uint64
	for a := range m.lines {
		if m.set(a) == m.set(addr) {
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// victim predicts Insert's choice for an absent addr: the lowest free
// way, else the unpinned line with the oldest stamp. evict names the
// displaced line (ok=false when a free way exists); way is -1 when
// every way holds a pinned line.
func (m *model) victim(addr uint64) (way int, evict uint64, ok bool) {
	members := m.members(addr)
	if len(members) < m.ways {
		used := make([]bool, m.ways)
		for _, a := range members {
			used[m.lines[a].way] = true
		}
		for w, u := range used {
			if !u {
				return w, 0, false
			}
		}
	}
	way = -1
	for _, a := range members {
		l := m.lines[a]
		if l.pinned {
			continue
		}
		if way < 0 || l.lru < m.lines[evict].lru {
			way, evict = l.way, a
		}
	}
	return way, evict, way >= 0
}

func (m *model) dirtyCount() int {
	n := 0
	for _, l := range m.lines {
		if l.dirty {
			n++
		}
	}
	return n
}

type evictRec struct {
	addr  uint64
	data  byte
	dirty bool
}

// TestCacheMatchesReferenceModel drives random operation sequences
// through a Cache and the naive model side by side and compares every
// observable after every step: return values, statistics, eviction
// callbacks in order, DirtyCount, SlotOf for every resident line and
// VictimFor for a probe address.
func TestCacheMatchesReferenceModel(t *testing.T) {
	for _, cfg := range []Config{
		{SizeBytes: 2 * 64, Ways: 2},  // one set: every address collides
		{SizeBytes: 16 * 64, Ways: 4}, // four 4-way sets
		{SizeBytes: 32 * 64, Ways: 8}, // four 8-way sets, the simulator's associativity
	} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%dx%d/seed=%d", cfg.SizeBytes/64/cfg.Ways, cfg.Ways, seed), func(t *testing.T) {
				checkAgainstModel(t, cfg, seed, 4000)
			})
		}
	}
}

func checkAgainstModel(t *testing.T, cfg Config, seed int64, steps int) {
	c := MustNew(cfg)
	m := &model{sets: c.NumSets(), ways: c.Ways(), lines: map[uint64]*modelLine{}}
	rng := rand.New(rand.NewSource(seed))
	space := uint64(4 * c.Lines()) // enough addresses to force conflicts
	randAddr := func() uint64 { return uint64(rng.Int63n(int64(space))) * memline.Size }

	var got []evictRec
	record := func(addr uint64, data memline.Line, dirty bool) {
		got = append(got, evictRec{addr, data[0], dirty})
	}
	for step := 0; step < steps; step++ {
		got = got[:0]
		var want []evictRec
		addr := randAddr()
		// Unaligned addresses must behave like their line.
		probe := addr + uint64(rng.Intn(memline.Size))
		l := m.lines[addr]
		op := rng.Intn(12)
		desc := fmt.Sprintf("step %d op %d addr %#x", step, op, addr)
		switch op {
		case 0, 1, 2: // Insert
			data, dirty := byte(rng.Intn(256)), rng.Intn(3) == 0
			if l != nil {
				m.clock++
				l.data, l.dirty, l.lru = data, l.dirty || dirty, m.clock
			} else {
				way, evict, ok := m.victim(addr)
				if way < 0 {
					func() {
						defer func() {
							if recover() == nil {
								t.Fatalf("%s: insert into a fully pinned set did not panic", desc)
							}
						}()
						c.Insert(probe, memline.Line{data}, dirty, record)
					}()
					continue
				}
				if ok {
					v := m.lines[evict]
					want = append(want, evictRec{evict, v.data, v.dirty})
					m.stats.Evictions++
					if v.dirty {
						m.stats.DirtyEvicts++
					}
					delete(m.lines, evict)
				}
				m.clock++
				m.lines[addr] = &modelLine{data: data, dirty: dirty, lru: m.clock, way: way}
			}
			e := c.Insert(probe, memline.Line{data}, dirty, record)
			if e.Data[0] != data || e.Dirty != m.lines[addr].dirty {
				t.Fatalf("%s: Insert returned %+v", desc, e)
			}
		case 3, 4: // Lookup
			e, ok := c.Lookup(probe)
			if ok != (l != nil) {
				t.Fatalf("%s: Lookup hit=%v, model %v", desc, ok, l != nil)
			}
			if l != nil {
				m.clock++
				l.lru = m.clock
				m.stats.Hits++
				if e.Data[0] != l.data || e.Dirty != l.dirty || e.Pinned() != l.pinned {
					t.Fatalf("%s: Lookup entry %+v, model %+v", desc, e, l)
				}
			} else {
				m.stats.Misses++
			}
		case 5, 6: // Take (demand) or Invalidate
			data := memline.Line{0xEE}
			var dirty, ok bool
			if op == 5 {
				dirty, ok = c.Take(probe, &data)
				if l != nil {
					m.stats.Hits++
				} else {
					m.stats.Misses++
				}
			} else {
				dirty, ok = c.Invalidate(probe, &data)
			}
			if ok != (l != nil) {
				t.Fatalf("%s: take/invalidate present=%v, model %v", desc, ok, l != nil)
			}
			if l != nil {
				if data[0] != l.data || dirty != l.dirty {
					t.Fatalf("%s: moved out (%d, %v), model (%d, %v)", desc, data[0], dirty, l.data, l.dirty)
				}
				delete(m.lines, addr)
			} else if data[0] != 0xEE || dirty {
				t.Fatalf("%s: a miss touched the caller's buffer", desc)
			}
		case 7: // Pin / Unpin
			if rng.Intn(2) == 0 {
				if ok := c.Pin(probe); ok != (l != nil) {
					t.Fatalf("%s: Pin=%v, model %v", desc, ok, l != nil)
				}
				if l != nil {
					l.pinned = true
				}
			} else {
				c.Unpin(probe)
				if l != nil {
					l.pinned = false
				}
			}
			if c.IsPinned(probe) != (l != nil && l.pinned) {
				t.Fatalf("%s: IsPinned disagrees", desc)
			}
		case 8: // MarkDirty
			present, transition := c.MarkDirty(probe)
			if present != (l != nil) || transition != (l != nil && !l.dirty) {
				t.Fatalf("%s: MarkDirty=(%v, %v), model %+v", desc, present, transition, l)
			}
			if l != nil {
				l.dirty = true
			}
		case 9: // CleanLine
			if was := c.CleanLine(probe); was != (l != nil && l.dirty) {
				t.Fatalf("%s: CleanLine=%v, model %+v", desc, was, l)
			}
			if l != nil {
				l.dirty = false
			}
		case 10: // FlushAll, rarely
			if rng.Intn(8) != 0 {
				continue
			}
			var dirty []uint64
			for a, ml := range m.lines {
				if ml.dirty {
					dirty = append(dirty, a)
				}
			}
			// Set-major, then way order.
			sort.Slice(dirty, func(i, j int) bool {
				si, sj := m.set(dirty[i]), m.set(dirty[j])
				if si != sj {
					return si < sj
				}
				return m.lines[dirty[i]].way < m.lines[dirty[j]].way
			})
			for _, a := range dirty {
				want = append(want, evictRec{a, m.lines[a].data, true})
				m.lines[a].dirty = false
			}
			c.FlushAll(record)
		case 11: // DropAll, rarely
			if rng.Intn(16) != 0 {
				continue
			}
			c.DropAll()
			m.lines = map[uint64]*modelLine{}
		}

		if len(got) != len(want) {
			t.Fatalf("%s: callbacks %v, model %v", desc, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: callbacks %v, model %v", desc, got, want)
			}
		}
		if c.Stats() != m.stats {
			t.Fatalf("%s: stats %+v, model %+v", desc, c.Stats(), m.stats)
		}
		if c.DirtyCount() != m.dirtyCount() {
			t.Fatalf("%s: DirtyCount %d, model %d", desc, c.DirtyCount(), m.dirtyCount())
		}
		resident := 0
		c.Range(func(a uint64, e *Entry) {
			resident++
			ml := m.lines[a]
			if ml == nil || e.Data[0] != ml.data || e.Dirty != ml.dirty || e.Pinned() != ml.pinned {
				t.Fatalf("%s: Range yields %#x %+v, model %+v", desc, a, e, ml)
			}
		})
		if resident != len(m.lines) {
			t.Fatalf("%s: %d resident lines, model %d", desc, resident, len(m.lines))
		}
		for a, ml := range m.lines {
			set, way, ok := c.SlotOf(a)
			if !ok || set != m.set(a) || way != ml.way {
				t.Fatalf("%s: SlotOf(%#x) = (%d, %d, %v), model (%d, %d)", desc, a, set, way, ok, m.set(a), ml.way)
			}
		}
		if _, _, ok := c.SlotOf(addr); !ok && m.lines[addr] != nil {
			t.Fatalf("%s: SlotOf missed a resident line", desc)
		}
		q := randAddr()
		gotV, gotDirty, gotOK := c.VictimFor(q)
		var wantV uint64
		var wantOK bool
		if m.lines[q] == nil {
			_, wantV, wantOK = m.victim(q)
		}
		if gotOK != wantOK || (wantOK && (gotV != wantV || gotDirty != m.lines[wantV].dirty)) {
			t.Fatalf("%s: VictimFor(%#x) = (%#x, %v, %v), model (%#x, %v)", desc, q, gotV, gotDirty, gotOK, wantV, wantOK)
		}
	}
}
