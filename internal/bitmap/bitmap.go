// Package bitmap implements STAR's stale-metadata location tracking:
// bitmap lines held in the memory controller's ADR domain, spilled to
// the recovery area (RA) in NVM under LRU, plus the multi-layer index
// that lets recovery read only the non-zero bitmap lines.
//
// One bit of an L1 bitmap line corresponds to one metadata line; one
// bit of an L2 line marks a non-zero L1 line; the single L3 line lives
// in an on-chip non-volatile register (like the SIT root) and marks
// non-zero L2 lines. A 1/2/3-layer index covers 32 KB / 16 MB / 8 GB
// of metadata space respectively.
package bitmap

import (
	"fmt"

	"nvmstar/internal/adr"
	"nvmstar/internal/memline"
	"nvmstar/internal/nvm"
	"nvmstar/internal/sit"
)

// Config sizes the ADR allocation. The paper's default is 16 lines
// split as 14 L1 + 2 L2.
type Config struct {
	ADRL1Lines int
	ADRL2Lines int
}

// DefaultConfig returns the paper's 16-line ADR split.
func DefaultConfig() Config { return Config{ADRL1Lines: 14, ADRL2Lines: 2} }

// Stats aggregates tracking-side traffic.
type Stats struct {
	L1 adr.Stats
	L2 adr.Stats
	// SetOps/ClearOps count dirty-state transitions recorded (clean to
	// dirty / dirty to clean).
	SetOps   uint64
	ClearOps uint64
}

// Sub returns s - o, for measuring a phase between two snapshots.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		L1:       s.L1.Sub(o.L1),
		L2:       s.L2.Sub(o.L2),
		SetOps:   s.SetOps - o.SetOps,
		ClearOps: s.ClearOps - o.ClearOps,
	}
}

// Accesses returns total bitmap-line accesses across both layers.
func (s Stats) Accesses() uint64 { return s.L1.Accesses + s.L2.Accesses }

// Hits returns total ADR hits across both layers.
func (s Stats) Hits() uint64 { return s.L1.Hits + s.L2.Hits }

// HitRatio returns the combined ADR hit ratio (Table II).
func (s Stats) HitRatio() float64 {
	a := s.Accesses()
	if a == 0 {
		return 0
	}
	return float64(s.Hits()) / float64(a)
}

// NVMWrites returns bitmap lines spilled to the RA (extra write
// traffic attributable to STAR, Fig. 10/11).
func (s Stats) NVMWrites() uint64 { return s.L1.Evicts + s.L2.Evicts }

// NVMReads returns bitmap lines read back from the RA.
func (s Stats) NVMReads() uint64 { return s.L1.Fills + s.L2.Fills }

// Tracker records which metadata lines are stale in NVM.
type Tracker struct {
	geo *sit.Geometry
	dev *nvm.Device
	l1  *adr.Pool
	l2  *adr.Pool
	l3  adr.Words // on-chip register line: bit j = L2 line j non-zero
	// setsRecorded counts transition ops for invariant checks.
	setOps, clearOps uint64
}

// NewTracker creates a tracker over the given geometry and device.
func NewTracker(geo *sit.Geometry, dev *nvm.Device, cfg Config) (*Tracker, error) {
	if cfg.ADRL1Lines <= 0 || cfg.ADRL2Lines <= 0 {
		return nil, fmt.Errorf("bitmap: ADR line counts must be positive (got %d L1, %d L2)", cfg.ADRL1Lines, cfg.ADRL2Lines)
	}
	t := &Tracker{geo: geo, dev: dev}
	var err error
	t.l1, err = adr.NewPool(cfg.ADRL1Lines,
		func(id uint64) adr.Words { return t.loadRA(geo.RAL1Addr(id)) },
		func(id uint64, w adr.Words) { t.spillRA(geo.RAL1Addr(id), w) })
	if err != nil {
		return nil, err
	}
	t.l2, err = adr.NewPool(cfg.ADRL2Lines,
		func(id uint64) adr.Words { return t.loadRA(geo.RAL2Addr(id)) },
		func(id uint64, w adr.Words) { t.spillRA(geo.RAL2Addr(id), w) })
	if err != nil {
		return nil, err
	}
	return t, nil
}

func (t *Tracker) loadRA(addr uint64) adr.Words {
	line, _ := t.dev.Read(addr)
	return decodeWords(line)
}

func (t *Tracker) spillRA(addr uint64, w adr.Words) {
	t.dev.WriteCause(addr, encodeWords(w), nvm.CauseBitmap)
}

func decodeWords(l memline.Line) adr.Words {
	var w adr.Words
	for i := range w {
		for b := 0; b < 8; b++ {
			w[i] |= uint64(l[i*8+b]) << (8 * b)
		}
	}
	return w
}

func encodeWords(w adr.Words) memline.Line {
	var l memline.Line
	for i, v := range w {
		for b := 0; b < 8; b++ {
			l[i*8+b] = byte(v >> (8 * b))
		}
	}
	return l
}

// MarkStale records that metadata line metaIdx became stale in NVM
// (its cached copy transitioned clean to dirty).
func (t *Tracker) MarkStale(metaIdx uint64) {
	t.setOps++
	t.update(metaIdx, true)
}

// MarkFresh records that metadata line metaIdx is fresh again (its
// dirty cached copy was written back to NVM).
func (t *Tracker) MarkFresh(metaIdx uint64) {
	t.clearOps++
	t.update(metaIdx, false)
}

func (t *Tracker) update(metaIdx uint64, set bool) {
	if metaIdx >= t.geo.MetaLines() {
		panic(fmt.Sprintf("bitmap: metadata line index %d out of range", metaIdx))
	}
	l1Idx := metaIdx / memline.Bits
	bit := uint(metaIdx % memline.Bits)
	words := t.l1.Access(l1Idx)
	wasZero := words.IsZero()
	if set {
		words.Set(bit)
	} else {
		words.Clear(bit)
	}
	isZero := words.IsZero()
	if wasZero != isZero {
		t.updateL2(l1Idx, !isZero)
	}
}

func (t *Tracker) updateL2(l1Idx uint64, nonZero bool) {
	l2Idx := l1Idx / memline.Bits
	bit := uint(l1Idx % memline.Bits)
	words := t.l2.Access(l2Idx)
	wasZero := words.IsZero()
	if nonZero {
		words.Set(bit)
	} else {
		words.Clear(bit)
	}
	isZero := words.IsZero()
	if wasZero != isZero {
		// The L3 line is an on-chip register: updating it costs no
		// memory traffic.
		if isZero {
			t.l3.Clear(uint(l2Idx % memline.Bits))
		} else {
			t.l3.Set(uint(l2Idx % memline.Bits))
		}
	}
}

// Stats returns the tracker's traffic counters.
func (t *Tracker) Stats() Stats {
	return Stats{L1: t.l1.Stats(), L2: t.l2.Stats(), SetOps: t.setOps, ClearOps: t.clearOps}
}

// Reset restores the tracker to its just-constructed state: both ADR
// pools emptied (without spilling — the whole machine is being
// discarded), the on-chip L3 register and the transition counters
// zeroed. The RA lines previously spilled to NVM are not the tracker's
// to clean up; the machine reset clears the whole device store.
func (t *Tracker) Reset() {
	t.l1.Reset()
	t.l2.Reset()
	t.l3 = adr.Words{}
	t.setOps, t.clearOps = 0, 0
}

// Fork returns a deep copy of the tracker wired to the given (already
// forked) device: ADR pool contents, LRU order, the on-chip L3 register
// and all counters carry over, while the pool load/spill closures are
// rebuilt against the new tracker so RA traffic lands on the new
// device. The copy and the original may then be used from different
// goroutines.
func (t *Tracker) Fork(dev *nvm.Device) (*Tracker, error) {
	f := &Tracker{geo: t.geo, dev: dev, l3: t.l3, setOps: t.setOps, clearOps: t.clearOps}
	var err error
	f.l1, err = t.l1.Fork(
		func(id uint64) adr.Words { return f.loadRA(f.geo.RAL1Addr(id)) },
		func(id uint64, w adr.Words) { f.spillRA(f.geo.RAL1Addr(id), w) })
	if err != nil {
		return nil, err
	}
	f.l2, err = t.l2.Fork(
		func(id uint64) adr.Words { return f.loadRA(f.geo.RAL2Addr(id)) },
		func(id uint64, w adr.Words) { f.spillRA(f.geo.RAL2Addr(id), w) })
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Crash performs the power-fail battery dump: every ADR-resident
// bitmap line is flushed to the RA out of band (StoreOOB: the flush is
// not part of the measured run). The L3 register survives on chip.
func (t *Tracker) Crash() {
	t.l1.Flush(func(id uint64, w adr.Words) {
		t.dev.StoreOOB(t.geo.RAL1Addr(id), encodeWords(w), nvm.CauseADRFlush)
	})
	t.l2.Flush(func(id uint64, w adr.Words) {
		t.dev.StoreOOB(t.geo.RAL2Addr(id), encodeWords(w), nvm.CauseADRFlush)
	})
}

// L3Register returns a copy of the on-chip top index line.
func (t *Tracker) L3Register() adr.Words { return t.l3 }

// SetL3Register overwrites the on-chip top index line. Snapshot
// restore uses it to rebuild the non-volatile register after a
// process restart.
func (t *Tracker) SetL3Register(w adr.Words) { t.l3 = w }

// ScanResult is what recovery learns from the multi-layer index.
type ScanResult struct {
	// StaleMetaIdx lists the metadata line indices marked stale, in
	// ascending order.
	StaleMetaIdx []uint64
	// LinesRead is the number of bitmap lines fetched from the RA
	// (L2 lines + non-zero L1 lines); it feeds the recovery-time model.
	LinesRead uint64
}

// ScanStale walks the multi-layer index after a crash: the on-chip L3
// register names the non-zero L2 lines, which name the non-zero L1
// lines, which name the stale metadata lines. Only non-zero lines are
// read from the RA. Call Crash first so RA holds the ADR contents.
func (t *Tracker) ScanStale() ScanResult {
	var res ScanResult
	for l2Idx := uint64(0); l2Idx < t.geo.RAL2Lines(); l2Idx++ {
		if !t.l3.Test(uint(l2Idx % memline.Bits)) {
			continue
		}
		l2Line, _ := t.dev.Read(t.geo.RAL2Addr(l2Idx))
		res.LinesRead++
		l2Words := decodeWords(l2Line)
		for b := uint(0); b < memline.Bits; b++ {
			if !l2Words.Test(b) {
				continue
			}
			l1Idx := l2Idx*memline.Bits + uint64(b)
			if l1Idx >= t.geo.RAL1Lines() {
				break
			}
			l1Line, _ := t.dev.Read(t.geo.RAL1Addr(l1Idx))
			res.LinesRead++
			l1Words := decodeWords(l1Line)
			for bb := uint(0); bb < memline.Bits; bb++ {
				if l1Words.Test(bb) {
					metaIdx := l1Idx*memline.Bits + uint64(bb)
					if metaIdx < t.geo.MetaLines() {
						res.StaleMetaIdx = append(res.StaleMetaIdx, metaIdx)
					}
				}
			}
		}
	}
	return res
}

// ScanStaleFlat reads every L1 bitmap line in the RA without using the
// multi-layer index. It exists to quantify the index's benefit (the
// ablation benchmark): same result, many more line reads.
func (t *Tracker) ScanStaleFlat() ScanResult {
	var res ScanResult
	for l1Idx := uint64(0); l1Idx < t.geo.RAL1Lines(); l1Idx++ {
		l1Line, _ := t.dev.Read(t.geo.RAL1Addr(l1Idx))
		res.LinesRead++
		l1Words := decodeWords(l1Line)
		for bb := uint(0); bb < memline.Bits; bb++ {
			if l1Words.Test(bb) {
				metaIdx := l1Idx*memline.Bits + uint64(bb)
				if metaIdx < t.geo.MetaLines() {
					res.StaleMetaIdx = append(res.StaleMetaIdx, metaIdx)
				}
			}
		}
	}
	return res
}
