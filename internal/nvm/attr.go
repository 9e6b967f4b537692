package nvm

import (
	"fmt"

	"nvmstar/internal/memline"
	"nvmstar/internal/telemetry"
)

// Write-cause attribution: when enabled, every counted line write
// carries a Cause tag set at the point the engine or scheme issues it,
// and the device accumulates per-cause × per-bank counters plus a
// per-bank wear distribution. The disabled state is a single nil check
// on the accounting path — no allocations, no behavioral change — and
// all recording happens in WriteCause, at the point the write is
// counted.

// Cause classifies why a line write reached the device.
type Cause uint8

const (
	// CauseOther is the zero value: a counted write that no issue point
	// tagged. The differential tests assert it stays at zero — every
	// write path in the tree must claim a cause.
	CauseOther    Cause = iota
	CauseData           // user data line (OTP ciphertext)
	CauseCounter        // SIT leaf counter node
	CauseTreeNode       // SIT interior tree node
	CauseMAC            // MAC/shadow-table line (Anubis/Phoenix ST)
	CauseADRFlush       // ADR-resident line flushed at crash (out of band)
	CauseBitmap         // STAR bitmap line spilled to the recovery area
	CauseRecovery       // write issued while recovery replay runs
	NumCauses
)

// causeNames is indexed by Cause; the names are the stable labels used
// in JSON breakdowns, trace events and the observatory's report
// columns.
var causeNames = [NumCauses]string{
	"other", "data", "counter", "tree-node", "mac", "adr-flush", "bitmap", "recovery",
}

// String returns the cause's stable label.
func (c Cause) String() string {
	if c < NumCauses {
		return causeNames[c]
	}
	return fmt.Sprintf("cause(%d)", uint8(c))
}

// ValidCauseName reports whether s is one of the stable cause labels.
// Trace consumers (cmd/tracecheck) use it to validate "attr:<cause>"
// event names against this table rather than a copy of it.
func ValidCauseName(s string) bool {
	for _, n := range causeNames {
		if n == s {
			return true
		}
	}
	return false
}

// attrState is the device's attribution accumulator.
type attrState struct {
	banks  int
	counts [NumCauses][]uint64 // per cause: counted writes per bank
	oob    [NumCauses]uint64   // uncounted out-of-band stores (Poke paths)

	// Wear-summary memo: the per-bank scan is O(lines written), so the
	// scan result is cached until the write count moves.
	wearWrites uint64
	wearValid  bool
	wearStats  []BankWear
}

func (a *attrState) clone() *attrState {
	if a == nil {
		return nil
	}
	c := &attrState{banks: a.banks, oob: a.oob}
	for i := range a.counts {
		c.counts[i] = append([]uint64(nil), a.counts[i]...)
	}
	return c
}

func (a *attrState) reset() {
	if a == nil {
		return
	}
	for i := range a.counts {
		for b := range a.counts[i] {
			a.counts[i][b] = 0
		}
	}
	a.oob = [NumCauses]uint64{}
	a.wearValid = false
	a.wearStats = nil
}

// EnableAttribution turns on per-cause × per-bank write accounting
// with the given bank count (the machine passes its Banks config so
// attribution banks match the timing model's). banks < 1 is treated
// as 1. Counters start at zero; enabling mid-run attributes only
// subsequent writes.
func (d *Device) EnableAttribution(banks int) {
	if banks < 1 {
		banks = 1
	}
	a := &attrState{banks: banks}
	for i := range a.counts {
		a.counts[i] = make([]uint64, banks)
	}
	d.attr = a
}

// WriteCause is Write with a cause tag: it counts one line write —
// statistics, energy, attribution and the access hook — then stores
// the line and bumps its wear.
func (d *Device) WriteCause(addr uint64, l memline.Line, cause Cause) {
	d.checkAddr(addr)
	d.stats.Writes++
	d.stats.WriteEnergy += d.cfg.Energy.WritePJ
	if d.attr != nil {
		d.attr.counts[cause][int(addr/memline.Size)%d.attr.banks]++
		d.attr.wearValid = false
	}
	if d.hook != nil {
		d.lastCause = cause
		d.hook(true, addr)
	}
	d.store.store(addr, l)
	if d.cfg.TrackWear {
		d.store.bumpWear(addr)
	}
}

// RecordOOB attributes one uncounted out-of-band line store (a Poke —
// ADR contents flushed by the crash model, recovery-area resets).
// These stores are deliberately excluded from Stats.Writes, so they
// are tallied separately: the counted per-cause sums still add up
// exactly to Stats.Writes.
func (d *Device) RecordOOB(cause Cause) {
	if d.attr != nil {
		d.attr.oob[cause]++
	}
}

// --- breakdown snapshot --------------------------------------------------

// CauseCount is one cause's share of a breakdown.
type CauseCount struct {
	Cause  string   `json:"cause"`
	Writes uint64   `json:"writes"`
	Banks  []uint64 `json:"banks,omitempty"` // per-bank split, ascending bank order
}

// Breakdown is a snapshot of the attribution counters: every cause in
// ascending Cause order (all causes always present, so the JSON shape
// — and therefore result digests — depend only on the counts), the
// total counted writes, and any out-of-band stores. The deterministic
// ordering makes breakdowns directly comparable across runs and forks.
type Breakdown struct {
	Total  uint64       `json:"total"` // counted line writes = sum over Causes
	Banks  int          `json:"banks"`
	Causes []CauseCount `json:"causes"`
	OOB    []CauseCount `json:"oob,omitempty"` // uncounted out-of-band stores, nonzero causes only
}

// Breakdown returns the current attribution snapshot, or nil when
// attribution is disabled — callers embed the pointer with omitempty
// so disabled runs marshal byte-identically to pre-attribution ones.
func (d *Device) Breakdown() *Breakdown {
	a := d.attr
	if a == nil {
		return nil
	}
	b := &Breakdown{Banks: a.banks, Causes: make([]CauseCount, NumCauses)}
	for c := Cause(0); c < NumCauses; c++ {
		var sum uint64
		banks := append([]uint64(nil), a.counts[c]...)
		for _, v := range banks {
			sum += v
		}
		b.Causes[c] = CauseCount{Cause: c.String(), Writes: sum, Banks: banks}
		b.Total += sum
		if a.oob[c] != 0 {
			b.OOB = append(b.OOB, CauseCount{Cause: c.String(), Writes: a.oob[c]})
		}
	}
	return b
}

// CauseWrites returns the counted writes of the named cause (0 if the
// breakdown is nil or the cause is absent).
func (b *Breakdown) CauseWrites(cause string) uint64 {
	if b == nil {
		return 0
	}
	for _, c := range b.Causes {
		if c.Cause == cause {
			return c.Writes
		}
	}
	return 0
}

// Sub returns b - o elementwise — the breakdown of a measured phase
// between two snapshots. Either operand may be nil; Sub(nil) copies b.
func (b *Breakdown) Sub(o *Breakdown) *Breakdown {
	if b == nil {
		return nil
	}
	out := &Breakdown{Total: b.Total, Banks: b.Banks, Causes: make([]CauseCount, len(b.Causes))}
	for i, c := range b.Causes {
		cc := CauseCount{Cause: c.Cause, Writes: c.Writes, Banks: append([]uint64(nil), c.Banks...)}
		out.Causes[i] = cc
	}
	oobAt := func(br *Breakdown, cause string) uint64 {
		if br == nil {
			return 0
		}
		for _, c := range br.OOB {
			if c.Cause == cause {
				return c.Writes
			}
		}
		return 0
	}
	if o != nil {
		out.Total -= o.Total
		for i := range out.Causes {
			if i < len(o.Causes) && o.Causes[i].Cause == out.Causes[i].Cause {
				out.Causes[i].Writes -= o.Causes[i].Writes
				for bk := range out.Causes[i].Banks {
					if bk < len(o.Causes[i].Banks) {
						out.Causes[i].Banks[bk] -= o.Causes[i].Banks[bk]
					}
				}
			}
		}
	}
	for c := Cause(0); c < NumCauses; c++ {
		if v := oobAt(b, c.String()) - oobAt(o, c.String()); v != 0 {
			out.OOB = append(out.OOB, CauseCount{Cause: c.String(), Writes: v})
		}
	}
	return out
}

// Accumulate adds o into b elementwise; the seed-merge path of
// sim.Results uses it, mirroring Results.Accumulate.
func (b *Breakdown) Accumulate(o *Breakdown) {
	if b == nil || o == nil {
		return
	}
	b.Total += o.Total
	for i := range b.Causes {
		if i >= len(o.Causes) || o.Causes[i].Cause != b.Causes[i].Cause {
			continue
		}
		b.Causes[i].Writes += o.Causes[i].Writes
		for bk := range b.Causes[i].Banks {
			if bk < len(o.Causes[i].Banks) {
				b.Causes[i].Banks[bk] += o.Causes[i].Banks[bk]
			}
		}
	}
	for _, oc := range o.OOB {
		found := false
		for i := range b.OOB {
			if b.OOB[i].Cause == oc.Cause {
				b.OOB[i].Writes += oc.Writes
				found = true
			}
		}
		if !found {
			b.OOB = append(b.OOB, oc)
		}
	}
}

// DivideBy divides every count by n (integer truncation, mirroring
// Results.DivideBy's uint64 handling); n <= 1 is a no-op.
func (b *Breakdown) DivideBy(n int) {
	if b == nil || n <= 1 {
		return
	}
	un := uint64(n)
	b.Total /= un
	for i := range b.Causes {
		b.Causes[i].Writes /= un
		for bk := range b.Causes[i].Banks {
			b.Causes[i].Banks[bk] /= un
		}
	}
	for i := range b.OOB {
		b.OOB[i].Writes /= un
	}
}

// --- per-bank wear -------------------------------------------------------

// BankWear summarizes one bank's line-wear distribution. P99Wear is a
// bucketed estimate (telemetry.Histogram.Quantile over power-of-two
// buckets); Max and Mean are exact.
type BankWear struct {
	Bank     int     `json:"bank"`
	Lines    int     `json:"lines"` // distinct worn lines in this bank
	MaxWear  uint64  `json:"max_wear"`
	MeanWear float64 `json:"mean_wear"`
	P99Wear  float64 `json:"p99_wear"`
}

// wearBuckets covers per-line write counts up to 2^23 — far beyond any
// simulated run — for the p99 estimate.
var wearBuckets = telemetry.ExpBuckets(1, 2, 24)

// BankWearStats returns the per-bank wear distribution (max/mean/p99
// line wear), or nil when attribution is disabled. Requires
// Config.TrackWear for non-zero data. The scan is memoized against the
// device write count, so repeated calls between writes are free.
func (d *Device) BankWearStats() []BankWear {
	a := d.attr
	if a == nil {
		return nil
	}
	if a.wearValid && a.wearWrites == d.stats.Writes {
		return a.wearStats
	}
	stats := make([]BankWear, a.banks)
	sums := make([]uint64, a.banks)
	hists := make([]*telemetry.Histogram, a.banks)
	for b := range stats {
		stats[b].Bank = b
		hists[b] = telemetry.NewHistogram(wearBuckets)
	}
	d.store.rangeWear(func(addr, w uint64) {
		b := int(addr/memline.Size) % a.banks
		stats[b].Lines++
		sums[b] += w
		if w > stats[b].MaxWear {
			stats[b].MaxWear = w
		}
		hists[b].Observe(float64(w))
	})
	for b := range stats {
		if stats[b].Lines > 0 {
			stats[b].MeanWear = float64(sums[b]) / float64(stats[b].Lines)
		}
		stats[b].P99Wear = hists[b].Quantile(0.99)
	}
	a.wearWrites = d.stats.Writes
	a.wearValid = true
	a.wearStats = stats
	return stats
}

// WearGrid buckets per-line wear into a banks × cols heat grid for
// rendering: row b holds bank b's lines in ascending address order,
// compressed into cols cells, each cell keeping the maximum wear of
// the lines it covers. Returns nil when attribution is disabled or
// cols < 1.
func (d *Device) WearGrid(cols int) [][]uint64 {
	a := d.attr
	if a == nil || cols < 1 {
		return nil
	}
	grid := make([][]uint64, a.banks)
	for b := range grid {
		grid[b] = make([]uint64, cols)
	}
	totalLines := d.cfg.CapacityBytes / memline.Size
	slotsPerBank := (totalLines + uint64(a.banks) - 1) / uint64(a.banks)
	if slotsPerBank == 0 {
		slotsPerBank = 1
	}
	d.store.rangeWear(func(addr, w uint64) {
		line := addr / memline.Size
		bank := int(line) % a.banks
		slot := line / uint64(a.banks)
		col := int(slot * uint64(cols) / slotsPerBank)
		if col >= cols {
			col = cols - 1
		}
		if w > grid[bank][col] {
			grid[bank][col] = w
		}
	})
	return grid
}
