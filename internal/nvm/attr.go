package nvm

import (
	"fmt"

	"nvmstar/internal/memline"
	"nvmstar/internal/telemetry"
)

// Write-cause attribution: every counted line write carries a Cause
// tag set at the point the engine or scheme issues it, and the device
// hands it to its AccessHook with the write. The device keeps no
// counts of its own; the machine's observation stream accumulates them
// into Breakdowns (internal/sim).

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

// Copy returns a deep copy of b (nil for nil).
func (b *Breakdown) Copy() *Breakdown {
	if b == nil {
		return nil
	}
	out := *b
	out.Causes = make([]CauseCount, len(b.Causes))
	for i, c := range b.Causes {
		c.Banks = append([]uint64(nil), c.Banks...)
		out.Causes[i] = c
	}
	out.OOB = append([]CauseCount(nil), b.OOB...)
	return &out
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
	// Rebuilt in ascending Cause order, as the observatory emits it, so
	// the result does not depend on the order of the operands.
	var oob []CauseCount
	for c := Cause(0); c < NumCauses; c++ {
		if v := b.oobWrites(c) + o.oobWrites(c); v != 0 {
			oob = append(oob, CauseCount{Cause: c.String(), Writes: v})
		}
	}
	b.OOB = oob
}

// oobWrites returns the out-of-band stores of cause c (0 for a nil
// breakdown or an absent cause).
func (b *Breakdown) oobWrites(c Cause) uint64 {
	if b == nil {
		return 0
	}
	for _, cc := range b.OOB {
		if cc.Cause == c.String() {
			return cc.Writes
		}
	}
	return 0
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
// bucketed estimate (telemetry.QuantileFromBuckets over power-of-two
// buckets, interpolating overflow mass toward MaxWear); Max and Mean
// are exact.
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

// BankWearStats returns the distribution of line wear (max/mean/p99)
// in each of banks line-interleaved banks (banks < 1 counts as 1).
// Requires Config.TrackWear for non-zero data; each call scans every
// worn line.
func (d *Device) BankWearStats(banks int) []BankWear {
	banks = max(banks, 1)
	stats := make([]BankWear, banks)
	sums := make([]uint64, banks)
	counts := make([][]uint64, banks)
	for b := range stats {
		stats[b].Bank = b
		counts[b] = make([]uint64, len(wearBuckets)+1)
	}
	d.store.rangeWear(func(addr, w uint64) {
		b := int(addr/memline.Size) % banks
		stats[b].Lines++
		sums[b] += w
		if w > stats[b].MaxWear {
			stats[b].MaxWear = w
		}
		counts[b][telemetry.BucketIndex(wearBuckets, float64(w))]++
	})
	for b := range stats {
		if stats[b].Lines > 0 {
			stats[b].MeanWear = float64(sums[b]) / float64(stats[b].Lines)
		}
		stats[b].P99Wear = telemetry.QuantileFromBuckets(wearBuckets, counts[b], float64(stats[b].MaxWear), 0.99)
	}
	return stats
}

// WearGrid buckets per-line wear into a banks × cols heat grid for
// rendering: row b holds bank b's lines in ascending address order,
// compressed into cols cells, each cell keeping the maximum wear of
// the lines it covers. banks < 1 counts as 1; returns nil when
// cols < 1.
func (d *Device) WearGrid(banks, cols int) [][]uint64 {
	if cols < 1 {
		return nil
	}
	banks = max(banks, 1)
	grid := make([][]uint64, banks)
	for b := range grid {
		grid[b] = make([]uint64, cols)
	}
	totalLines := d.cfg.CapacityBytes / memline.Size
	slotsPerBank := max((totalLines+uint64(banks)-1)/uint64(banks), 1)
	d.store.rangeWear(func(addr, w uint64) {
		line := addr / memline.Size
		bank := int(line) % banks
		slot := line / uint64(banks)
		col := min(int(slot*uint64(cols)/slotsPerBank), cols-1)
		if w > grid[bank][col] {
			grid[bank][col] = w
		}
	})
	return grid
}
