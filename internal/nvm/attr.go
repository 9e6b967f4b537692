package nvm

import "fmt"

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
