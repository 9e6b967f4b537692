package secmem

import "nvmstar/internal/sit"

// Scheme is a metadata persistence-and-recovery policy plugged into
// the Engine: the write-back baseline (WB), strict persistence,
// Anubis, and STAR each implement it. The Engine drives the common
// machinery (counter-mode encryption, SIT lazy updates, the metadata
// cache); a Scheme observes the events that matter for persistence and
// implements crash recovery.
//
// A scheme has no Reset: Engine.Reset drops it, and its owner builds
// a new one with the scheme's constructor.
type Scheme interface {
	// Name identifies the scheme in reports.
	Name() string

	// Synergize reports whether the Engine should pack the 10 LSBs of
	// the parent counter into MAC fields (counter-MAC synergization)
	// and enforce the forced MSB write-back when a counter advances
	// 2^10 times without its block reaching NVM. Only STAR returns
	// true.
	Synergize() bool

	// OnMetaDirty fires when a cached metadata line transitions clean
	// to dirty (its NVM copy just became stale).
	OnMetaDirty(id sit.NodeID, metaIdx uint64, set int)

	// OnMetaModified fires after any content change to a cached
	// metadata line, including the change that dirtied it. STAR
	// refreshes the line's set-MAC here.
	OnMetaModified(id sit.NodeID, set int)

	// OnMetaClean fires when a dirty metadata line is persisted: its
	// NVM copy is fresh again. evicted distinguishes eviction from an
	// in-place flush.
	OnMetaClean(id sit.NodeID, metaIdx uint64, set int, evicted bool)

	// OnChildPersisted fires after the Engine writes a user-data line
	// or metadata line to NVM; parent is the node whose counter was
	// bumped by that write (possibly the on-chip root). Anubis emits
	// its shadow-table write here; strict persistence flushes the rest
	// of the branch. A returned error aborts the triggering operation.
	OnChildPersisted(parent sit.NodeID) error

	// OnCrash fires when power fails, after volatile engine state is
	// dropped but while battery-backed state (ADR) can still reach
	// NVM.
	OnCrash()

	// Recover restores the stale metadata after a crash and verifies
	// the result. Schemes without recovery support return a report
	// with Supported == false.
	Recover() (*RecoveryReport, error)

	// Fork returns a deep copy of the scheme attached to e, an
	// already-forked engine whose device, caches and tables carry the
	// parent's state. It runs as the last step of Engine.Fork, so
	// implementations may read forked engine state but must not retain
	// references into the parent. The copy and the original may then be
	// used from different goroutines.
	Fork(e *Engine) Scheme
}

// RecoveryLineNs is the modeled cost of fetching or updating one
// 64-byte line from NVM during recovery; the paper (like Anubis and
// Osiris) assumes 100 ns.
const RecoveryLineNs = 100.0

// RecoveryReport summarizes one recovery run.
type RecoveryReport struct {
	Scheme    string
	Supported bool // whether the scheme can recover at all
	Verified  bool // recovery-correctness check passed

	StaleNodes  int    // metadata blocks restored
	IndexReads  uint64 // bitmap/index lines read (STAR) or ST lines scanned (Anubis)
	NodeReads   uint64 // metadata/data lines read to restore nodes
	NodeWrites  uint64 // restored lines written back to NVM
	MACComputes uint64 // MACs recomputed during restore + verification
}

// LineAccesses returns the total NVM line accesses of the recovery.
func (r *RecoveryReport) LineAccesses() uint64 {
	return r.IndexReads + r.NodeReads + r.NodeWrites
}

// TimeNs returns the modeled recovery time.
func (r *RecoveryReport) TimeNs() float64 {
	return float64(r.LineAccesses()) * RecoveryLineNs
}

// RecoveryPhases decomposes the modeled recovery time along its
// critical path: the index/shadow-table scan, node restoration reads,
// and restored-node write-back.
type RecoveryPhases struct {
	ScanNs      float64 // bitmap/index (STAR) or ST (Anubis) scan
	RestoreNs   float64 // metadata/data line reads to restore nodes
	WritebackNs float64 // restored lines written back to NVM
}

// TotalNs returns the phase sum.
func (p RecoveryPhases) TotalNs() float64 { return p.ScanNs + p.RestoreNs + p.WritebackNs }

// PhaseTimes returns the per-phase time breakdown of the recovery at
// the paper's 100 ns/line model. The phases sum exactly to TimeNs —
// each is an exactly representable integer number of nanoseconds for
// any realistic line count — which is what lets the latency
// observatory report component shares that add up to the end-to-end
// recovery latency. A derived view: it adds no fields, so serialized
// reports are unchanged.
func (r *RecoveryReport) PhaseTimes() RecoveryPhases {
	return RecoveryPhases{
		ScanNs:      float64(r.IndexReads) * RecoveryLineNs,
		RestoreNs:   float64(r.NodeReads) * RecoveryLineNs,
		WritebackNs: float64(r.NodeWrites) * RecoveryLineNs,
	}
}

// TimeSeconds returns the modeled recovery time in seconds.
func (r *RecoveryReport) TimeSeconds() float64 { return r.TimeNs() / 1e9 }
