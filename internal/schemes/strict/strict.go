// Package strict implements the strict-persistence baseline: every
// write propagates through the whole SIT branch and every modified
// node is written through to NVM immediately. Nothing is ever stale,
// so no recovery is needed after a crash — at the cost of roughly
// tree-height× write amplification (9× for the paper's 16 GB memory),
// which is why the paper rejects it for NVM.
package strict

import (
	"nvmstar/internal/secmem"
	"nvmstar/internal/sit"
)

// Scheme is the strict write-through persistence baseline.
type Scheme struct {
	e *secmem.Engine
	// flushing suppresses re-entry while the branch flush itself
	// produces OnChildPersisted events.
	flushing bool
}

// New returns a strict-persistence scheme bound to the engine.
func New(e *secmem.Engine) *Scheme { return &Scheme{e: e} }

// Name implements secmem.Scheme.
func (*Scheme) Name() string { return "strict" }

// Synergize implements secmem.Scheme: strict uses plain 64-bit MACs.
func (*Scheme) Synergize() bool { return false }

// OnMetaDirty implements secmem.Scheme.
func (*Scheme) OnMetaDirty(sit.NodeID, uint64, int) {}

// OnMetaModified implements secmem.Scheme.
func (*Scheme) OnMetaModified(sit.NodeID, int) {}

// OnMetaClean implements secmem.Scheme.
func (*Scheme) OnMetaClean(sit.NodeID, uint64, int, bool) {}

// OnChildPersisted implements secmem.Scheme: write the whole modified
// branch through to NVM, from the node whose counter was just bumped
// up to the on-chip root.
func (s *Scheme) OnChildPersisted(parent sit.NodeID) error {
	if s.flushing || s.e.Geometry().IsRoot(parent) {
		return nil
	}
	s.flushing = true
	defer func() { s.flushing = false }()
	if err := s.e.FlushBranch(parent); err != nil {
		return err
	}
	// Capacity evictions during the branch flush can dirty nodes on
	// other branches; sweep them so NVM is never stale under strict.
	if s.e.MetaCache().DirtyCount() > 0 {
		return s.e.FlushAllMetadata()
	}
	return nil
}

// OnCrash implements secmem.Scheme: nothing is volatile-only, nothing
// to do.
func (*Scheme) OnCrash() {}

// Fork implements secmem.Scheme: rebind to the forked engine.
// flushing is never true between operations, so it need not be copied.
func (s *Scheme) Fork(e *secmem.Engine) secmem.Scheme { return New(e) }

// Recover implements secmem.Scheme: strict persistence leaves no
// stale metadata, so recovery is a (successful) no-op.
func (*Scheme) Recover() (*secmem.RecoveryReport, error) {
	return &secmem.RecoveryReport{Scheme: "strict", Supported: true, Verified: true}, nil
}
