// Package wb implements the write-back baseline of the paper's
// evaluation: an ideal write-back metadata cache where only evicted
// lines reach NVM. It has the lowest possible write traffic — and no
// recovery: dirty metadata lost in a crash leave NVM permanently
// stale, so integrity verification fails for affected lines after
// reboot. Every figure in the evaluation normalizes to this scheme.
package wb

import (
	"nvmstar/internal/secmem"
	"nvmstar/internal/sit"
)

// Scheme is the WB baseline.
type Scheme struct{}

// New returns the write-back baseline scheme. It holds no state and
// takes no engine reference.
func New() *Scheme { return &Scheme{} }

// Name implements secmem.Scheme.
func (*Scheme) Name() string { return "wb" }

// Synergize implements secmem.Scheme: WB uses plain 64-bit MACs.
func (*Scheme) Synergize() bool { return false }

// OnMetaDirty implements secmem.Scheme (no tracking).
func (*Scheme) OnMetaDirty(sit.NodeID, uint64, int) {}

// OnMetaModified implements secmem.Scheme (no tracking).
func (*Scheme) OnMetaModified(sit.NodeID, int) {}

// OnMetaClean implements secmem.Scheme (no tracking).
func (*Scheme) OnMetaClean(sit.NodeID, uint64, int, bool) {}

// OnChildPersisted implements secmem.Scheme (no extra writes).
func (*Scheme) OnChildPersisted(sit.NodeID) error { return nil }

// OnCrash implements secmem.Scheme: everything volatile is simply
// lost.
func (*Scheme) OnCrash() {}

// Fork implements secmem.Scheme: WB holds no state, so a fresh
// instance is a complete copy.
func (*Scheme) Fork(*secmem.Engine) secmem.Scheme { return New() }

// Recover implements secmem.Scheme: WB cannot recover.
func (*Scheme) Recover() (*secmem.RecoveryReport, error) {
	return &secmem.RecoveryReport{Scheme: "wb", Supported: false}, secmem.ErrRecoveryUnsupported
}
