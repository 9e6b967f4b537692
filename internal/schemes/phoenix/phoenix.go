// Package phoenix implements the Phoenix baseline (Alwadi et al.,
// TDSC'20), the concurrent work the paper discusses in Section II-E:
// a hybrid of Anubis and Osiris. Intermediate SIT nodes are shadowed
// into Anubis's shadow table (anubis.ShadowTable), but counter blocks
// — by far the most frequently modified metadata — are NOT shadowed:
// their persistence is relaxed Osiris-style (each block is written
// back on every Stride-th update) and recovery re-derives the exact
// counters by probing candidates against the covered data lines'
// MACs.
//
// Compared with Anubis this removes the extra write for every
// user-data write (the dominant ST traffic); compared with STAR it
// still pays ST writes for intermediate-node write-backs and a probing
// recovery pass over every counter block.
package phoenix

import (
	"fmt"
	"maps"

	"nvmstar/internal/counter"
	"nvmstar/internal/schemes/anubis"
	"nvmstar/internal/secmem"
	"nvmstar/internal/sit"
)

// Stride is the counter-block persistence stride (Osiris' N).
const Stride = 4

// Scheme is the Phoenix baseline: the shadow table for intermediate
// nodes plus per-counter-block stride windows.
type Scheme struct {
	*anubis.ShadowTable
	e *secmem.Engine
	// updates counts per-counter-block bumps since the block last
	// reached NVM.
	updates map[uint64]int
}

// New returns a Phoenix scheme bound to the engine.
func New(e *secmem.Engine) (*Scheme, error) {
	t, err := anubis.NewShadowTable(e)
	if err != nil {
		return nil, err
	}
	return &Scheme{ShadowTable: t, e: e, updates: make(map[uint64]int)}, nil
}

// Name implements secmem.Scheme.
func (*Scheme) Name() string { return "phoenix" }

// Synergize implements secmem.Scheme: Phoenix predates counter-MAC
// synergization; plain 64-bit MACs.
func (*Scheme) Synergize() bool { return false }

// OnMetaDirty implements secmem.Scheme.
func (*Scheme) OnMetaDirty(sit.NodeID, uint64, int) {}

// OnMetaModified implements secmem.Scheme.
func (*Scheme) OnMetaModified(sit.NodeID, int) {}

// OnMetaClean implements secmem.Scheme: a counter block reaching NVM
// restarts its probe window.
func (s *Scheme) OnMetaClean(id sit.NodeID, _ uint64, _ int, _ bool) {
	if id.Level == 0 {
		s.updates[id.Index] = 0
	}
}

// OnChildPersisted implements secmem.Scheme: shadow an intermediate
// node like Anubis; persist a counter block on every Stride-th update
// instead of shadowing it (relaxed Osiris persistence).
func (s *Scheme) OnChildPersisted(parent sit.NodeID) error {
	if parent.Level != 0 {
		return s.Shadow(parent)
	}
	s.updates[parent.Index]++
	if s.updates[parent.Index] >= Stride {
		return s.e.FlushNode(parent) // resets the window via OnMetaClean
	}
	return nil
}

// OnCrash implements secmem.Scheme.
func (s *Scheme) OnCrash() { s.Crash() }

// Fork implements secmem.Scheme: rebind to the forked engine with a
// forked shadow table and a copy of the per-block update windows.
func (s *Scheme) Fork(e *secmem.Engine) secmem.Scheme {
	return &Scheme{ShadowTable: s.ShadowTable.Fork(e), e: e, updates: maps.Clone(s.updates)}
}

// Recover implements secmem.Scheme: replay the verified shadow table
// for intermediate nodes (Anubis phase), then probe every counter
// block's counters against the covered data lines (Osiris phase), then
// re-MAC and write back everything restored.
func (s *Scheme) Recover() (*secmem.RecoveryReport, error) {
	rep := &secmem.RecoveryReport{Scheme: "phoenix", Supported: true}
	restored, order, err := s.Replay(rep, func(id sit.NodeID) bool { return id.Level != 0 })
	if err != nil {
		return rep, err
	}

	// The stride bounds how far a block's true counters can be past its
	// NVM copy.
	geo := s.e.Geometry()
	numCB := geo.LevelSize(0)
	for idx := uint64(0); idx < numCB; idx++ {
		id := sit.NodeID{Level: 0, Index: idx}
		stale, _ := s.e.ReadMetaRaw(id)
		rep.NodeReads++
		node := stale
		changed := false
		for slot := 0; slot < counter.Arity; slot++ {
			childAddr, ok := geo.ChildDataAddr(id, slot)
			if !ok {
				continue
			}
			cipher, mac, present := s.e.ReadDataRaw(childAddr)
			rep.NodeReads++
			if !present {
				continue
			}
			found := false
			for delta := uint64(0); delta < Stride; delta++ {
				cand := stale.Counters[slot] + delta
				rep.MACComputes++
				if s.e.DataMACField(childAddr, cipher, cand) == mac {
					if delta != 0 {
						node.Counters[slot] = cand & counter.CounterMask
						changed = true
					}
					found = true
					break
				}
			}
			if !found {
				return rep, fmt.Errorf("%w: no counter in [c, c+%d) verifies data line %#x",
					secmem.ErrRecoveryVerification, Stride, childAddr)
			}
		}
		if changed {
			restored[id] = node
			order = append(order, id)
		}
	}

	s.WriteBack(rep, restored, order)
	clear(s.updates)
	return rep, nil
}
