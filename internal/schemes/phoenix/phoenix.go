// Package phoenix implements the Phoenix baseline (Alwadi et al.,
// TDSC'20), the concurrent work the paper discusses in Section II-E:
// a hybrid of Anubis and Osiris. Intermediate SIT nodes are shadowed
// into a shadow table exactly as Anubis does, but counter blocks — by
// far the most frequently modified metadata — are NOT shadowed:
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
	"encoding/binary"
	"fmt"
	"io"

	"nvmstar/internal/cachetree"
	"nvmstar/internal/counter"
	"nvmstar/internal/memline"
	"nvmstar/internal/nvm"
	"nvmstar/internal/secmem"
	"nvmstar/internal/sit"
)

// DefaultStride is the counter-block persistence stride (Osiris' N).
const DefaultStride = 4

const lsb48Mask = (uint64(1) << 48) - 1

// Stats counts Phoenix-specific traffic.
type Stats struct {
	STWrites       uint64 // shadow-table writes (intermediate nodes only)
	StridePersists uint64 // counter blocks persisted by the stride rule
}

// Scheme is the Phoenix baseline.
type Scheme struct {
	e      *secmem.Engine
	stride int
	stTree *cachetree.Tree
	stRoot uint64
	// updates counts per-counter-block bumps since the block last
	// reached NVM.
	updates map[uint64]int
	stats   Stats
	// Reused buffers for the per-write ST update (see anubis).
	lineBuf memline.Line
	entBuf  [1]cachetree.SetEntry
}

// New returns a Phoenix scheme bound to the engine. stride <= 0 uses
// DefaultStride.
func New(e *secmem.Engine, stride int) (*Scheme, error) {
	if stride <= 0 {
		stride = DefaultStride
	}
	t, err := cachetree.New(e.Suite(), int(e.Geometry().STLines()))
	if err != nil {
		return nil, err
	}
	return &Scheme{e: e, stride: stride, stTree: t, updates: make(map[uint64]int)}, nil
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

// Stats returns the scheme counters.
func (s *Scheme) Stats() Stats { return s.stats }

// OnChildPersisted implements secmem.Scheme.
func (s *Scheme) OnChildPersisted(parent sit.NodeID) error {
	geo := s.e.Geometry()
	if geo.IsRoot(parent) {
		return nil
	}
	if parent.Level == 0 {
		// Counter block: relaxed Osiris persistence instead of an ST
		// write.
		s.updates[parent.Index]++
		if s.updates[parent.Index] >= s.stride {
			s.stats.StridePersists++
			return s.e.FlushNode(parent) // resets the window via OnMetaClean
		}
		return nil
	}
	// Intermediate node: shadow like Anubis.
	node, set, way, ok := s.e.CachedNode(parent)
	if !ok {
		return fmt.Errorf("phoenix: bumped parent %v not cached", parent)
	}
	slot := uint64(set*s.e.MetaCache().Ways() + way)
	s.lineBuf = encodeEntry(geo.NodeAddr(parent), node)
	s.e.Device().WriteCause(geo.STAddr(slot), s.lineBuf, nvm.CauseMAC)
	s.stats.STWrites++
	s.entBuf[0] = cachetree.SetEntry{Addr: geo.NodeAddr(parent), MAC: s.e.Suite().MAC(s.lineBuf[:])}
	s.stTree.UpdateSet(int(slot), s.entBuf[:])
	return nil
}

// OnCrash implements secmem.Scheme.
func (s *Scheme) OnCrash() { s.stRoot = s.stTree.Root() }

// Fork implements secmem.Scheme: rebind to the forked engine with deep
// copies of the ST tree, the per-block update windows, the root
// register snapshot and the counters. The reused encode buffers are
// per-operation scratch; the fork starts with fresh zero ones.
func (s *Scheme) Fork(e *secmem.Engine) secmem.Scheme {
	f := &Scheme{e: e, stride: s.stride, stTree: s.stTree.Fork(), stRoot: s.stRoot, stats: s.stats}
	f.updates = make(map[uint64]int, len(s.updates))
	for idx, n := range s.updates { //detlint:ok order-independent deep copy into a fresh map
		f.updates[idx] = n
	}
	return f
}

// SaveRegisters implements secmem.RegisterPersister: Phoenix's only
// on-chip non-volatile state is the shadow-table merkle root.
func (s *Scheme) SaveRegisters(w io.Writer) error {
	return binary.Write(w, binary.LittleEndian, s.stRoot)
}

// RestoreRegisters implements secmem.RegisterPersister.
func (s *Scheme) RestoreRegisters(r io.Reader) error {
	return binary.Read(r, binary.LittleEndian, &s.stRoot)
}

func encodeEntry(nodeAddr uint64, node counter.Node) memline.Line {
	var l memline.Line
	putU64(l[0:], nodeAddr)
	for i, c := range node.Counters {
		v := c & lsb48Mask
		for b := 0; b < 6; b++ {
			l[8+i*6+b] = byte(v >> (8 * b))
		}
	}
	putU64(l[56:], node.MACField)
	return l
}

func decodeEntry(l memline.Line) (nodeAddr uint64, ctrLSBs [counter.Arity]uint64) {
	nodeAddr = getU64(l[0:])
	for i := range ctrLSBs {
		var v uint64
		for b := 0; b < 6; b++ {
			v |= uint64(l[8+i*6+b]) << (8 * b)
		}
		ctrLSBs[i] = v
	}
	return
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func getU64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}

// Recover implements secmem.Scheme: verify and replay the shadow table
// for intermediate nodes (Anubis phase), then probe every counter
// block's counters against the covered data lines (Osiris phase), then
// re-MAC everything bottom-up.
func (s *Scheme) Recover() (*secmem.RecoveryReport, error) {
	rep := &secmem.RecoveryReport{Scheme: "phoenix", Supported: true}
	geo := s.e.Geometry()
	dev := s.e.Device()

	// Phase 1: authenticate and collect ST entries (intermediate
	// nodes).
	type stRec struct {
		id      sit.NodeID
		ctrLSBs [counter.Arity]uint64
	}
	var recs []stRec
	perSlot := make(map[int][]cachetree.SetEntry)
	for i := uint64(0); i < geo.STLines(); i++ {
		line, ok := dev.Read(geo.STAddr(i))
		rep.IndexReads++
		if !ok || (&line).IsZero() {
			continue
		}
		addr, lsbs := decodeEntry(line)
		perSlot[int(i)] = []cachetree.SetEntry{{Addr: addr, MAC: s.e.Suite().MAC(line[:])}}
		rep.MACComputes++
		id, idOK := geo.NodeAt(addr)
		if !idOK || id.Level == 0 {
			return rep, fmt.Errorf("%w: ST entry names invalid node %#x", secmem.ErrRecoveryVerification, addr)
		}
		recs = append(recs, stRec{id: id, ctrLSBs: lsbs})
	}
	tree, err := cachetree.Build(s.e.Suite(), s.stTree.NumSets(), perSlot)
	if err != nil {
		return rep, err
	}
	if tree.Root() != s.stRoot {
		return rep, fmt.Errorf("%w: shadow-table root mismatch", secmem.ErrRecoveryVerification)
	}

	// Phase 2: restore intermediate-node counters (max-merge against
	// duplicates, as in Anubis).
	restored := make(map[sit.NodeID]counter.Node)
	var order []sit.NodeID
	for _, r := range recs {
		stale, _ := s.e.ReadMetaRaw(r.id)
		rep.NodeReads++
		var node counter.Node
		for i := range node.Counters {
			c := (stale.Counters[i] &^ lsb48Mask) | r.ctrLSBs[i]
			if c < stale.Counters[i] {
				c = stale.Counters[i]
			}
			node.Counters[i] = c & counter.CounterMask
		}
		if prev, ok := restored[r.id]; ok {
			for i := range node.Counters {
				if prev.Counters[i] > node.Counters[i] {
					node.Counters[i] = prev.Counters[i]
				}
			}
		} else {
			order = append(order, r.id)
		}
		restored[r.id] = node
	}

	// Phase 3: Osiris probe over every counter block. The stride
	// bounds how far a block's true counters can be past its NVM copy.
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
			for delta := uint64(0); delta < uint64(s.stride); delta++ {
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
					secmem.ErrRecoveryVerification, s.stride, childAddr)
			}
		}
		if changed {
			restored[id] = node
			order = append(order, id)
		}
	}

	// Phase 4: recompute MACs against (restored) parent counters and
	// write everything back.
	for _, id := range order {
		node := restored[id]
		parent, slot := geo.Parent(id)
		var pctr uint64
		if geo.IsRoot(parent) {
			pctr = s.e.RootNode().Counters[slot]
		} else if rn, ok := restored[parent]; ok {
			pctr = rn.Counters[slot]
		} else {
			pn, _ := s.e.ReadMetaRaw(parent)
			rep.NodeReads++
			pctr = pn.Counters[slot]
		}
		node.MACField = s.e.NodeMACField(id, node.Counters, pctr)
		rep.MACComputes++
		s.e.WriteMetaRestored(id, node)
		rep.NodeWrites++
	}
	rep.StaleNodes = len(order)
	rep.Verified = true

	// The verified tree is the volatile ST tree the engine keeps
	// running with.
	s.stTree = tree
	clear(s.updates)
	return rep, nil
}
