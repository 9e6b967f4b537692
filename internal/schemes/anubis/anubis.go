// Package anubis implements the Anubis-for-SIT baseline (Zubair &
// Awad, ISCA'19) as the paper models it: every memory write is
// accompanied by one extra shadow-table (ST) block write recording the
// address, counter LSBs and MAC of the written line's parent node —
// doubling the write traffic — and recovery replays the ST, which is
// sized to mirror the metadata cache, so recovery time scales with the
// cache size rather than the memory size.
//
// The ST's own integrity is protected by an on-chip incrementally
// updated merkle root over the ST region (volatile tree, non-volatile
// root register), which recovery rebuilds and compares before trusting
// any ST content.
package anubis

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

// lsb48Mask selects the 48 counter bits an ST entry records. The
// in-NVM stale copy supplies the remaining MSBs; a counter would have
// to advance 2^48 times while its block sits dirty in the cache for
// reconstruction to become ambiguous, which cannot happen.
const lsb48Mask = (uint64(1) << 48) - 1

// Entry is one decoded shadow-table block: the state of one (possibly
// dirty) metadata node at its last modification.
type Entry struct {
	NodeAddr uint64
	CtrLSBs  [counter.Arity]uint64 // low 48 bits of each counter
	MAC      uint64                // the node's MAC field at that time
}

// encode packs an entry into one 64-byte line:
// 8B node address | 8 x 6B counter LSBs | 8B MAC.
func (e Entry) encode() memline.Line {
	var l memline.Line
	binary.LittleEndian.PutUint64(l[0:8], e.NodeAddr)
	for i, c := range e.CtrLSBs {
		var tmp [8]byte
		binary.LittleEndian.PutUint64(tmp[:], c&lsb48Mask)
		copy(l[8+i*6:8+(i+1)*6], tmp[:6])
	}
	binary.LittleEndian.PutUint64(l[56:64], e.MAC)
	return l
}

func decodeEntry(l memline.Line) Entry {
	var e Entry
	e.NodeAddr = binary.LittleEndian.Uint64(l[0:8])
	for i := 0; i < counter.Arity; i++ {
		var tmp [8]byte
		copy(tmp[:6], l[8+i*6:8+(i+1)*6])
		e.CtrLSBs[i] = binary.LittleEndian.Uint64(tmp[:])
	}
	e.MAC = binary.LittleEndian.Uint64(l[56:64])
	return e
}

// Stats counts Anubis-specific traffic.
type Stats struct {
	STWrites uint64 // shadow-table lines written during the run
	STReads  uint64 // shadow-table lines read during recovery
}

// Sub returns s - o, for measuring a phase between two snapshots.
func (s Stats) Sub(o Stats) Stats {
	return Stats{STWrites: s.STWrites - o.STWrites, STReads: s.STReads - o.STReads}
}

// Scheme is the Anubis-SIT baseline.
type Scheme struct {
	e      *secmem.Engine
	stTree *cachetree.Tree // on-chip merkle protection of the ST region
	stRoot uint64          // non-volatile root register, snapshotted at crash
	stats  Stats
	// Reused buffers for the per-write ST update: the encoded line and
	// the one-entry slice would otherwise escape through the Suite and
	// UpdateSet calls and allocate on every user write.
	lineBuf memline.Line
	entBuf  [1]cachetree.SetEntry
}

// New returns an Anubis scheme bound to the engine.
func New(e *secmem.Engine) (*Scheme, error) {
	t, err := cachetree.New(e.Suite(), int(e.Geometry().STLines()))
	if err != nil {
		return nil, err
	}
	return &Scheme{e: e, stTree: t}, nil
}

// Name implements secmem.Scheme.
func (*Scheme) Name() string { return "anubis" }

// Synergize implements secmem.Scheme: Anubis uses plain 64-bit MACs;
// its modifications travel in ST blocks, not in spare MAC bits.
func (*Scheme) Synergize() bool { return false }

// OnMetaDirty implements secmem.Scheme.
func (*Scheme) OnMetaDirty(sit.NodeID, uint64, int) {}

// OnMetaModified implements secmem.Scheme.
func (*Scheme) OnMetaModified(sit.NodeID, int) {}

// OnMetaClean implements secmem.Scheme.
func (*Scheme) OnMetaClean(sit.NodeID, uint64, int, bool) {}

// Stats returns the scheme counters.
func (s *Scheme) Stats() Stats { return s.stats }

// OnChildPersisted implements secmem.Scheme: shadow the freshly
// modified parent node into the ST slot that mirrors its cache slot —
// the "2x writes" of Anubis for SIT.
func (s *Scheme) OnChildPersisted(parent sit.NodeID) error {
	geo := s.e.Geometry()
	if geo.IsRoot(parent) {
		return nil // the root is on-chip; nothing to shadow
	}
	node, set, way, ok := s.e.CachedNode(parent)
	if !ok {
		return fmt.Errorf("anubis: bumped parent %v not cached", parent)
	}
	slot := uint64(set*s.e.MetaCache().Ways() + way)
	entry := Entry{NodeAddr: geo.NodeAddr(parent), MAC: node.MACField}
	for i, c := range node.Counters {
		entry.CtrLSBs[i] = c & lsb48Mask
	}
	s.lineBuf = entry.encode()
	s.e.Device().WriteCause(geo.STAddr(slot), s.lineBuf, nvm.CauseMAC)
	s.stats.STWrites++
	// Refresh the on-chip ST merkle root (hash work only, no memory
	// traffic).
	s.entBuf[0] = cachetree.SetEntry{Addr: entry.NodeAddr, MAC: s.e.Suite().MAC(s.lineBuf[:])}
	s.stTree.UpdateSet(int(slot), s.entBuf[:])
	return nil
}

// OnCrash implements secmem.Scheme: the ST already lives in NVM; only
// the on-chip root register survives (it was maintained all along).
func (s *Scheme) OnCrash() { s.stRoot = s.stTree.Root() }

// Reset implements secmem.Scheme: restore just-constructed state for
// machine reuse. The ST region itself lives in NVM and is cleared by
// the engine's device reset; the volatile tree over it rewinds here.
func (s *Scheme) Reset() {
	s.stTree.Reset(s.e.Suite())
	s.stRoot = 0
	s.stats = Stats{}
}

// Fork implements secmem.Scheme: rebind to the forked engine with a
// deep copy of the ST merkle tree, the root register snapshot and the
// counters. The reused encode buffers are scratch, valid only within
// one operation, so the fork starts with fresh zero ones.
func (s *Scheme) Fork(e *secmem.Engine) secmem.Scheme {
	return &Scheme{e: e, stTree: s.stTree.Fork(), stRoot: s.stRoot, stats: s.stats}
}

// SaveRegisters implements secmem.RegisterPersister: Anubis's only
// on-chip non-volatile state is the shadow-table merkle root.
func (s *Scheme) SaveRegisters(w io.Writer) error {
	return binary.Write(w, binary.LittleEndian, s.stRoot)
}

// RestoreRegisters implements secmem.RegisterPersister.
func (s *Scheme) RestoreRegisters(r io.Reader) error {
	return binary.Read(r, binary.LittleEndian, &s.stRoot)
}

// Recover implements secmem.Scheme. It verifies the ST region against
// the on-chip root, then restores every shadowed node: counters are
// the stale NVM MSBs combined with the ST's 48-bit LSBs; MACs are
// recomputed against the (restored) parent counters.
func (s *Scheme) Recover() (*secmem.RecoveryReport, error) {
	rep := &secmem.RecoveryReport{Scheme: "anubis", Supported: true}
	geo := s.e.Geometry()
	dev := s.e.Device()

	// Phase 1: scan and authenticate the ST region.
	type stRec struct {
		id    sit.NodeID
		entry Entry
	}
	var recs []stRec
	perSlot := make(map[int][]cachetree.SetEntry)
	for i := uint64(0); i < geo.STLines(); i++ {
		line, ok := dev.Read(geo.STAddr(i))
		rep.IndexReads++
		s.stats.STReads++
		if !ok || (&line).IsZero() {
			continue
		}
		entry := decodeEntry(line)
		perSlot[int(i)] = []cachetree.SetEntry{{Addr: entry.NodeAddr, MAC: s.e.Suite().MAC(line[:])}}
		rep.MACComputes++
		id, idOK := geo.NodeAt(entry.NodeAddr)
		if !idOK {
			rep.Verified = false
			return rep, fmt.Errorf("%w: ST entry names non-metadata address %#x",
				secmem.ErrRecoveryVerification, entry.NodeAddr)
		}
		recs = append(recs, stRec{id: id, entry: entry})
	}
	tree, err := cachetree.Build(s.e.Suite(), s.stTree.NumSets(), perSlot)
	if err != nil {
		return rep, err
	}
	if tree.Root() != s.stRoot {
		rep.Verified = false
		return rep, fmt.Errorf("%w: shadow-table root mismatch", secmem.ErrRecoveryVerification)
	}

	// Phase 2: restore counters (stale MSBs + ST LSBs). A node can
	// appear in two ST slots (an old entry left behind after eviction
	// plus a fresh one from its current slot); counters are monotonic,
	// so the per-counter maximum is the current state.
	restored := make(map[sit.NodeID]counter.Node, len(recs))
	var order []sit.NodeID
	for _, r := range recs {
		stale, _ := s.e.ReadMetaRaw(r.id)
		rep.NodeReads++
		var node counter.Node
		for i := range node.Counters {
			node.Counters[i] = combine48(stale.Counters[i], r.entry.CtrLSBs[i])
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

	// Phase 3: recompute MACs against (restored) parent counters and
	// write the nodes back.
	for _, id := range order {
		node := restored[id]
		pctr, err := s.parentCounter(id, restored, rep)
		if err != nil {
			return rep, err
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
	return rep, nil
}

func (s *Scheme) parentCounter(id sit.NodeID, restored map[sit.NodeID]counter.Node, rep *secmem.RecoveryReport) (uint64, error) {
	parent, slot := s.e.Geometry().Parent(id)
	if s.e.Geometry().IsRoot(parent) {
		return s.e.RootNode().Counters[slot], nil
	}
	if n, ok := restored[parent]; ok {
		return n.Counters[slot], nil
	}
	n, _ := s.e.ReadMetaRaw(parent)
	rep.NodeReads++
	return n.Counters[slot], nil
}

// combine48 rebuilds a counter from its stale NVM value and the 48
// LSBs recorded in an ST entry. A current entry always satisfies
// entry >= stale (counters are monotonic and the ST shadows every
// modification); a smaller combination therefore identifies a leftover
// entry from an earlier residency of the node, whose information is
// already reflected in NVM — keep the stale value. Counters never
// approach 2^48 within an NVM lifetime, so no wrap case exists.
func combine48(stale, lsb48 uint64) uint64 {
	restored := (stale &^ lsb48Mask) | (lsb48 & lsb48Mask)
	if restored < stale {
		return stale
	}
	return restored & counter.CounterMask
}
