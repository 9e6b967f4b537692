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
//
// The shadow table is its own type, ShadowTable, so that Phoenix
// (which shadows intermediate nodes exactly as Anubis does) reuses
// the same write, replay and write-back.
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

// Stats counts shadow-table traffic.
type Stats struct {
	STWrites uint64 // shadow-table lines written during the run
	STReads  uint64 // shadow-table lines read during recovery
}

// Sub returns s - o, for measuring a phase between two snapshots.
func (s Stats) Sub(o Stats) Stats {
	return Stats{STWrites: s.STWrites - o.STWrites, STReads: s.STReads - o.STReads}
}

// ShadowTable is the NVM shadow table with its on-chip protection: a
// merkle tree over the ST slots and the non-volatile root register
// that survives a crash. Slot i mirrors metadata-cache slot i.
type ShadowTable struct {
	e     *secmem.Engine
	tree  *cachetree.Tree // on-chip merkle protection of the ST region
	root  uint64          // non-volatile root register, snapshotted at crash
	stats Stats
	// Reused buffers for the per-write ST update: the encoded line and
	// the one-entry slice would otherwise escape through the Suite and
	// UpdateSet calls and allocate on every shadowed write.
	lineBuf memline.Line
	entBuf  [1]cachetree.SetEntry
}

// NewShadowTable returns an empty shadow table bound to the engine.
func NewShadowTable(e *secmem.Engine) (*ShadowTable, error) {
	t, err := cachetree.New(e.Suite(), int(e.Geometry().STLines()))
	if err != nil {
		return nil, err
	}
	return &ShadowTable{e: e, tree: t}, nil
}

// Shadow writes the cached node id into the ST slot that mirrors its
// cache slot and refreshes that slot's merkle leaf (hash work only, no
// memory traffic). The root is on-chip and never shadowed.
func (t *ShadowTable) Shadow(id sit.NodeID) error {
	geo := t.e.Geometry()
	if geo.IsRoot(id) {
		return nil
	}
	node, set, way, ok := t.e.CachedNode(id)
	if !ok {
		return fmt.Errorf("anubis: shadowed node %v not cached", id)
	}
	slot := uint64(set*t.e.MetaCache().Ways() + way)
	entry := Entry{NodeAddr: geo.NodeAddr(id), MAC: node.MACField}
	for i, c := range node.Counters {
		entry.CtrLSBs[i] = c & lsb48Mask
	}
	t.lineBuf = entry.encode()
	t.e.Device().WriteCause(geo.STAddr(slot), t.lineBuf, nvm.CauseMAC)
	t.stats.STWrites++
	t.entBuf[0] = cachetree.SetEntry{Addr: entry.NodeAddr, MAC: t.e.Suite().MAC(t.lineBuf[:])}
	t.tree.UpdateSet(int(slot), t.entBuf[:])
	return nil
}

// Crash snapshots the root register: the ST already lives in NVM, and
// only the register survives of its on-chip protection.
func (t *ShadowTable) Crash() { t.root = t.tree.Root() }

// Fork returns a copy bound to the forked engine, with a deep copy of
// the merkle tree, the root register and the counters. The reused
// encode buffers are scratch, valid only within one operation, so the
// fork starts with fresh zero ones.
func (t *ShadowTable) Fork(e *secmem.Engine) *ShadowTable {
	return &ShadowTable{e: e, tree: t.tree.Fork(), root: t.root, stats: t.stats}
}

// SaveRegisters implements secmem.RegisterPersister: the shadow
// table's only on-chip non-volatile state is its merkle root.
func (t *ShadowTable) SaveRegisters(w io.Writer) error {
	return binary.Write(w, binary.LittleEndian, t.root)
}

// RestoreRegisters implements secmem.RegisterPersister.
func (t *ShadowTable) RestoreRegisters(r io.Reader) error {
	return binary.Read(r, binary.LittleEndian, &t.root)
}

// Replay scans the ST region, authenticates it against the root
// register and restores every shadowed node's counters: the stale NVM
// MSBs combined with the entry's 48-bit LSBs. A node can appear in two
// ST slots (an old entry left behind after eviction plus a fresh one
// from its current slot); counters are monotonic, so the per-counter
// maximum is the current state. It returns the restored nodes and
// their first-seen order, and adopts the verified tree as the running
// one. An entry naming a node outside the SIT, or one want rejects
// (nil accepts every node), fails verification.
func (t *ShadowTable) Replay(rep *secmem.RecoveryReport, want func(sit.NodeID) bool) (map[sit.NodeID]counter.Node, []sit.NodeID, error) {
	geo := t.e.Geometry()
	dev := t.e.Device()

	type stRec struct {
		id    sit.NodeID
		entry Entry
	}
	var recs []stRec
	perSlot := make(map[int][]cachetree.SetEntry)
	for i := uint64(0); i < geo.STLines(); i++ {
		line, ok := dev.Read(geo.STAddr(i))
		rep.IndexReads++
		t.stats.STReads++
		if !ok || (&line).IsZero() {
			continue
		}
		entry := decodeEntry(line)
		perSlot[int(i)] = []cachetree.SetEntry{{Addr: entry.NodeAddr, MAC: t.e.Suite().MAC(line[:])}}
		rep.MACComputes++
		id, idOK := geo.NodeAt(entry.NodeAddr)
		if !idOK || (want != nil && !want(id)) {
			return nil, nil, fmt.Errorf("%w: ST entry names invalid node %#x",
				secmem.ErrRecoveryVerification, entry.NodeAddr)
		}
		recs = append(recs, stRec{id: id, entry: entry})
	}
	tree, err := cachetree.Build(t.e.Suite(), t.tree.NumSets(), perSlot)
	if err != nil {
		return nil, nil, err
	}
	if tree.Root() != t.root {
		return nil, nil, fmt.Errorf("%w: shadow-table root mismatch", secmem.ErrRecoveryVerification)
	}

	restored := make(map[sit.NodeID]counter.Node, len(recs))
	var order []sit.NodeID
	for _, r := range recs {
		stale, _ := t.e.ReadMetaRaw(r.id)
		rep.NodeReads++
		var node counter.Node
		for i := range node.Counters {
			node.Counters[i] = combine48(stale.Counters[i], r.entry.CtrLSBs[i])
		}
		if prev, ok := restored[r.id]; ok {
			for i := range node.Counters {
				node.Counters[i] = max(node.Counters[i], prev.Counters[i])
			}
		} else {
			order = append(order, r.id)
		}
		restored[r.id] = node
	}
	t.tree = tree
	return restored, order, nil
}

// WriteBack recomputes the MAC of each node in order against its
// parent's counter — taken from restored when the parent was restored
// too, read from NVM otherwise — writes the node back and marks the
// recovery verified.
func (t *ShadowTable) WriteBack(rep *secmem.RecoveryReport, restored map[sit.NodeID]counter.Node, order []sit.NodeID) {
	geo := t.e.Geometry()
	for _, id := range order {
		node := restored[id]
		parent, slot := geo.Parent(id)
		var pctr uint64
		if geo.IsRoot(parent) {
			pctr = t.e.RootNode().Counters[slot]
		} else if pn, ok := restored[parent]; ok {
			pctr = pn.Counters[slot]
		} else {
			pn, _ := t.e.ReadMetaRaw(parent)
			rep.NodeReads++
			pctr = pn.Counters[slot]
		}
		node.MACField = t.e.NodeMACField(id, node.Counters, pctr)
		rep.MACComputes++
		t.e.WriteMetaRestored(id, node)
		rep.NodeWrites++
	}
	rep.StaleNodes = len(order)
	rep.Verified = true
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

// Scheme is the Anubis-SIT baseline: the shadow table, written for
// every persisted child.
type Scheme struct {
	*ShadowTable
}

// New returns an Anubis scheme bound to the engine.
func New(e *secmem.Engine) (*Scheme, error) {
	t, err := NewShadowTable(e)
	if err != nil {
		return nil, err
	}
	return &Scheme{t}, nil
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

// Stats returns the shadow-table counters.
func (s *Scheme) Stats() Stats { return s.stats }

// OnChildPersisted implements secmem.Scheme: shadow the freshly
// modified parent node — the "2x writes" of Anubis for SIT.
func (s *Scheme) OnChildPersisted(parent sit.NodeID) error { return s.Shadow(parent) }

// OnCrash implements secmem.Scheme.
func (s *Scheme) OnCrash() { s.Crash() }

// Fork implements secmem.Scheme.
func (s *Scheme) Fork(e *secmem.Engine) secmem.Scheme { return &Scheme{s.ShadowTable.Fork(e)} }

// Recover implements secmem.Scheme: replay the verified ST and write
// every shadowed node back with its MAC recomputed against the
// (restored) parent counters.
func (s *Scheme) Recover() (*secmem.RecoveryReport, error) {
	rep := &secmem.RecoveryReport{Scheme: "anubis", Supported: true}
	restored, order, err := s.Replay(rep, nil)
	if err != nil {
		return rep, err
	}
	s.WriteBack(rep, restored, order)
	return rep, nil
}
