// Package star implements STAR (SIT Trace And Recovery), the paper's
// contribution: a write-friendly, fast-recovery persistence scheme for
// security metadata in non-volatile memories.
//
// Three mechanisms cooperate:
//
//  1. Counter-MAC synergization (Section III-B). Persisting a line
//     modifies exactly one counter in its parent node (the lazy SIT
//     update). STAR stores the 10 LSBs of that freshly bumped counter
//     in the unused bits of the persisted line's own 64-bit MAC field,
//     so the parent's modification reaches NVM atomically with the
//     child — zero extra writes. The engine performs the packing (it
//     owns the MAC fields); STAR enables it via Synergize.
//
//  2. Bitmap lines in ADR (Sections III-C/D). One bit per metadata
//     line marks "stale in NVM"; bits flip only on clean/dirty
//     transitions. Sixteen bitmap lines live in the battery-backed ADR
//     domain and spill to the recovery area (RA) under LRU; a
//     multi-layer index (on-chip L3 register → L2 → L1) lets recovery
//     read only the non-zero lines.
//
//  3. Cache-tree (Section III-E). Set-MACs over the dirty metadata
//     lines of each cache set, hashed into a small fixed-shape merkle
//     tree whose root sits in an on-chip non-volatile register.
//     Recovery rebuilds the root from the restored nodes; any replay
//     or tampering during recovery yields a mismatch.
//
// Recovery (Section III-F) restores each stale node bottom-up: the
// MSBs come from its stale NVM copy, the LSBs of its eight counters
// from its eight children's MAC fields, and its MAC is recomputed from
// the (restored) parent counter — ten line reads per stale node.
package star

import (
	"fmt"
	"sort"

	"nvmstar/internal/bitmap"
	"nvmstar/internal/cachetree"
	"nvmstar/internal/counter"
	"nvmstar/internal/memline"
	"nvmstar/internal/nvm"
	"nvmstar/internal/secmem"
	"nvmstar/internal/sit"
)

// Scheme is STAR.
type Scheme struct {
	e       *secmem.Engine
	tracker *bitmap.Tracker
	tree    *cachetree.Tree
	// treeRoot models the on-chip non-volatile root register. While
	// running, the register always equals tree.Root(), which is read
	// where the register is; OnCrash takes the value, and it is all
	// that survives of the cache-tree at a crash.
	treeRoot  uint64
	bitmapCfg bitmap.Config
	crashed   bool
}

// New returns a STAR scheme bound to the engine, with cfg sizing the
// ADR bitmap-line allocation (bitmap.DefaultConfig for the paper's
// 14+2 split).
func New(e *secmem.Engine, cfg bitmap.Config) (*Scheme, error) {
	tracker, err := bitmap.NewTracker(e.Geometry(), e.Device(), cfg)
	if err != nil {
		return nil, err
	}
	tree, err := cachetree.New(e.Suite(), e.MetaCache().NumSets())
	if err != nil {
		return nil, err
	}
	return &Scheme{e: e, tracker: tracker, tree: tree, bitmapCfg: cfg}, nil
}

// Name implements secmem.Scheme.
func (*Scheme) Name() string { return "star" }

// Synergize implements secmem.Scheme: STAR's defining property.
func (*Scheme) Synergize() bool { return true }

// Tracker exposes the bitmap-line tracker (for the Table II and
// Fig. 10 measurements).
func (s *Scheme) Tracker() *bitmap.Tracker { return s.tracker }

// CacheTreeRoot returns the on-chip root register value.
func (s *Scheme) CacheTreeRoot() uint64 {
	if s.crashed {
		return s.treeRoot
	}
	return s.tree.Root()
}

// OnMetaDirty implements secmem.Scheme: record the line's location in
// the bitmap lines — the only moment STAR touches them.
func (s *Scheme) OnMetaDirty(_ sit.NodeID, metaIdx uint64, _ int) {
	s.tracker.MarkStale(metaIdx)
}

// OnMetaModified implements secmem.Scheme: refresh the set-MAC of the
// modified line's cache set; the branch to the root follows lazily.
func (s *Scheme) OnMetaModified(_ sit.NodeID, set int) {
	s.tree.UpdateSet(set, s.e.DirtySetEntries(set))
}

// OnMetaClean implements secmem.Scheme: the NVM copy is fresh again —
// clear the bitmap bit and drop the line from its set-MAC.
func (s *Scheme) OnMetaClean(_ sit.NodeID, metaIdx uint64, set int, _ bool) {
	s.tracker.MarkFresh(metaIdx)
	s.tree.UpdateSet(set, s.e.DirtySetEntries(set))
}

// OnChildPersisted implements secmem.Scheme: the parent's modification
// already travelled inside the child's MAC field; nothing extra to do.
func (*Scheme) OnChildPersisted(sit.NodeID) error { return nil }

// Fork implements secmem.Scheme: rebind to the forked engine with deep
// copies of the bitmap tracker (its ADR load/spill closures rebuilt
// against the forked device), the cache-tree, the root register and the
// crash flag.
func (s *Scheme) Fork(e *secmem.Engine) secmem.Scheme {
	tracker, err := s.tracker.Fork(e.Device())
	if err != nil {
		// Fork copies an already-validated tracker; a failure here is a
		// programming error, not a runtime condition.
		panic(fmt.Sprintf("star: tracker fork: %v", err))
	}
	return &Scheme{
		e:         e,
		tracker:   tracker,
		tree:      s.tree.Fork(),
		treeRoot:  s.CacheTreeRoot(),
		bitmapCfg: s.bitmapCfg,
		crashed:   s.crashed,
	}
}

// OnCrash implements secmem.Scheme: battery-dump the ADR bitmap lines
// into the recovery area. The L3 index register and the cache-tree
// root survive on chip. The engine has already cleared its dirty
// lists, but the tree's set-MACs were computed as the sets changed,
// so the root still covers the pre-crash dirty lines.
func (s *Scheme) OnCrash() {
	s.treeRoot = s.tree.Root()
	s.tracker.Crash()
	s.crashed = true
}

// Recover implements secmem.Scheme (Section III-F).
func (s *Scheme) Recover() (*secmem.RecoveryReport, error) {
	return s.recover(false)
}

// RecoverFlatScan is Recover without the multi-layer index: every L1
// bitmap line in the RA is read. It quantifies the index's benefit
// (the ablation benchmark); results are identical.
func (s *Scheme) RecoverFlatScan() (*secmem.RecoveryReport, error) {
	return s.recover(true)
}

func (s *Scheme) recover(flatScan bool) (*secmem.RecoveryReport, error) {
	rep := &secmem.RecoveryReport{Scheme: "star", Supported: true}
	if !s.crashed {
		return rep, fmt.Errorf("star: recover called without a crash")
	}
	geo := s.e.Geometry()

	// Step 1: locate the stale metadata through the multi-layer index.
	var scan bitmap.ScanResult
	if flatScan {
		scan = s.tracker.ScanStaleFlat()
	} else {
		scan = s.tracker.ScanStale()
	}
	rep.IndexReads = scan.LinesRead
	rep.StaleNodes = len(scan.StaleMetaIdx)

	ids := make([]sit.NodeID, 0, len(scan.StaleMetaIdx))
	for _, metaIdx := range scan.StaleMetaIdx {
		id, ok := geo.NodeAtMetaLine(metaIdx)
		if !ok {
			return rep, fmt.Errorf("%w: bitmap marks non-metadata line %d",
				secmem.ErrRecoveryVerification, metaIdx)
		}
		ids = append(ids, id)
	}
	// Bottom-up: counter blocks first. (Counter restoration is order
	// independent — every child's LSB slot in NVM is current — but
	// the paper restores bottom-up and deterministic order aids
	// debugging.)
	sort.Slice(ids, func(i, j int) bool {
		if ids[i].Level != ids[j].Level {
			return ids[i].Level < ids[j].Level
		}
		return ids[i].Index < ids[j].Index
	})

	// Steps 2+3: restore counters (stale MSBs + children's LSBs), then
	// recompute MACs against (restored) parent counters and write the
	// nodes back.
	restored := make(map[sit.NodeID]counter.Node, len(ids))
	// Step 2.
	for _, id := range ids {
		stale, _ := s.e.ReadMetaRaw(id)
		rep.NodeReads++
		node := stale
		for slot := 0; slot < counter.Arity; slot++ {
			lsb, ok := s.childLSB(id, slot, rep)
			if !ok {
				// Child never persisted: the counter was never bumped
				// since the stale copy; keep the stale value.
				continue
			}
			node.Counters[slot] = counter.CombineLSB(stale.Counters[slot], lsb)
		}
		restored[id] = node
	}

	// Step 3.
	for _, id := range ids {
		node := restored[id]
		pctr := s.parentCounter(id, restored, rep)
		node.MACField = s.e.NodeMACField(id, node.Counters, pctr)
		rep.MACComputes++
		restored[id] = node
		s.e.WriteMetaRestored(id, node)
		rep.NodeWrites++
	}

	// Step 4: rebuild the cache-tree from the restored nodes — the
	// same set/address ordering used before the crash — and compare
	// roots. Any replay or tampering of recovery inputs surfaces here.
	perSet := make(map[int][]cachetree.SetEntry)
	for _, id := range ids {
		addr := geo.NodeAddr(id)
		set := s.e.MetaCache().SetIndex(addr)
		perSet[set] = append(perSet[set], cachetree.SetEntry{Addr: addr, MAC: restored[id].MACField})
	}
	root, err := cachetree.BuildRoot(s.e.Suite(), s.e.MetaCache().NumSets(), perSet)
	if err != nil {
		return rep, err
	}
	if root != s.treeRoot {
		return rep, fmt.Errorf("%w: cache-tree root mismatch (stored %#x, rebuilt %#x)",
			secmem.ErrRecoveryVerification, s.treeRoot, root)
	}
	rep.Verified = true

	// Start the volatile tracking structures afresh for continued
	// execution: all metadata in NVM is fresh now.
	return rep, s.reset(scan.StaleMetaIdx)
}

// childLSB reads the 10-bit LSB slot persisted in the MAC field of the
// slot'th child of id. ok is false when the child does not exist or
// was never written to NVM.
func (s *Scheme) childLSB(id sit.NodeID, slot int, rep *secmem.RecoveryReport) (uint64, bool) {
	geo := s.e.Geometry()
	if id.Level == 0 {
		childAddr, exists := geo.ChildDataAddr(id, slot)
		if !exists {
			return 0, false
		}
		_, macField, present := s.e.ReadDataRaw(childAddr)
		rep.NodeReads++
		if !present {
			return 0, false
		}
		return counter.LSB10(macField), true
	}
	child, exists := geo.ChildNode(id, slot)
	if !exists {
		return 0, false
	}
	node, present := s.e.ReadMetaRaw(child)
	rep.NodeReads++
	if !present {
		return 0, false
	}
	return counter.LSB10(node.MACField), true
}

func (s *Scheme) parentCounter(id sit.NodeID, restored map[sit.NodeID]counter.Node, rep *secmem.RecoveryReport) uint64 {
	geo := s.e.Geometry()
	parent, slot := geo.Parent(id)
	if geo.IsRoot(parent) {
		return s.e.RootNode().Counters[slot]
	}
	// The read is performed (and counted) even when the parent is in
	// the restored set — its NVM copy carries the needed MSB context —
	// matching the paper's 10-reads-per-stale-node accounting; the
	// authoritative counters come from the restored map when present.
	n, _ := s.e.ReadMetaRaw(parent)
	rep.NodeReads++
	if rn, ok := restored[parent]; ok {
		return rn.Counters[slot]
	}
	return n.Counters[slot]
}

// reset starts the tracker and cache-tree afresh after a successful
// recovery so the engine can keep executing. The recovery-area bitmap
// lines consumed by the scan are zeroed (the restored metadata is
// fresh); this cleanup happens once, after the timed recovery, so it
// is applied out of band. The in-controller structures are then built
// anew by their constructors, as New builds them.
func (s *Scheme) reset(staleMetaIdx []uint64) error {
	geo := s.e.Geometry()
	dev := s.e.Device()
	cleared := make(map[uint64]bool)
	for _, metaIdx := range staleMetaIdx {
		l1 := metaIdx / memline.Bits
		if !cleared[l1] {
			cleared[l1] = true
			dev.StoreOOB(geo.RAL1Addr(l1), memline.Line{}, nvm.CauseRecovery)
		}
	}
	for l2 := uint64(0); l2 < geo.RAL2Lines(); l2++ {
		dev.StoreOOB(geo.RAL2Addr(l2), memline.Line{}, nvm.CauseRecovery)
	}
	fresh, err := New(s.e, s.bitmapCfg)
	if err != nil {
		return err
	}
	*s = *fresh
	return nil
}
