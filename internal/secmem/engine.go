// Package secmem implements the secure-memory engine at the heart of
// the simulator: counter-mode encryption of user data, SGX integrity
// tree (SIT) verification with lazy updates, and the security-metadata
// cache in the memory controller. Persistence-and-recovery policies
// (WB, strict, Anubis, STAR) plug in through the Scheme interface.
//
// # Data path
//
// A user-data write arriving at the memory controller bumps the
// covering counter in the data line's counter block (level 0 of the
// SIT), encrypts the line with a fresh one-time pad, and writes the
// ciphertext plus its MAC as a single NVM line (the MAC rides in the
// 9th chip, as in Synergy). The counter block becomes dirty in the
// metadata cache. When a dirty metadata block is evicted (or flushed),
// the corresponding counter in its parent node is bumped and the block
// is written to NVM — the lazy SIT update scheme: only the parent
// changes, all other ancestors stay untouched until their own children
// are written back.
//
// # Counter-MAC synergization
//
// When the active scheme enables synergization (STAR), the 10 spare
// bits of every written line's 64-bit MAC field carry the 10 LSBs of
// the just-bumped parent counter, so the parent's modification
// persists atomically with the child — with zero extra writes. A
// forced write-back refreshes the parent's in-NVM MSBs whenever one of
// its counters advances 2^10 times without the block reaching NVM,
// keeping LSB-based reconstruction unambiguous.
package secmem

import (
	"encoding/binary"
	"fmt"

	"nvmstar/internal/cache"
	"nvmstar/internal/cachetree"
	"nvmstar/internal/counter"
	"nvmstar/internal/memline"
	"nvmstar/internal/nvm"
	"nvmstar/internal/paged"
	"nvmstar/internal/simcrypto"
	"nvmstar/internal/sit"
)

// forcedFlushWindow is how far a counter may advance past its in-NVM
// copy before the engine forces a write-back of the block (the MSB
// update rule of counter-MAC synergization).
const forcedFlushWindow = simcrypto.LSBMask // 1023

// Config configures an Engine.
type Config struct {
	// DataBytes is the protected user-data capacity.
	DataBytes uint64
	// MetaCache sizes the security-metadata cache in the memory
	// controller (the paper's default: 512 KB, 8-way).
	MetaCache cache.Config
	// Suite supplies OTP and MAC primitives.
	Suite simcrypto.Suite
}

// DefaultMetaCache is the paper's metadata cache configuration.
func DefaultMetaCache() cache.Config {
	return cache.Config{SizeBytes: 512 << 10, Ways: 8}
}

// Stats counts engine-level events. NVM traffic is broken down by the
// region it targets; scheme-specific traffic (shadow table, bitmap
// lines) is counted by the schemes themselves and by the device.
type Stats struct {
	UserReads  uint64 // user-line reads served
	UserWrites uint64 // user-line writes persisted

	DataNVMReads  uint64
	DataNVMWrites uint64
	MetaNVMReads  uint64
	MetaNVMWrites uint64

	ForcedFlushes uint64 // MSB-rule write-backs
	MACComputes   uint64
}

// Sub returns s - o, for measuring a phase between two snapshots.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		UserReads:     s.UserReads - o.UserReads,
		UserWrites:    s.UserWrites - o.UserWrites,
		DataNVMReads:  s.DataNVMReads - o.DataNVMReads,
		DataNVMWrites: s.DataNVMWrites - o.DataNVMWrites,
		MetaNVMReads:  s.MetaNVMReads - o.MetaNVMReads,
		MetaNVMWrites: s.MetaNVMWrites - o.MetaNVMWrites,
		ForcedFlushes: s.ForcedFlushes - o.ForcedFlushes,
		MACComputes:   s.MACComputes - o.MACComputes,
	}
}

// MetaLine is what the metadata cache holds for one metadata node: the
// node itself, kept decoded so counter bumps edit it in place, and the
// bookkeeping that lives exactly as long as the node is cached. The
// node is encoded only when it is written to NVM.
type MetaLine struct {
	Node counter.Node
	// ParentCtr is the parent's counter for this node. It is constant
	// while the node is cached: the parent bumps it only when this
	// node is written back (which refreshes this snapshot).
	ParentCtr uint64
	// Base holds the counter values of the node's in-NVM copy, for
	// the forced-MSB-flush rule.
	Base [counter.Arity]uint64
}

// Engine is the secure-memory controller. It is not safe for
// concurrent use: the simulator is single-goroutine so runs are
// reproducible.
type Engine struct {
	geo   *sit.Geometry
	dev   *nvm.Device
	suite simcrypto.Suite
	meta  *cache.Of[MetaLine]
	root  counter.Node // on-chip non-volatile root register
	// dataMAC models the sideband MAC chip: one 64-bit field per data
	// line, keyed by line index in a paged table so the per-access
	// lookup and store allocate nothing.
	dataMAC *paged.Table[uint64]
	scheme  Scheme
	stats   Stats

	// pendingForced queues forced MSB write-backs (see bumpSlot); they
	// run only after the child write that triggered them reaches NVM.
	pendingForced []sit.NodeID

	// dirtySets maintains, per metadata-cache set, the dirty lines in
	// ascending address order with their current MAC fields — the exact
	// input of the cache-tree's set-MAC. It is updated incrementally at
	// every dirty transition, MAC refresh and clean, so DirtySetEntries
	// is O(1) instead of a scan-decode-sort per call.
	dirtySets [][]SetEntry

	// onEvent is the optional event hook installed by SetEventHook.
	onEvent func(ev Event, addr uint64)

	// macBuf is the reused input buffer for Node/DataMACField. Both
	// inputs are exactly 80 bytes (addr + 8 counters + parent counter,
	// or addr + 64-byte ciphertext + counter); building them in a field
	// instead of a local keeps the slice passed through the Suite
	// interface from escaping, so MAC computation does not allocate.
	macBuf [80]byte

	// recovering is set for the duration of Recover: NVM writes issued
	// while it is true are attributed to CauseRecovery instead of their
	// steady-state cause, so recovery replay traffic is separable in
	// write-cause breakdowns.
	recovering bool
}

// Event is an engine-internal occurrence reported to the hook
// installed by SetEventHook.
type Event uint8

const (
	EventForcedFlush Event = iota // a forced MSB write-back was queued; addr is the parent node's
	EventMetaEvict                // a clean line left the metadata cache; addr is the line's
)

// SetEventHook installs fn to observe forced MSB flushes and metadata
// evictions (nil, the default, to remove it).
func (e *Engine) SetEventHook(fn func(ev Event, addr uint64)) { e.onEvent = fn }

// New builds an engine. Call SetScheme once before any operation.
func New(cfg Config) (*Engine, error) {
	if cfg.Suite == nil {
		return nil, fmt.Errorf("secmem: a crypto suite is required")
	}
	if cfg.MetaCache.SizeBytes == 0 {
		cfg.MetaCache = DefaultMetaCache()
	}
	meta, err := cache.NewOf[MetaLine](cfg.MetaCache)
	if err != nil {
		return nil, fmt.Errorf("secmem: metadata cache: %w", err)
	}
	geo, err := sit.New(cfg.DataBytes, uint64(meta.Lines()))
	if err != nil {
		return nil, err
	}
	dev, err := nvm.New(nvm.Config{CapacityBytes: geo.TotalBytes()})
	if err != nil {
		return nil, err
	}
	return &Engine{
		geo:       geo,
		dev:       dev,
		suite:     cfg.Suite,
		meta:      meta,
		dataMAC:   paged.New[uint64](geo.DataBytes() / memline.Size),
		dirtySets: make([][]SetEntry, meta.NumSets()),
	}, nil
}

// SetScheme installs the persistence scheme. It must be called exactly
// once after New or Reset, before any memory operation.
func (e *Engine) SetScheme(s Scheme) {
	if e.scheme != nil {
		panic("secmem: scheme already set; SetScheme is called once after New or Reset")
	}
	e.scheme = s
}

// Geometry returns the address-space layout.
func (e *Engine) Geometry() *sit.Geometry { return e.geo }

// Device returns the NVM device.
func (e *Engine) Device() *nvm.Device { return e.dev }

// Suite returns the crypto suite.
func (e *Engine) Suite() simcrypto.Suite { return e.suite }

// MetaCache returns the security-metadata cache.
func (e *Engine) MetaCache() *cache.Of[MetaLine] { return e.meta }

// Scheme returns the installed scheme.
func (e *Engine) Scheme() Scheme { return e.scheme }

// Stats returns a copy of the engine counters.
func (e *Engine) Stats() Stats { return e.stats }

// RootNode returns a copy of the on-chip root register (8 counters
// covering the topmost stored level).
func (e *Engine) RootNode() counter.Node { return e.root }

// --- MAC helpers ------------------------------------------------------

// NodeMACField computes the full 64-bit MAC field of a metadata node:
// a keyed MAC over (address, counters, parent counter), truncated to
// 54 bits with the parent counter's 10 LSBs packed alongside when
// synergization is on, or a full 64-bit MAC otherwise.
func (e *Engine) NodeMACField(id sit.NodeID, ctrs [counter.Arity]uint64, parentCtr uint64) uint64 {
	e.stats.MACComputes++
	buf := &e.macBuf
	binary.LittleEndian.PutUint64(buf[0:8], e.geo.NodeAddr(id))
	for i, c := range ctrs {
		binary.LittleEndian.PutUint64(buf[8+i*8:16+i*8], c)
	}
	binary.LittleEndian.PutUint64(buf[72:80], parentCtr)
	mac := e.suite.MAC(buf[:])
	if e.scheme.Synergize() {
		return counter.PackMACField(mac, parentCtr&simcrypto.LSBMask)
	}
	return mac
}

// DataMACField computes the MAC field of a user-data line over
// (address, ciphertext, covering counter), with the counter's 10 LSBs
// packed alongside under synergization.
func (e *Engine) DataMACField(addr uint64, cipher memline.Line, ctr uint64) uint64 {
	e.stats.MACComputes++
	buf := &e.macBuf
	binary.LittleEndian.PutUint64(buf[0:8], addr)
	copy(buf[8:8+memline.Size], cipher[:])
	binary.LittleEndian.PutUint64(buf[72:80], ctr)
	mac := e.suite.MAC(buf[:])
	if e.scheme.Synergize() {
		return counter.PackMACField(mac, ctr&simcrypto.LSBMask)
	}
	return mac
}

// --- NVM wrappers -----------------------------------------------------

func (e *Engine) readMetaNVM(id sit.NodeID) (memline.Line, bool) {
	e.stats.MetaNVMReads++
	return e.dev.Read(e.geo.NodeAddr(id))
}

func (e *Engine) writeMetaNVM(id sit.NodeID, node *counter.Node) {
	e.stats.MetaNVMWrites++
	e.dev.WriteCause(e.geo.NodeAddr(id), node.Encode(), e.metaCause(id))
}

// metaCause classifies a metadata-node write for attribution: counter
// blocks (level 0) vs. interior tree nodes, with recovery replay
// overriding both.
func (e *Engine) metaCause(id sit.NodeID) nvm.Cause {
	if e.recovering {
		return nvm.CauseRecovery
	}
	if id.Level == 0 {
		return nvm.CauseCounter
	}
	return nvm.CauseTreeNode
}

// dataCause classifies a user-data write for attribution.
func (e *Engine) dataCause() nvm.Cause {
	if e.recovering {
		return nvm.CauseRecovery
	}
	return nvm.CauseData
}

// ReadMetaRaw reads a metadata node straight from NVM (counting the
// access); recovery paths use it.
func (e *Engine) ReadMetaRaw(id sit.NodeID) (counter.Node, bool) {
	line, ok := e.readMetaNVM(id)
	return counter.Decode(line), ok
}

// WriteMetaRestored writes a restored metadata node to NVM (counting
// the access); recovery paths use it.
func (e *Engine) WriteMetaRestored(id sit.NodeID, node counter.Node) {
	e.writeMetaNVM(id, &node)
}

// ReadDataRaw reads a user-data line and its sideband MAC field from
// NVM (counting one line access, per the Synergy one-line layout).
func (e *Engine) ReadDataRaw(addr uint64) (memline.Line, uint64, bool) {
	e.stats.DataNVMReads++
	line, ok := e.dev.Read(addr)
	mac, _ := e.dataMAC.Get(addr / memline.Size)
	return line, mac, ok
}

func (e *Engine) writeDataNVM(addr uint64, cipher memline.Line, macField uint64) {
	e.stats.DataNVMWrites++
	e.dev.WriteCause(addr, cipher, e.dataCause())
	e.dataMAC.Set(addr/memline.Size, macField)
}

// PokeDataMAC overwrites the sideband MAC of a data line without
// counting an access. Attack injection uses it together with
// Device().Poke to replay old (data, MAC) tuples.
func (e *Engine) PokeDataMAC(addr uint64, field uint64) {
	e.dataMAC.Set(addr/memline.Size, field)
}

// PeekDataMAC returns the sideband MAC of a data line without counting
// an access.
func (e *Engine) PeekDataMAC(addr uint64) (uint64, bool) {
	return e.dataMAC.Get(addr / memline.Size)
}

// --- metadata cache management ----------------------------------------

// insertMeta places a freshly fetched metadata line in the cache. A
// dirty would-be victim is written back first (staying cached, clean),
// so no line's authoritative content ever exists outside the cache:
// nested fetches during the write-back always hit the cached copy
// instead of forking from a stale NVM image.
//
// If a nested operation brings the same address in while the victim is
// being cleaned, that copy is newer (it may already carry counter
// bumps); insertMeta then leaves it untouched.
func (e *Engine) insertMeta(id sit.NodeID, ml MetaLine) error {
	addr := e.geo.NodeAddr(id)
	for tries := 0; ; tries++ {
		victim, dirty, needsEvict := e.meta.VictimFor(addr)
		if !needsEvict || !dirty {
			break
		}
		if tries > 4*e.meta.Ways() {
			return fmt.Errorf("secmem: cannot clean a victim for %v: set thrashing", id)
		}
		vid, ok := e.geo.NodeAt(victim)
		if !ok {
			panic(fmt.Sprintf("secmem: non-metadata line %#x in metadata cache", victim))
		}
		if err := e.FlushNode(vid); err != nil {
			return err
		}
	}
	if e.meta.Contains(addr) {
		return nil
	}
	e.meta.Insert(addr, ml, false, func(vaddr uint64, _ MetaLine, vdirty bool) {
		if vdirty {
			panic(fmt.Sprintf("secmem: dirty line %#x evicted without write-back", vaddr))
		}
		if e.onEvent != nil {
			e.onEvent(EventMetaEvict, vaddr)
		}
	})
	return nil
}

// parentCounterOf returns the parent's counter covering id, fetching
// (and verifying) the parent chain as needed.
func (e *Engine) parentCounterOf(id sit.NodeID) (uint64, error) {
	parent, slot := e.geo.Parent(id)
	if e.geo.IsRoot(parent) {
		return e.root.Counters[slot], nil
	}
	ent, err := e.fetchNode(parent)
	if err != nil {
		return 0, err
	}
	return ent.Data.Node.Counters[slot], nil
}

// fetchNode ensures a metadata node is resident in the metadata cache,
// verifying its MAC against the parent chain on the way in, and
// returns its cache entry. The handle is valid until the next
// operation that can displace cache lines.
func (e *Engine) fetchNode(id sit.NodeID) (*cache.EntryOf[MetaLine], error) {
	addr := e.geo.NodeAddr(id)
	for tries := 0; tries < 64; tries++ {
		if ent, ok := e.meta.Lookup(addr); ok {
			return ent, nil
		}
		pctr, err := e.parentCounterOf(id)
		if err != nil {
			return nil, err
		}
		// Fetching the parent chain can flush dirty victims whose
		// write-backs bump — and thereby re-fetch — this very node.
		// The cached copy is then authoritative (it may already carry
		// new counter bumps); the stale NVM image must not replace it.
		if ent, ok := e.meta.Peek(addr); ok {
			return ent, nil
		}
		line, present := e.readMetaNVM(id)
		var node counter.Node
		if present {
			node = counter.Decode(line)
			want := e.NodeMACField(id, node.Counters, pctr)
			if want != node.MACField {
				return nil, &IntegrityError{Addr: addr, Node: id,
					Detail: fmt.Sprintf("MAC mismatch (stored %#x, computed %#x)", node.MACField, want)}
			}
		} else {
			if pctr != 0 {
				return nil, &IntegrityError{Addr: addr, Node: id,
					Detail: fmt.Sprintf("node missing from NVM but parent counter is %d", pctr)}
			}
			node.MACField = e.NodeMACField(id, node.Counters, 0)
		}
		if err := e.insertMeta(id, MetaLine{Node: node, ParentCtr: pctr, Base: node.Counters}); err != nil {
			return nil, err
		}
		if ent, ok := e.meta.Peek(addr); ok {
			return ent, nil
		}
		// The insertion fallout displaced the node again; retry.
	}
	return nil, fmt.Errorf("secmem: livelock fetching %v: metadata cache too small for the tree height", id)
}

// bumpSlot increments parent.Counters[slot] — the lazy SIT update
// performed when the child covered by that slot is persisted — and
// returns the new counter value. The parent's cached MAC field is
// refreshed so the cache-tree always hashes up-to-date MACs, and the
// forced MSB flush fires when synergization requires it.
func (e *Engine) bumpSlot(parent sit.NodeID, slot int) (uint64, error) {
	if e.geo.IsRoot(parent) {
		e.root.Counters[slot] = counter.Increment(e.root.Counters[slot])
		return e.root.Counters[slot], nil
	}
	ent, err := e.fetchNode(parent)
	if err != nil {
		return 0, err
	}
	addr := e.geo.NodeAddr(parent)
	ml := &ent.Data
	newVal := counter.Increment(ml.Node.Counters[slot])
	ml.Node.Counters[slot] = newVal
	ml.Node.MACField = e.NodeMACField(parent, ml.Node.Counters, ml.ParentCtr)
	// The scheme hooks below may displace cache lines, which would
	// invalidate ent: take what is needed after them now.
	mac, base := ml.Node.MACField, ml.Base[slot]
	set := e.meta.SetIndex(addr)
	// The dirty list is refreshed before the scheme hooks run: STAR's
	// OnMetaModified reads DirtySetEntries and must see this line with
	// its new MAC.
	if transition := e.meta.MarkEntryDirty(ent); transition {
		e.dirtyInsert(set, addr, mac)
		e.scheme.OnMetaDirty(parent, e.geo.MetaLineIndex(parent), set)
	} else {
		e.dirtyUpdate(set, addr, mac)
	}
	e.scheme.OnMetaModified(parent, set)
	if e.scheme.Synergize() && newVal-base >= forcedFlushWindow {
		// Defer the forced MSB write-back until after the triggering
		// child reaches NVM: flushing here would re-verify tree state
		// in which the parent counter is already bumped but the child
		// still carries its old MAC.
		e.stats.ForcedFlushes++
		e.pendingForced = append(e.pendingForced, parent)
		if e.onEvent != nil {
			e.onEvent(EventForcedFlush, e.geo.NodeAddr(parent))
		}
	}
	return newVal, nil
}

// drainForced performs the forced MSB write-backs queued by bumpSlot.
// Callers invoke it only after the child write that triggered the bump
// has reached NVM, so the tree seen by any nested fetch is consistent.
func (e *Engine) drainForced() error {
	for len(e.pendingForced) > 0 {
		id := e.pendingForced[0]
		e.pendingForced = e.pendingForced[1:]
		// If the node was evicted in the meantime its write-back
		// already refreshed the MSBs; FlushNode no-ops then.
		if err := e.FlushNode(id); err != nil {
			return err
		}
	}
	return nil
}

// FlushNode writes a dirty cached node to NVM: bump the parent
// counter (the lazy SIT update), stamp the (synergized) MAC, write one
// NVM line. The node stays cached and clean. It is pinned for the
// duration so the parent fetch cannot evict it, and every nested
// access — including a nested bump of one of its own counters while
// the parent chain is being brought in — operates on the cached,
// authoritative copy.
func (e *Engine) FlushNode(id sit.NodeID) error {
	addr := e.geo.NodeAddr(id)
	ent, ok := e.meta.Peek(addr)
	if !ok || !ent.Dirty || ent.Pinned() {
		// Absent or clean: nothing stale to persist. Pinned: an outer
		// FlushNode frame on this very node is in progress and its
		// write will cover this request.
		return nil
	}
	e.meta.Pin(addr)
	defer e.meta.Unpin(addr)

	parent, slot := e.geo.Parent(id)
	newPctr, err := e.bumpSlot(parent, slot)
	if err != nil {
		return err
	}
	// Re-read after the bump: nested operations may have advanced this
	// node's own counters in the meantime; the write must carry them.
	ent, ok = e.meta.Peek(addr)
	if !ok {
		return fmt.Errorf("secmem: pinned node %v vanished during flush", id)
	}
	ml := &ent.Data
	ml.Node.MACField = e.NodeMACField(id, ml.Node.Counters, newPctr)
	e.writeMetaNVM(id, &ml.Node)
	ml.ParentCtr = newPctr
	ml.Base = ml.Node.Counters
	set := e.meta.SetIndex(addr)
	if e.meta.CleanEntry(ent) {
		e.dirtyRemove(set, addr)
	}
	e.scheme.OnMetaClean(id, e.geo.MetaLineIndex(id), set, false)
	if err := e.scheme.OnChildPersisted(parent); err != nil {
		return err
	}
	return e.drainForced()
}

// FlushBranch flushes the dirty nodes on the path from id up to the
// root. Strict persistence calls it on every user write.
func (e *Engine) FlushBranch(id sit.NodeID) error {
	for !e.geo.IsRoot(id) {
		if err := e.FlushNode(id); err != nil {
			return err
		}
		id, _ = e.geo.Parent(id)
	}
	return nil
}

// FlushAllMetadata write-backs every dirty metadata line (a graceful
// shutdown). Children flush before parents so each line is written
// exactly once per pass.
func (e *Engine) FlushAllMetadata() error {
	for {
		var pickID sit.NodeID
		found := false
		e.meta.Range(func(addr uint64, ent *cache.EntryOf[MetaLine]) {
			if !ent.Dirty {
				return
			}
			id, ok := e.geo.NodeAt(addr)
			if !ok {
				return
			}
			if !found || id.Level < pickID.Level ||
				(id.Level == pickID.Level && id.Index < pickID.Index) {
				pickID, found = id, true
			}
		})
		if !found {
			return nil
		}
		if err := e.FlushNode(pickID); err != nil {
			return err
		}
	}
}

// --- user data path ----------------------------------------------------

// WriteLine persists one user-data line: bump the covering counter,
// encrypt with the fresh one-time pad, write ciphertext+MAC as one
// line. This is the memory-controller side of an LLC write-back or a
// cache-line flush.
func (e *Engine) WriteLine(addr uint64, plain memline.Line) error {
	addr = memline.Align(addr)
	if addr >= e.geo.DataBytes() {
		return fmt.Errorf("secmem: write address %#x beyond the %d-byte data region", addr, e.geo.DataBytes())
	}
	e.stats.UserWrites++
	cb, slot := e.geo.CounterBlockOf(addr)
	ctr, err := e.bumpSlot(cb, slot)
	if err != nil {
		return err
	}
	cipher := simcrypto.XORLine(plain, e.suite.OTP(addr, ctr))
	e.writeDataNVM(addr, cipher, e.DataMACField(addr, cipher, ctr))
	if err := e.scheme.OnChildPersisted(cb); err != nil {
		return err
	}
	return e.drainForced()
}

// ReadLine fetches, verifies and decrypts one user-data line (the
// memory-controller side of an LLC miss).
func (e *Engine) ReadLine(addr uint64) (memline.Line, error) {
	addr = memline.Align(addr)
	if addr >= e.geo.DataBytes() {
		return memline.Line{}, fmt.Errorf("secmem: read address %#x beyond the %d-byte data region", addr, e.geo.DataBytes())
	}
	e.stats.UserReads++
	cb, slot := e.geo.CounterBlockOf(addr)
	ent, err := e.fetchNode(cb)
	if err != nil {
		return memline.Line{}, err
	}
	ctr := ent.Data.Node.Counters[slot]
	e.stats.DataNVMReads++
	cipher, present := e.dev.Read(addr)
	if !present {
		if ctr != 0 {
			return memline.Line{}, &IntegrityError{Addr: addr, IsData: true,
				Detail: fmt.Sprintf("data line missing from NVM but counter is %d", ctr)}
		}
		return memline.Line{}, nil // never written: zero-initialized memory
	}
	want := e.DataMACField(addr, cipher, ctr)
	if got, _ := e.dataMAC.Get(addr / memline.Size); got != want {
		return memline.Line{}, &IntegrityError{Addr: addr, IsData: true,
			Detail: fmt.Sprintf("data MAC mismatch (stored %#x, computed %#x)", got, want)}
	}
	return simcrypto.XORLine(cipher, e.suite.OTP(addr, ctr)), nil
}

// --- crash & recovery ---------------------------------------------------

// Crash models a power failure: all volatile controller state (the
// metadata cache and its bookkeeping) vanishes; battery-backed ADR
// state is given to the scheme to dump; on-chip non-volatile registers
// (the SIT root, the scheme's roots/index registers) survive.
func (e *Engine) Crash() {
	e.meta.DropAll()
	e.pendingForced = nil
	e.clearDirtySets()
	e.scheme.OnCrash()
}

// Reset restores the engine to the state New would produce for the
// same configuration with the given crypto suite, reusing every
// allocation: the metadata cache (with the per-node bookkeeping it
// holds), the paged NVM store and data-MAC table and the per-set dirty
// lists are all rewound in place. The scheme is dropped: as after New,
// the caller installs a new one with SetScheme. Machine reuse across
// experiment cells is built on this.
func (e *Engine) Reset(suite simcrypto.Suite) {
	e.suite = suite
	e.meta.Reset()
	e.root = counter.Node{}
	e.dataMAC.Clear()
	e.dev.Reset()
	e.stats = Stats{}
	e.pendingForced = e.pendingForced[:0]
	e.clearDirtySets()
	e.scheme = nil
}

// Fork returns a copy-on-write clone of the engine: device contents
// fork page-granular (O(occupied pages) via the paged store), the
// metadata cache with its decoded nodes and per-node bookkeeping
// shares its slot arrays copy-on-write, the rest of the volatile
// controller state — dirty lists, the root register, statistics —
// copies deeply, and the scheme forks last, against the already-forked
// engine. The geometry and crypto suite are shared: both are immutable
// and safe for concurrent use. The clone carries no event hook; its
// owner installs its own. Parent and clone may then run on different
// goroutines.
func (e *Engine) Fork() *Engine {
	f := &Engine{
		geo:        e.geo,
		dev:        e.dev.Fork(),
		suite:      e.suite,
		meta:       e.meta.Fork(),
		root:       e.root,
		dataMAC:    e.dataMAC.Fork(),
		stats:      e.stats,
		recovering: e.recovering,
	}
	f.pendingForced = append([]sit.NodeID(nil), e.pendingForced...)
	f.dirtySets = make([][]SetEntry, len(e.dirtySets))
	for i, s := range e.dirtySets {
		if len(s) > 0 {
			f.dirtySets[i] = append([]SetEntry(nil), s...)
		}
	}
	f.scheme = e.scheme.Fork(f)
	return f
}

// Recover runs the scheme's recovery procedure. NVM writes issued
// while it runs are attributed to CauseRecovery.
func (e *Engine) Recover() (*RecoveryReport, error) {
	e.recovering = true
	defer func() { e.recovering = false }()
	return e.scheme.Recover()
}

// DirtySetEntries returns the dirty metadata lines of one cache set in
// ascending address order with their current MAC fields — exactly the
// input of the cache-tree's set-MAC. The returned slice is the
// engine's incrementally maintained list: it is valid until the next
// engine operation and must not be modified or retained.
func (e *Engine) DirtySetEntries(set int) []SetEntry {
	return e.dirtySets[set]
}

// dirtyInsert adds a line to its set's dirty list, keeping ascending
// address order. Sets hold at most Ways entries, so a linear scan
// beats anything fancier.
func (e *Engine) dirtyInsert(set int, addr, mac uint64) {
	list := append(e.dirtySets[set], SetEntry{})
	i := len(list) - 1
	for i > 0 && list[i-1].Addr > addr {
		list[i] = list[i-1]
		i--
	}
	list[i] = SetEntry{Addr: addr, MAC: mac}
	e.dirtySets[set] = list
}

// dirtyUpdate refreshes the MAC of a line already in its set's dirty
// list.
func (e *Engine) dirtyUpdate(set int, addr, mac uint64) {
	list := e.dirtySets[set]
	for i := range list {
		if list[i].Addr == addr {
			list[i].MAC = mac
			return
		}
	}
	panic(fmt.Sprintf("secmem: dirty line %#x missing from set %d dirty list", addr, set))
}

// dirtyRemove drops a cleaned line from its set's dirty list.
func (e *Engine) dirtyRemove(set int, addr uint64) {
	list := e.dirtySets[set]
	for i := range list {
		if list[i].Addr == addr {
			e.dirtySets[set] = append(list[:i], list[i+1:]...)
			return
		}
	}
	panic(fmt.Sprintf("secmem: cleaned line %#x missing from set %d dirty list", addr, set))
}

// clearDirtySets empties every set's dirty list (capacity kept), for
// crash modeling and snapshot restore.
func (e *Engine) clearDirtySets() {
	for i := range e.dirtySets {
		e.dirtySets[i] = e.dirtySets[i][:0]
	}
}

// SetEntry is the cache-tree's set-MAC input, so a set's dirty list
// goes to cachetree.Tree.UpdateSet as it is.
type SetEntry = cachetree.SetEntry

// CachedNode returns a cached node's content and cache slot. Anubis
// keys its shadow-table writes by the slot.
func (e *Engine) CachedNode(id sit.NodeID) (node counter.Node, set, way int, ok bool) {
	addr := e.geo.NodeAddr(id)
	ent, present := e.meta.Peek(addr)
	if !present {
		return counter.Node{}, 0, 0, false
	}
	set, way, _ = e.meta.SlotOf(addr)
	return ent.Data.Node, set, way, true
}
