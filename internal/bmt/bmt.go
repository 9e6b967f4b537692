// Package bmt implements a Bonsai Merkle Tree (BMT) secure-memory
// engine with the classic counter-mode-encryption layout — the
// substrate of the paper's non-SIT baselines, Osiris and Triad-NVM
// (Section II-E).
//
// Differences from the SIT engine in internal/secmem, all taken from
// the paper's background section:
//
//   - Counter blocks use the classic split-counter layout: 64 7-bit
//     minor counters plus one 64-bit major counter per 64-byte block,
//     covering one 4 KB page (64 data lines). A minor-counter overflow
//     bumps the major counter, resets all minors and re-encrypts the
//     page.
//   - Tree nodes are hashes: a parent stores the hashes of its eight
//     children, so any node is a pure function of its children and the
//     whole tree can be rebuilt bottom-up from the counter blocks —
//     exactly the property SIT lacks (SIT MACs take the PARENT's
//     counter as input, so a SIT node cannot be recomputed from its
//     children; that asymmetry is why Osiris and Triad-NVM cannot
//     recover SIT, and why STAR exists).
//   - The on-chip root is updated eagerly with every counter change
//     (hash updates along the cached branch), which is what makes
//     root-based recovery verification possible for these baselines.
//
// Persistence policies:
//
//   - PolicyWB: write-back only; no recovery (baseline).
//   - PolicyOsiris{Stride N}: a counter block is persisted on every
//     N-th update; after a crash every counter is recovered by probing
//     the candidates [stale, stale+N) against the data line's MAC
//     (our stand-in for Osiris's ECC check — same information, same
//     probe loop), then the rebuilt tree is checked against the root.
//   - PolicyTriad{Levels L}: counter blocks and the lowest L tree
//     levels are written through with every update; recovery rebuilds
//     levels >= L from level L-1 and checks the root. Triad-NVM's
//     2-4x write overhead (paper Section II-E) falls out of L.
package bmt

import (
	"encoding/binary"
	"fmt"

	"nvmstar/internal/cache"
	"nvmstar/internal/memline"
	"nvmstar/internal/nvm"
	"nvmstar/internal/simcrypto"
)

// Layout constants of the classic counter block.
const (
	// MinorsPerBlock is the number of 7-bit minor counters per block.
	MinorsPerBlock = 64
	// MinorMax is the largest minor-counter value before overflow.
	MinorMax = 127
	// PageBytes is the data covered by one counter block.
	PageBytes = MinorsPerBlock * memline.Size
	// HashesPerNode is the tree fan-out.
	HashesPerNode = 8
)

// CounterBlock is the decoded classic counter block.
type CounterBlock struct {
	Major  uint64
	Minors [MinorsPerBlock]uint8 // 7-bit each
}

// Encode packs the block into one 64-byte line: 56 bytes of 7-bit
// minors (bit-packed) followed by the 8-byte major counter.
func (cb *CounterBlock) Encode() memline.Line {
	var l memline.Line
	// Pack 64 7-bit minors into 56 bytes.
	bit := 0
	for _, m := range cb.Minors {
		v := uint32(m & 0x7f)
		byteIdx := bit / 8
		off := bit % 8
		l[byteIdx] |= byte(v << off)
		if off > 1 {
			l[byteIdx+1] |= byte(v >> (8 - off))
		}
		bit += 7
	}
	binary.LittleEndian.PutUint64(l[56:], cb.Major)
	return l
}

// DecodeCounterBlock is the inverse of Encode.
func DecodeCounterBlock(l memline.Line) CounterBlock {
	var cb CounterBlock
	bit := 0
	for i := range cb.Minors {
		byteIdx := bit / 8
		off := bit % 8
		v := uint32(l[byteIdx]) >> off
		if off > 1 {
			v |= uint32(l[byteIdx+1]) << (8 - off)
		}
		cb.Minors[i] = uint8(v & 0x7f)
		bit += 7
	}
	cb.Major = binary.LittleEndian.Uint64(l[56:])
	return cb
}

// Counter returns the encryption counter of slot: major||minor.
func (cb *CounterBlock) Counter(slot int) uint64 {
	return cb.Major<<7 | uint64(cb.Minors[slot])
}

// Policy is a metadata persistence policy for the BMT engine.
type Policy interface {
	policyName() string
}

// PolicyWB is plain write-back (no recovery support).
type PolicyWB struct{}

func (PolicyWB) policyName() string { return "bmt-wb" }

// PolicyOsiris persists each counter block on every Stride-th update
// and recovers by probing.
type PolicyOsiris struct {
	Stride int
}

func (PolicyOsiris) policyName() string { return "osiris" }

// PolicyTriad writes counter blocks and the lowest Levels tree levels
// through on every update.
type PolicyTriad struct {
	Levels int
}

func (PolicyTriad) policyName() string { return "triad" }

// Config configures a BMT engine.
type Config struct {
	DataBytes uint64
	MetaCache cache.Config
	Suite     simcrypto.Suite
	Policy    Policy
}

// Stats counts engine events.
type Stats struct {
	UserWrites    uint64
	UserReads     uint64
	DataNVMWrites uint64
	DataNVMReads  uint64
	MetaNVMWrites uint64
	MetaNVMReads  uint64
	Reencryptions uint64 // page re-encryptions from minor overflow
	HashOps       uint64
}

// Engine is the BMT secure-memory engine.
type Engine struct {
	cfg    Config
	dev    *nvm.Device
	suite  simcrypto.Suite
	meta   *cache.Cache
	policy Policy

	dataLines uint64
	numCB     uint64
	levels    []uint64 // node count per tree level (level 0 above CBs)
	cbBase    uint64   // NVM addr of counter blocks
	lvlBase   []uint64 // NVM addr of each tree level

	root    uint64 // on-chip register: eagerly updated tree root
	dataMAC map[uint64]uint64

	// zeroCBHash and zeroNodeHash precompute the hash of an untouched
	// (all-zero) counter block and of a logically-zero node per level,
	// so never-written NVM lines and recovery rebuilds agree on the
	// tree's initial state.
	zeroCBHash   uint64
	zeroNodeHash []uint64

	// updates counts per-CB updates since last NVM write (Osiris).
	updates map[uint64]int

	stats Stats
}

// New builds a BMT engine.
func New(cfg Config) (*Engine, error) {
	if cfg.Suite == nil {
		return nil, fmt.Errorf("bmt: crypto suite required")
	}
	if cfg.Policy == nil {
		cfg.Policy = PolicyWB{}
	}
	if cfg.DataBytes == 0 || cfg.DataBytes%PageBytes != 0 {
		return nil, fmt.Errorf("bmt: data size %d is not a positive multiple of the 4 KiB page", cfg.DataBytes)
	}
	if cfg.MetaCache.SizeBytes == 0 {
		cfg.MetaCache = cache.Config{SizeBytes: 512 << 10, Ways: 8}
	}
	meta, err := cache.New(cfg.MetaCache)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:       cfg,
		suite:     cfg.Suite,
		meta:      meta,
		policy:    cfg.Policy,
		dataLines: cfg.DataBytes / memline.Size,
		numCB:     cfg.DataBytes / PageBytes,
		dataMAC:   make(map[uint64]uint64),
		updates:   make(map[uint64]int),
	}
	// Tree levels above the counter blocks: level 0 has one node per 8
	// counter blocks, and so on, until <= 8 nodes sit under the root.
	size := (e.numCB + HashesPerNode - 1) / HashesPerNode
	for {
		e.levels = append(e.levels, size)
		if size <= HashesPerNode {
			break
		}
		size = (size + HashesPerNode - 1) / HashesPerNode
	}
	base := cfg.DataBytes
	e.cbBase = base
	base += e.numCB * memline.Size
	for _, s := range e.levels {
		e.lvlBase = append(e.lvlBase, base)
		base += s * memline.Size
	}
	e.dev, err = nvm.New(nvm.Config{CapacityBytes: base})
	if err != nil {
		return nil, err
	}
	e.zeroCBHash = e.suite.MAC(make([]byte, memline.Size))
	e.zeroNodeHash = make([]uint64, len(e.levels))
	for level := range e.levels {
		node := e.logicalZeroNode(level, 0)
		e.zeroNodeHash[level] = e.suite.MAC(node[:])
	}
	e.root = e.hashTopFrom(func(i uint64) uint64 { return e.zeroNodeHash[len(e.levels)-1] })
	return e, nil
}

// childCount returns how many children node (level, idx) has in the
// (possibly non-power-of-8) tree.
func (e *Engine) childCount(level int, idx uint64) int {
	var below uint64
	if level == 0 {
		below = e.numCB
	} else {
		below = e.levels[level-1]
	}
	start := idx * HashesPerNode
	if start >= below {
		return 0
	}
	n := below - start
	if n > HashesPerNode {
		n = HashesPerNode
	}
	return int(n)
}

// logicalZeroNode materializes the logical content of a never-touched
// node: each existing child slot holds the hash of an untouched child
// subtree.
func (e *Engine) logicalZeroNode(level int, idx uint64) memline.Line {
	var node memline.Line
	childHash := e.zeroCBHash
	if level > 0 {
		childHash = e.zeroNodeHash[level-1]
	}
	for s := 0; s < e.childCount(level, idx); s++ {
		setNodeSlot(&node, s, childHash)
	}
	return node
}

// hashTopFrom hashes the top stored level's node hashes into the root.
func (e *Engine) hashTopFrom(nodeHash func(i uint64) uint64) uint64 {
	top := len(e.levels) - 1
	var buf [HashesPerNode * 8]byte
	for i := uint64(0); i < e.levels[top]; i++ {
		binary.LittleEndian.PutUint64(buf[i*8:], nodeHash(i))
	}
	e.stats.HashOps++
	return e.suite.MAC(buf[:])
}

// Device exposes the NVM device.
func (e *Engine) Device() *nvm.Device { return e.dev }

// Stats returns a copy of the counters.
func (e *Engine) Stats() Stats { return e.stats }

// Root returns the on-chip root register.
func (e *Engine) Root() uint64 { return e.root }

// NumCounterBlocks returns the counter-block count.
func (e *Engine) NumCounterBlocks() uint64 { return e.numCB }

// Levels returns the number of stored hash-tree levels.
func (e *Engine) Levels() int { return len(e.levels) }

func (e *Engine) cbAddr(idx uint64) uint64 { return e.cbBase + idx*memline.Size }

func (e *Engine) nodeAddr(level int, idx uint64) uint64 {
	return e.lvlBase[level] + idx*memline.Size
}

// --- cached line access -------------------------------------------------

// fetchCB returns a counter block's line, caching it. BMT
// verification-on-fetch is elided: the baselines' recovery
// verification (root comparison) is what the tests exercise, and
// runtime verification would mirror secmem's.
func (e *Engine) fetchCB(idx uint64) memline.Line {
	addr := e.cbAddr(idx)
	if ent, ok := e.meta.Lookup(addr); ok {
		return ent.Data
	}
	e.stats.MetaNVMReads++
	line, _ := e.dev.Read(addr)
	e.insertLine(addr, line, false)
	return line
}

// fetchNode returns a tree node's logical content, caching it. A
// never-written node materializes as the logical zero node so runtime
// state and recovery rebuilds agree.
func (e *Engine) fetchNode(level int, idx uint64) memline.Line {
	addr := e.nodeAddr(level, idx)
	if ent, ok := e.meta.Lookup(addr); ok {
		return ent.Data
	}
	e.stats.MetaNVMReads++
	line, present := e.dev.Read(addr)
	if !present {
		line = e.logicalZeroNode(level, idx)
	}
	e.insertLine(addr, line, false)
	return line
}

func (e *Engine) insertLine(addr uint64, line memline.Line, dirty bool) {
	e.meta.Insert(addr, line, dirty, func(vaddr uint64, vdata memline.Line, vdirty bool) {
		if vdirty {
			e.stats.MetaNVMWrites++
			e.dev.Write(vaddr, vdata)
			// An evicted counter block is now current in NVM: the
			// Osiris probe window restarts.
			if vaddr >= e.cbBase && vaddr < e.cbBase+e.numCB*memline.Size {
				e.updates[(vaddr-e.cbBase)/memline.Size] = 0
			}
		}
	})
}

func (e *Engine) updateLine(addr uint64, line memline.Line) {
	if ent, ok := e.meta.Peek(addr); ok {
		ent.Data = line
		e.meta.MarkDirty(addr)
		return
	}
	e.insertLine(addr, line, true)
}

// persistLine force-writes a cached line to NVM (write-through
// policies), leaving it cached clean.
func (e *Engine) persistLine(addr uint64) {
	ent, ok := e.meta.Peek(addr)
	if !ok {
		return
	}
	e.stats.MetaNVMWrites++
	e.dev.Write(addr, ent.Data)
	e.meta.CleanLine(addr)
}

// --- hashing --------------------------------------------------------------

func (e *Engine) hashLine(l memline.Line) uint64 {
	e.stats.HashOps++
	return e.suite.MAC(l[:])
}

// nodeOf reads a tree node's eight child-hash slots.
func nodeSlot(l memline.Line, slot int) uint64 {
	return binary.LittleEndian.Uint64(l[slot*8:])
}

func setNodeSlot(l *memline.Line, slot int, v uint64) {
	binary.LittleEndian.PutUint64(l[slot*8:], v)
}

// refreshBranch recomputes the hash chain from counter block cbIdx up
// to the on-chip root — the eager BMT root update. All work happens in
// the cache; NVM traffic appears only when dirty nodes are evicted (or
// written through by the policy).
func (e *Engine) refreshBranch(cbIdx uint64) {
	childHash := e.hashLine(e.fetchCB(cbIdx))
	idx := cbIdx
	for level := 0; level < len(e.levels); level++ {
		nodeIdx := idx / HashesPerNode
		slot := int(idx % HashesPerNode)
		node := e.fetchNode(level, nodeIdx)
		setNodeSlot(&node, slot, childHash)
		e.updateLine(e.nodeAddr(level, nodeIdx), node)
		childHash = e.hashLine(node)
		idx = nodeIdx
	}
	top := len(e.levels) - 1
	e.root = e.hashTopFrom(func(i uint64) uint64 {
		return e.hashLine(e.fetchNode(top, i))
	})
}
