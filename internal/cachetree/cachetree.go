// Package cachetree implements STAR's cache-tree: a small merkle tree
// over the dirty contents of the security-metadata cache, used to
// verify that a post-crash recovery restored every stale metadata
// block to its exact pre-crash state.
//
// A direct merkle tree over dirty blocks would reshuffle its leaves
// whenever a block is inserted or deleted (Fig. 8 of the paper). The
// cache-tree instead keys leaves by the *cache set*: the set-MAC of a
// set hashes the MACs of its dirty lines in ascending address order
// (zero if the set has no dirty line), and a fixed-shape 8-ary tree is
// built over the set-MACs. A block becoming dirty or clean touches one
// set-MAC and one branch; nothing ever moves.
//
// Set-MACs are computed when a set changes, interior nodes only when
// the root is read: the root sits in a register that matters only at a
// crash, so a branch changed many times between crashes is hashed once.
package cachetree

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"nvmstar/internal/simcrypto"
)

// SetEntry is one dirty metadata line: its NVM address and the 64-bit
// MAC field of its (up to date) cached content.
type SetEntry struct {
	Addr uint64
	MAC  uint64
}

// Stats counts hash work, used by the incremental-vs-rebuild ablation.
type Stats struct {
	SetMACs    uint64 // set-MAC computations
	NodeHashes uint64 // interior-node hash computations
}

// Tree is the in-controller cache-tree. The root is assumed to live in
// an on-chip non-volatile register, so it survives crashes; everything
// else is volatile and rebuilt during recovery.
type Tree struct {
	suite   simcrypto.Suite
	numSets int
	// levels[0] has numSets set-MACs; each higher level has
	// ceil(len/8) nodes; the last has exactly one (the root).
	levels [][]uint64
	// stale[l][i] flags node i of levels[l+1], whose children changed
	// since it was last hashed.
	stale [][]bool
	stats Stats

	// Reused MAC-input buffers: building the inputs in fields instead
	// of locals keeps the slices passed through the Suite interface
	// from escaping, so the incremental update path (UpdateSet on
	// every metadata modification) does zero allocations steady-state.
	childBuf [8 * 8]byte
	macBuf   []byte
}

// New creates a cache-tree over numSets cache sets.
func New(suite simcrypto.Suite, numSets int) (*Tree, error) {
	if numSets <= 0 {
		return nil, fmt.Errorf("cachetree: need at least one set, got %d", numSets)
	}
	t := &Tree{suite: suite, numSets: numSets}
	size := numSets
	for {
		t.levels = append(t.levels, make([]uint64, size))
		if size == 1 {
			break
		}
		size = (size + 7) / 8
		t.stale = append(t.stale, make([]bool, size))
	}
	// The interior nodes of the all-empty state are hashed on the
	// first Root, like any other stale node.
	t.markAllStale()
	return t, nil
}

// Reset restores the tree to its just-constructed state over suite,
// reusing the level storage. Machine reuse re-derives the per-seed
// crypto suite, so the new suite is taken here rather than kept. As
// in New, the empty state's interior nodes wait for the next Root.
func (t *Tree) Reset(suite simcrypto.Suite) {
	t.suite = suite
	t.stats = Stats{}
	clear(t.levels[0])
	t.markAllStale()
}

// NumSets returns the leaf count.
func (t *Tree) NumSets() int { return t.numSets }

// Levels returns the number of levels including the leaf layer. For
// the paper's 1024-set metadata cache this is 5 (a 4-level tree over
// the leaves, as in Table I).
func (t *Tree) Levels() int { return len(t.levels) }

// Stats returns a copy of the hash-work counters.
func (t *Tree) Stats() Stats { return t.stats }

// Root returns the current root value, first hashing every interior
// node whose children changed since the last call.
func (t *Tree) Root() uint64 {
	t.settle()
	return t.levels[len(t.levels)-1][0]
}

// markAllStale marks every parent of a leaf stale, so the next settle
// recomputes the whole tree.
func (t *Tree) markAllStale() {
	if len(t.stale) > 0 {
		for i := range t.stale[0] {
			t.stale[0][i] = true
		}
	}
}

// settle hashes the stale interior nodes bottom-up, each once: a level
// is finished before its parents, which it marks stale in turn.
func (t *Tree) settle() {
	for l, stale := range t.stale {
		for i, s := range stale {
			if !s {
				continue
			}
			stale[i] = false
			t.levels[l+1][i] = t.hashChildren(l, i)
			if l+1 < len(t.stale) {
				t.stale[l+1][i/8] = true
			}
		}
	}
}

func (t *Tree) hashChildren(level, parentIdx int) uint64 {
	t.stats.NodeHashes++
	buf := &t.childBuf
	children := t.levels[level]
	for c := 0; c < 8; c++ {
		idx := parentIdx*8 + c
		var v uint64
		if idx < len(children) {
			v = children[idx]
		}
		binary.LittleEndian.PutUint64(buf[c*8:], v)
	}
	return t.suite.MAC(buf[:])
}

// SetMAC computes the set-MAC over dirty entries, which must already
// be in ascending address order. An empty set hashes to zero, matching
// the paper ("STAR uses zero-bytes as the set-MAC").
func SetMAC(suite simcrypto.Suite, entries []SetEntry) uint64 {
	if len(entries) == 0 {
		return 0
	}
	buf := make([]byte, 0, len(entries)*16)
	for _, e := range entries {
		buf = binary.LittleEndian.AppendUint64(buf, e.Addr)
		buf = binary.LittleEndian.AppendUint64(buf, e.MAC)
	}
	return suite.MAC(buf)
}

// setMAC is SetMAC through the tree's reused buffer — same bytes, same
// MAC, no allocation once the buffer has grown to the set's size.
func (t *Tree) setMAC(entries []SetEntry) uint64 {
	if len(entries) == 0 {
		return 0
	}
	buf := t.macBuf[:0]
	for _, e := range entries {
		buf = binary.LittleEndian.AppendUint64(buf, e.Addr)
		buf = binary.LittleEndian.AppendUint64(buf, e.MAC)
	}
	t.macBuf = buf
	return t.suite.MAC(buf)
}

// UpdateSet recomputes one set-MAC (entries must be the set's dirty
// lines in ascending address order) and marks its parent stale; the
// branch to the root is rehashed by the next Root. This is the path
// taken during execution.
func (t *Tree) UpdateSet(set int, entries []SetEntry) {
	if set < 0 || set >= t.numSets {
		panic(fmt.Sprintf("cachetree: set %d out of range", set))
	}
	t.stats.SetMACs++
	newMAC := t.setMAC(entries)
	if t.levels[0][set] == newMAC {
		return
	}
	t.levels[0][set] = newMAC
	if len(t.stale) > 0 {
		t.stale[0][set/8] = true
	}
}

// Fork returns a deep copy of the tree sharing only the crypto suite
// (suites are safe for concurrent use). Stale nodes are hashed first,
// so neither side repeats that work. Level storage is freshly
// allocated and the reused MAC buffers start empty, so the copy and
// the original may then be used from different goroutines.
func (t *Tree) Fork() *Tree {
	t.settle()
	f := &Tree{suite: t.suite, numSets: t.numSets, stats: t.stats}
	f.levels = make([][]uint64, len(t.levels))
	for i, l := range t.levels {
		f.levels[i] = slices.Clone(l)
	}
	for _, flags := range t.stale {
		f.stale = append(f.stale, make([]bool, len(flags)))
	}
	return f
}

// RebuildAll recomputes every interior node from the current leaves.
// It exists for the ablation benchmark comparing incremental updates
// against full recomputation.
func (t *Tree) RebuildAll() {
	t.markAllStale()
	t.settle()
}

// Build reconstructs the tree from scratch, as recovery does: it sorts
// each set's entries by ascending address (the same order used before
// the crash) and computes the set-MACs over the fixed tree shape.
// entriesBySet may omit empty sets. An out-of-range set is an error
// naming the smallest such set.
func Build(suite simcrypto.Suite, numSets int, entriesBySet map[int][]SetEntry) (*Tree, error) {
	t, err := New(suite, numSets)
	if err != nil {
		return nil, err
	}
	sets := make([]int, 0, len(entriesBySet))
	for set := range entriesBySet { //detlint:ok keys collected then sorted below
		sets = append(sets, set)
	}
	sort.Ints(sets)
	for _, set := range sets {
		if set < 0 || set >= numSets {
			return nil, fmt.Errorf("cachetree: set %d out of range during rebuild", set)
		}
		sorted := slices.Clone(entriesBySet[set])
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Addr < sorted[j].Addr })
		t.levels[0][set] = SetMAC(suite, sorted)
		t.stats.SetMACs++
	}
	return t, nil
}

// BuildRoot is the root of Build's tree.
func BuildRoot(suite simcrypto.Suite, numSets int, entriesBySet map[int][]SetEntry) (uint64, error) {
	t, err := Build(suite, numSets, entriesBySet)
	if err != nil {
		return 0, err
	}
	return t.Root(), nil
}
