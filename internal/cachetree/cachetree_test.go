package cachetree

import (
	"testing"
	"testing/quick"

	"nvmstar/internal/simcrypto"
)

func suite() simcrypto.Suite { return simcrypto.NewFast(99) }

func TestNewValidation(t *testing.T) {
	if _, err := New(suite(), 0); err == nil {
		t.Error("zero sets accepted")
	}
}

func TestPaperShape(t *testing.T) {
	// 512 KB, 8-way, 64 B lines -> 1024 sets -> 5 levels including
	// leaves (a 4-level 8-ary tree, Table I).
	tr, err := New(suite(), 1024)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Levels() != 5 {
		t.Fatalf("levels = %d, want 5", tr.Levels())
	}
}

func TestEmptySetMACIsZero(t *testing.T) {
	if SetMAC(suite(), nil) != 0 {
		t.Fatal("empty set-MAC not zero")
	}
}

func TestRootChangesWithDirtyContent(t *testing.T) {
	tr, _ := New(suite(), 16)
	empty := tr.Root()
	tr.UpdateSet(3, []SetEntry{{Addr: 0x1000, MAC: 7}})
	if tr.Root() == empty {
		t.Fatal("root unchanged after update")
	}
	tr.UpdateSet(3, nil)
	if tr.Root() != empty {
		t.Fatal("root did not return to empty state")
	}
}

func TestRootSensitiveToOrderAndContent(t *testing.T) {
	s := suite()
	a := SetMAC(s, []SetEntry{{1, 10}, {2, 20}})
	b := SetMAC(s, []SetEntry{{2, 20}, {1, 10}})
	if a == b {
		t.Fatal("set-MAC insensitive to order")
	}
	c := SetMAC(s, []SetEntry{{1, 10}, {2, 21}})
	if a == c {
		t.Fatal("set-MAC insensitive to MAC value")
	}
}

func TestIncrementalMatchesRebuild(t *testing.T) {
	tr, _ := New(suite(), 64)
	entries := map[int][]SetEntry{
		0:  {{Addr: 64, MAC: 1}, {Addr: 128, MAC: 2}},
		7:  {{Addr: 7 * 64, MAC: 3}},
		63: {{Addr: 63 * 64, MAC: 4}},
	}
	for set, es := range entries {
		tr.UpdateSet(set, es)
	}
	rebuilt, err := BuildRoot(suite(), 64, entries)
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt != tr.Root() {
		t.Fatal("incremental root != rebuilt root")
	}
}

func TestBuildRootSortsEntries(t *testing.T) {
	// BuildRoot must impose ascending-address order itself (recovery
	// discovers nodes in arbitrary order).
	sorted := map[int][]SetEntry{2: {{Addr: 64, MAC: 5}, {Addr: 128, MAC: 6}}}
	shuffled := map[int][]SetEntry{2: {{Addr: 128, MAC: 6}, {Addr: 64, MAC: 5}}}
	r1, _ := BuildRoot(suite(), 8, sorted)
	r2, _ := BuildRoot(suite(), 8, shuffled)
	if r1 != r2 {
		t.Fatal("BuildRoot depends on input order")
	}
}

func TestBuildRootRejectsBadSet(t *testing.T) {
	if _, err := BuildRoot(suite(), 8, map[int][]SetEntry{9: {{Addr: 1, MAC: 1}}}); err == nil {
		t.Fatal("out-of-range set accepted")
	}
}

func TestTamperDetection(t *testing.T) {
	base := map[int][]SetEntry{1: {{Addr: 64, MAC: 100}}}
	r1, _ := BuildRoot(suite(), 8, base)
	tampered := map[int][]SetEntry{1: {{Addr: 64, MAC: 101}}}
	r2, _ := BuildRoot(suite(), 8, tampered)
	if r1 == r2 {
		t.Fatal("tampered MAC produced same root")
	}
	moved := map[int][]SetEntry{2: {{Addr: 64, MAC: 100}}}
	r3, _ := BuildRoot(suite(), 8, moved)
	if r1 == r3 {
		t.Fatal("moved entry produced same root")
	}
}

func TestIncrementalEqualsRebuildQuick(t *testing.T) {
	// Property: for random dirty-set contents, incremental updates and
	// from-scratch reconstruction agree on the root.
	f := func(ops []struct {
		Set  uint8
		Addr uint16
		MAC  uint64
	}) bool {
		const sets = 32
		tr, _ := New(suite(), sets)
		state := make(map[int][]SetEntry)
		for _, op := range ops {
			set := int(op.Set) % sets
			// Model each op as replacing the set's dirty list with a
			// single entry whose address is canonical for the set.
			entry := SetEntry{Addr: uint64(op.Addr), MAC: op.MAC}
			state[set] = []SetEntry{entry}
			tr.UpdateSet(set, state[set])
		}
		rebuilt, err := BuildRoot(suite(), sets, state)
		return err == nil && rebuilt == tr.Root()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBranchUpdateCost(t *testing.T) {
	// UpdateSet hashes its set-MAC only; the next Root rehashes the
	// one changed branch, O(levels) nodes, not O(sets).
	tr, _ := New(suite(), 1024)
	tr.Root()
	before := tr.Stats()
	tr.UpdateSet(512, []SetEntry{{Addr: 64, MAC: 1}})
	if d := tr.Stats().NodeHashes - before.NodeHashes; d != 0 {
		t.Fatalf("UpdateSet hashed %d interior nodes, want 0", d)
	}
	tr.Root()
	if d := tr.Stats().NodeHashes - before.NodeHashes; d > uint64(tr.Levels()-1) {
		t.Fatalf("Root after one update hashed %d nodes, want <= %d", d, tr.Levels()-1)
	}
}

func TestLazyRootMatchesBuild(t *testing.T) {
	// Property: under any interleaving of UpdateSet, Root, Fork and
	// a fresh New, Root equals BuildRoot over the current leaves, and a
	// second Root hashes nothing. Forks are checked against their own
	// copy of the leaves.
	const sets = 100 // a partial last node at every interior level
	type tree struct {
		tr     *Tree
		leaves map[int][]SetEntry
	}
	f := func(ops []struct {
		Kind uint8
		Set  uint8
		Addr uint16
		MAC  uint64
	}) bool {
		tr, _ := New(suite(), sets)
		live := []tree{{tr, map[int][]SetEntry{}}}
		for _, op := range ops {
			cur := &live[int(op.Set)%len(live)]
			switch op.Kind % 8 {
			case 0, 1, 2, 3:
				set := int(op.Set) % sets
				es := []SetEntry{{Addr: uint64(op.Addr), MAC: op.MAC}}
				if op.MAC%4 == 0 {
					es = nil // the set turned clean
				}
				cur.leaves[set] = es
				cur.tr.UpdateSet(set, es)
			case 4, 5:
				want, err := BuildRoot(suite(), sets, cur.leaves)
				if err != nil || cur.tr.Root() != want {
					return false
				}
				hashes := cur.tr.Stats().NodeHashes
				if cur.tr.Root() != want || cur.tr.Stats().NodeHashes != hashes {
					return false
				}
			case 6:
				leaves := make(map[int][]SetEntry, len(cur.leaves))
				for set, es := range cur.leaves {
					leaves[set] = es
				}
				if len(live) < 4 {
					live = append(live, tree{cur.tr.Fork(), leaves})
				} else {
					live[0] = tree{cur.tr.Fork(), leaves}
				}
			case 7:
				cur.tr, _ = New(suite(), sets)
				cur.leaves = map[int][]SetEntry{}
			}
		}
		for _, l := range live {
			want, err := BuildRoot(suite(), sets, l.leaves)
			if err != nil || l.tr.Root() != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBuildRootRejectsSmallestBadSet(t *testing.T) {
	bad := map[int][]SetEntry{9: {{Addr: 1, MAC: 1}}, -3: {{Addr: 2, MAC: 2}}, 12: nil, 2: nil}
	for i := 0; i < 20; i++ {
		_, err := BuildRoot(suite(), 8, bad)
		if err == nil || err.Error() != "cachetree: set -3 out of range during rebuild" {
			t.Fatalf("error %v, want the smallest bad set named", err)
		}
	}
}
