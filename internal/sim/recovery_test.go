package sim_test

import (
	"testing"

	"nvmstar/internal/cache"
	"nvmstar/internal/counter"
	"nvmstar/internal/secmem"
	"nvmstar/internal/sim"
	"nvmstar/internal/sit"
)

// TestRecoveredEqualsPreCrash checks the paper's recovery claim
// directly: every metadata node that was dirty in the metadata cache
// when power failed reads back from NVM after recovery with exactly
// the counters it had before the crash. The tree then audits clean,
// the on-chip root register is unchanged, and STAR restores exactly
// the dirty nodes (the shadow-table schemes restore a superset: every
// node the shadow table still names). Each workload runs once as a
// lock-step group of the three schemes, on a fresh group and on one
// reused with Reset after a different workload; each scheme's member
// is then forked out (ForkMember) and checked on its own.
func TestRecoveredEqualsPreCrash(t *testing.T) {
	schemes := []string{"star", "anubis", "phoenix"}
	cfgs := make([]sim.Config, len(schemes))
	for i, scheme := range schemes {
		cfgs[i] = testCfg(scheme)
	}
	for _, name := range []string{"hash", "queue", "btree"} {
		fresh, err := sim.NewGroup(cfgs...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fresh.RunUnverified(name, 1500); err != nil {
			t.Fatalf("fresh %s: %v", name, err)
		}
		reused, err := sim.NewGroup(cfgs...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := reused.RunUnverified("array", 800); err != nil {
			t.Fatal(err)
		}
		reused.Reset(cfgs[0].Seed)
		if _, err := reused.RunUnverified(name, 1500); err != nil {
			t.Fatalf("reused %s: %v", name, err)
		}
		for i, scheme := range schemes {
			t.Run(scheme+"/"+name, func(t *testing.T) {
				checkRecoveredEqualsPreCrash(t, "fresh", fresh.ForkMember(i))
				checkRecoveredEqualsPreCrash(t, "reused", reused.ForkMember(i))
			})
		}
	}
}

// checkRecoveredEqualsPreCrash snapshots m's dirty metadata, crashes
// and recovers m, and checks the recovered state against the snapshot.
func checkRecoveredEqualsPreCrash(t *testing.T, label string, m *sim.Machine) {
	t.Helper()
	eng := m.Engine()
	geo := eng.Geometry()
	dirty := map[sit.NodeID][counter.Arity]uint64{}
	eng.MetaCache().Range(func(addr uint64, e *cache.EntryOf[secmem.MetaLine]) {
		if !e.Dirty {
			return
		}
		id, ok := geo.NodeAt(addr)
		if !ok {
			t.Fatalf("%s: non-metadata line %#x in the metadata cache", label, addr)
		}
		dirty[id] = e.Data.Node.Counters
	})
	if len(dirty) == 0 {
		t.Fatalf("%s: no dirty metadata before the crash; nothing to recover", label)
	}
	root := eng.RootNode()

	m.Crash()
	rep, err := m.Recover()
	if err != nil {
		t.Fatalf("%s: recovery: %v", label, err)
	}
	for id, want := range dirty {
		got, ok := eng.ReadMetaRaw(id)
		if !ok || got.Counters != want {
			t.Errorf("%s: node %v recovered as %v (present=%v), pre-crash %v", label, id, got.Counters, ok, want)
		}
	}
	if v := eng.AuditTree(); len(v) != 0 {
		t.Errorf("%s: %d tree violations after recovery, first %v", label, len(v), v[0])
	}
	if eng.RootNode() != root {
		t.Errorf("%s: root register changed across recovery: %v -> %v", label, root, eng.RootNode())
	}
	if eng.Scheme().Name() == "star" {
		if rep.StaleNodes != len(dirty) {
			t.Errorf("%s: restored %d stale nodes, %d were dirty", label, rep.StaleNodes, len(dirty))
		}
	} else if rep.StaleNodes < len(dirty) {
		t.Errorf("%s: restored %d stale nodes, fewer than the %d dirty", label, rep.StaleNodes, len(dirty))
	}
}
