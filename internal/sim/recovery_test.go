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
// node the shadow table still names). Each case runs on a fresh
// machine and on one reused with Reset after a different workload.
func TestRecoveredEqualsPreCrash(t *testing.T) {
	for _, scheme := range []string{"star", "anubis", "phoenix"} {
		for _, name := range []string{"hash", "queue", "btree"} {
			t.Run(scheme+"/"+name, func(t *testing.T) {
				cfg := testCfg(scheme)
				fresh, err := sim.NewMachine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				checkRecoveredEqualsPreCrash(t, "fresh", fresh, name)

				reused, err := sim.NewMachine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := reused.RunUnverified("array", 800); err != nil {
					t.Fatal(err)
				}
				reused.Reset(cfg.Seed)
				checkRecoveredEqualsPreCrash(t, "reused", reused, name)
			})
		}
	}
}

func checkRecoveredEqualsPreCrash(t *testing.T, label string, m *sim.Machine, name string) {
	t.Helper()
	if _, err := m.RunUnverified(name, 1500); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
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
