package sim_test

import (
	"context"
	"reflect"
	"testing"

	"nvmstar/internal/cache"
	"nvmstar/internal/sim"
	"nvmstar/internal/workload"
)

// testCfg returns a scaled-down machine so tests stay fast; the
// relative behaviour across schemes is size-independent.
func testCfg(scheme string) sim.Config {
	cfg := sim.Default()
	cfg.DataBytes = 16 << 20
	cfg.Cores = 4
	cfg.L1 = cache.Config{SizeBytes: 8 << 10, Ways: 2}
	cfg.L2 = cache.Config{SizeBytes: 32 << 10, Ways: 8}
	cfg.L3 = cache.Config{SizeBytes: 128 << 10, Ways: 8}
	cfg.MetaCache = cache.Config{SizeBytes: 64 << 10, Ways: 8}
	cfg.Scheme = scheme
	return cfg
}

// TestAllWorkloadsOnAllSchemes runs every workload under wb, star and
// anubis as one lock-step group, so the divergence oracle also compares
// the three schemes' reads on every workload, and under strict solo at
// 600 ops (strict is ~9x slower by design).
func TestAllWorkloadsOnAllSchemes(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix is slow")
	}
	check := func(t *testing.T, res *sim.Results, err error) {
		if err != nil {
			t.Fatal(err)
		}
		if res.IPC <= 0 {
			t.Fatalf("IPC = %v", res.IPC)
		}
		if res.Dev.Writes == 0 {
			t.Fatal("no NVM writes measured")
		}
	}
	grouped := []string{"wb", "star", "anubis"}
	for _, name := range workload.Names() {
		cfgs := make([]sim.Config, len(grouped))
		for i, scheme := range grouped {
			cfgs[i] = testCfg(scheme)
		}
		m, err := sim.NewGroup(cfgs...)
		var rs []*sim.Results
		if err == nil {
			rs, err = m.RunEach(context.Background(), name, 2000)
		}
		if err == nil {
			err = m.Err()
		}
		for i, scheme := range grouped {
			t.Run(scheme+"/"+name, func(t *testing.T) {
				if err != nil {
					t.Fatal(err)
				}
				check(t, rs[i], nil)
			})
		}
	}
	for _, name := range workload.Names() {
		t.Run("strict/"+name, func(t *testing.T) {
			res, m, err := sim.RunScenario(testCfg("strict"), name, 600)
			if err == nil {
				err = m.Err()
			}
			check(t, res, err)
		})
	}
}

func TestSchemeOrderingOnMachine(t *testing.T) {
	// The paper's headline relations, end to end through the machine:
	// writes(star) ~ writes(wb) < writes(anubis) ~ 2x < writes(strict);
	// IPC(star) > IPC(anubis).
	writes := map[string]uint64{}
	ipc := map[string]float64{}
	for _, scheme := range []string{"wb", "star", "anubis", "strict"} {
		ops := 4000
		if scheme == "strict" {
			ops = 1000
		}
		res, _, err := sim.RunScenario(testCfg(scheme), "btree", ops)
		if err != nil {
			t.Fatal(err)
		}
		writes[scheme] = res.Dev.Writes / uint64(ops)
		ipc[scheme] = res.IPC
	}
	if float64(writes["star"]) > 1.35*float64(writes["wb"]) {
		t.Errorf("STAR writes/op %d vs WB %d: too much overhead", writes["star"], writes["wb"])
	}
	if float64(writes["anubis"]) < 1.5*float64(writes["wb"]) {
		t.Errorf("Anubis writes/op %d vs WB %d: expected ~2x", writes["anubis"], writes["wb"])
	}
	if float64(writes["strict"]) < 2.5*float64(writes["wb"]) {
		t.Errorf("strict writes/op %d vs WB %d: expected >>2x", writes["strict"], writes["wb"])
	}
	if ipc["star"] <= ipc["anubis"] {
		t.Errorf("IPC: star %.3f <= anubis %.3f", ipc["star"], ipc["anubis"])
	}
	if ipc["wb"] < ipc["star"]*0.98 {
		t.Errorf("IPC: wb %.3f below star %.3f", ipc["wb"], ipc["star"])
	}
}

func TestCrashRecoveryThroughMachine(t *testing.T) {
	cfg := testCfg("star")
	m, err := sim.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunUnverified("hash", 3000); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	rep, err := m.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Verified {
		t.Fatalf("recovery not verified: %+v", rep)
	}
	if rep.StaleNodes == 0 {
		t.Fatal("no stale nodes after a busy run; suspicious")
	}
	if rep.TimeSeconds() <= 0 || rep.TimeSeconds() > 1 {
		t.Fatalf("recovery time %.4fs out of plausible range", rep.TimeSeconds())
	}
}

func TestDeterminism(t *testing.T) {
	runOnce := func() *sim.Results {
		res, _, err := sim.RunScenario(testCfg("star"), "queue", 2000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := runOnce(), runOnce()
	if a.Dev != b.Dev || a.TimeNs != b.TimeNs || a.Instructions != b.Instructions {
		t.Fatalf("non-deterministic runs:\n%+v\n%+v", a, b)
	}
}

// TestDeterminismEveryWorkload repeats each workload on two fresh
// identically-configured machines and requires fully equal Results —
// including TimeNs, which is sensitive to the order of persists inside
// one operation. rbtree once ranged over its touched-node map here,
// letting Go's randomized map iteration leak into simulated bank
// timing: counters matched but TimeNs/IPC drifted run to run.
func TestDeterminismEveryWorkload(t *testing.T) {
	for _, name := range workload.Names() {
		runOnce := func() *sim.Results {
			res, _, err := sim.RunScenario(testCfg("star"), name, 1000)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		a, b := runOnce(), runOnce()
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: non-deterministic runs:\n%+v\n%+v", name, a, b)
		}
	}
}

func TestDirtyFractionMeasured(t *testing.T) {
	res, _, err := sim.RunScenario(testCfg("star"), "ycsb", 3000)
	if err != nil {
		t.Fatal(err)
	}
	if res.DirtyMetaFrac <= 0 || res.DirtyMetaFrac > 1 {
		t.Fatalf("dirty fraction = %v", res.DirtyMetaFrac)
	}
}

func TestBitmapStatsExposed(t *testing.T) {
	res, _, err := sim.RunScenario(testCfg("star"), "array", 2000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bitmap == nil {
		t.Fatal("no bitmap stats for STAR")
	}
	if res.Bitmap.Accesses() == 0 {
		t.Fatal("bitmap lines never accessed")
	}
	res2, _, err := sim.RunScenario(testCfg("anubis"), "array", 2000)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Anubis == nil || res2.Anubis.STWrites == 0 {
		t.Fatal("no ST stats for Anubis")
	}
	if res2.Bitmap != nil {
		t.Fatal("bitmap stats leaked into Anubis results")
	}
}

func TestUnknownSchemeAndWorkload(t *testing.T) {
	cfg := testCfg("bogus")
	if _, err := sim.NewMachine(cfg); err == nil {
		t.Fatal("bogus scheme accepted")
	}
	m, err := sim.NewMachine(testCfg("wb"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run("bogus", 10); err == nil {
		t.Fatal("bogus workload accepted")
	}
}
