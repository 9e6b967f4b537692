package sim

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"nvmstar/internal/bitmap"
	"nvmstar/internal/simcrypto"
)

// resetMember is goldenConfig(scheme) on a metaKiB metadata cache and,
// when adr is nonzero, STAR's bitmap.SplitADR(adr) split.
func resetMember(t *testing.T, scheme string, metaKiB, adr int) Config {
	t.Helper()
	cfg := goldenConfig(scheme)
	cfg.MetaCache.SizeBytes = metaKiB << 10
	if adr != 0 {
		var err error
		if cfg.Bitmap, err = bitmap.SplitADR(adr); err != nil {
			t.Fatal(err)
		}
	}
	return cfg
}

// memberSnapshots returns every member's non-volatile state.
func memberSnapshots(t *testing.T, m *Machine) [][]byte {
	t.Helper()
	var out [][]byte
	for i, b := range m.be {
		var buf bytes.Buffer
		if err := b.engine.SaveNonVolatile(&buf); err != nil {
			t.Fatalf("member %d: snapshot: %v", i, err)
		}
		out = append(out, buf.Bytes())
	}
	return out
}

// TestResetReuseInterleaved fuzzes the reset invariant the experiment
// runner's machine reuse relies on, m.ResetTo(cfgs...) ≡
// NewGroup(cfgs...): one recycled machine is driven through a schedule
// that changes scheme, group size (1, 2 and 4 members, Table II's
// smallest ADR split among them) and metadata-cache size (128 and 256
// KiB), starting each step from a running, crashed, recovered or
// ForkMember-shared state, with workloads, seeds and op counts drawn
// from a fixed pseudo-random sequence. After every retarget it must
// reproduce a fresh group's Results, post-crash recovery reports and
// non-volatile state bit for bit; one step goes through Reset(seed),
// which is ResetTo of the machine's own configs. A fork taken at the
// end of a step stays alive across the parent's next retarget and run,
// and must then crash and recover exactly as the fresh group's fork.
func TestResetReuseInterleaved(t *testing.T) {
	if testing.Short() {
		t.Skip("interleaved reuse fuzz runs dozens of full cells")
	}
	m := func(scheme string, metaKiB, adr int) Config { return resetMember(t, scheme, metaKiB, adr) }
	type step struct {
		members []Config // nil: Reset(seed) of the previous step's members
		end     string   // "running", "crashed", "recovered" or "forked"
	}
	steps := []step{
		{[]Config{m("star", 256, 0)}, "running"},
		{[]Config{m("anubis", 256, 0)}, "crashed"},
		{[]Config{m("star", 256, 2), m("star", 256, 0)}, "recovered"},
		{[]Config{m("wb", 256, 0), m("star", 256, 0), m("anubis", 256, 0), m("phoenix", 256, 0)}, "forked"},
		{[]Config{m("star", 128, 0)}, "running"},
		{[]Config{m("star", 128, 0), m("star", 256, 0)}, "crashed"},
		{nil, "recovered"},
		{[]Config{m("strict", 256, 0), m("star", 128, 0)}, "forked"},
		{[]Config{m("star", 256, 2), m("star", 256, 4), m("star", 256, 8), m("star", 256, 0)}, "running"},
		{[]Config{m("phoenix", 128, 0)}, "recovered"},
		{[]Config{m("wb", 256, 0), m("anubis", 128, 0)}, "forked"},
		{[]Config{m("star", 128, 2)}, "running"},
	}
	workloads := []string{"array", "queue", "hash"}
	seeds := []uint64{0, 1, 42}
	opsChoices := []int{400, 800, 1200}

	// xorshift64: fixed seed, so the schedule is identical on every run.
	rng := uint64(0x9e3779b97f4a7c15)
	pick := func(n int) int {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(n))
	}

	rm, err := NewGroup(m("wb", 256, 0))
	if err != nil {
		t.Fatal(err)
	}
	var members []Config
	var fork, freshFork *Machine // the last step's ForkMember children
	for it, st := range steps {
		workload := workloads[pick(len(workloads))]
		seed := seeds[pick(len(seeds))]
		ops := opsChoices[pick(len(opsChoices))]
		if st.members != nil {
			members = st.members
		}
		cfgs := append([]Config(nil), members...)
		for i := range cfgs {
			cfgs[i].Seed = seed
		}
		fresh, err := NewGroup(cfgs...)
		if err != nil {
			t.Fatalf("step %d: %v", it, err)
		}
		if st.members == nil {
			rm.Reset(seed)
		} else if err := rm.ResetTo(cfgs...); err != nil {
			t.Fatalf("step %d: ResetTo: %v", it, err)
		}

		verify := st.end == "running"
		fres, err := fresh.run(context.Background(), workload, ops, verify)
		if err != nil {
			t.Fatalf("step %d %s seed=%d ops=%d: fresh: %v", it, workload, seed, ops, err)
		}
		rres, err := rm.run(context.Background(), workload, ops, verify)
		if err != nil {
			t.Fatalf("step %d %s seed=%d ops=%d: reused: %v", it, workload, seed, ops, err)
		}
		if !reflect.DeepEqual(fres, rres) {
			t.Errorf("step %d %s seed=%d ops=%d: reused machine diverged:\nfresh  %+v\nreused %+v",
				it, workload, seed, ops, fres, rres)
		}

		if fork != nil {
			// The previous step's forks shared pages with their parents
			// through this step's retarget and run.
			fork.Crash()
			freshFork.Crash()
			if !reflect.DeepEqual(memberSnapshots(t, fork), memberSnapshots(t, freshFork)) {
				t.Errorf("step %d: the live fork's post-crash state differs from the fresh fork's", it)
			}
			frep, ferr := freshFork.Recover()
			rrep, rerr := fork.Recover()
			if !reflect.DeepEqual(frep, rrep) || errText(ferr) != errText(rerr) {
				t.Errorf("step %d: live fork's recovery differs:\nfresh  %+v (%v)\nreused %+v (%v)", it, frep, ferr, rrep, rerr)
			}
			fork, freshFork = nil, nil
		}

		switch st.end {
		case "crashed", "recovered":
			fresh.Crash()
			rm.Crash()
			if st.end == "crashed" {
				break
			}
			frep, ferr := fresh.Recover()
			rrep, rerr := rm.Recover()
			if !reflect.DeepEqual(frep, rrep) || errText(ferr) != errText(rerr) {
				t.Errorf("step %d: recovery differs:\nfresh  %+v (%v)\nreused %+v (%v)", it, frep, ferr, rrep, rerr)
			}
			if !reflect.DeepEqual(memberSnapshots(t, fresh), memberSnapshots(t, rm)) {
				t.Errorf("step %d: recovered state differs from the fresh group's", it)
			}
		case "forked":
			i := len(cfgs) - 1
			fork, freshFork = rm.ForkMember(i), fresh.ForkMember(i)
		}
	}
}

// TestResetToRejectsFrontEndDifference: a machine may be retargeted
// only to configs whose CPU side matches its own and whose scheme
// NewGroup would build. Any other difference is refused by field name,
// an unknown scheme or a partial Bitmap by what is wrong, and the
// refused machine is untouched: it runs on and matches a fresh machine
// of its own config.
func TestResetToRejectsFrontEndDifference(t *testing.T) {
	const workload, ops = "array", 300
	cfg := goldenConfig("star")
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cores := goldenConfig("anubis")
	cores.Cores = 4
	l3 := goldenConfig("star")
	l3.L3.SizeBytes *= 2
	suite := goldenConfig("star")
	suite.Suite = simcrypto.NewFast(1)
	partial := goldenConfig("star")
	partial.Bitmap = bitmap.Config{ADRL1Lines: 4}
	for _, tc := range []struct {
		cfgs  []Config
		field string
	}{
		{[]Config{cores}, "Cores"},
		{[]Config{l3}, "L3"},
		{[]Config{suite}, "Suite"},
		{[]Config{goldenConfig("wb"), l3}, "member 1"},
		{[]Config{goldenConfig("foo")}, "unknown scheme"},
		{[]Config{goldenConfig("wb"), partial}, "partial Bitmap"},
	} {
		err := m.ResetTo(tc.cfgs...)
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("ResetTo differing in %s: err = %v, want one naming it", tc.field, err)
		}
	}
	fresh, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Run(workload, ops)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Run(workload, ops)
	if err != nil {
		t.Fatalf("refused machine: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("a refused ResetTo changed the machine:\nfresh %+v\ngot   %+v", want, got)
	}
}
