package sim

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"nvmstar/internal/attack"
	"nvmstar/internal/nvm"
)

// TestLockStepPairMatchesSolo pins the group invariant on a two-member
// group with the observatory on: each member's Results — write
// breakdown and latency included — equal its solo machine's, each
// member forked out and crashed saves its solo machine's post-crash
// bytes, and a Reset group repeats the run exactly.
func TestLockStepPairMatchesSolo(t *testing.T) {
	const workload, ops = "queue", 300
	var cfgs []Config
	for _, scheme := range []string{"star", "anubis"} {
		cfg := goldenConfig(scheme)
		cfg.Observe = true
		cfgs = append(cfgs, cfg)
	}
	group, err := NewGroup(cfgs...)
	if err != nil {
		t.Fatal(err)
	}
	got, err := group.RunEach(context.Background(), workload, ops)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		solo, err := NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := solo.Run(workload, ops)
		if err != nil {
			t.Fatal(err)
		}
		if want.Latency == nil || want.WriteBreakdown == nil {
			t.Fatalf("%s: solo run has no observatory results", cfg.Scheme)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("member %d (%s): group results differ from solo:\nsolo  %+v\ngroup %+v", i, cfg.Scheme, want, got[i])
		}
		fk := group.ForkMember(i)
		if len(fk.be) != 1 || fk.Config().Scheme != cfg.Scheme {
			t.Fatalf("ForkMember(%d) = %d members of %s, want one %s", i, len(fk.be), fk.Config().Scheme, cfg.Scheme)
		}
		fk.Crash()
		solo.Crash()
		label := fmt.Sprintf("member %d (%s)", i, cfg.Scheme)
		if string(snapshotOf(t, fk, label)) != string(snapshotOf(t, solo, label+" solo")) {
			t.Errorf("%s: forked-out post-crash snapshot differs from solo", label)
		}
	}

	group.Reset(cfgs[0].Seed)
	again, err := group.RunEach(context.Background(), workload, ops)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, got) {
		t.Errorf("Reset group's results differ from the fresh group's")
	}
}

// TestNewGroupRejectsFrontEndDifference: members may differ only below
// the CPU caches; any other field is refused by name.
func TestNewGroupRejectsFrontEndDifference(t *testing.T) {
	a, b := goldenConfig("star"), goldenConfig("anubis")
	b.L3.SizeBytes *= 2
	_, err := NewGroup(a, b)
	if err == nil || !strings.Contains(err.Error(), "member 1") || !strings.Contains(err.Error(), "L3") {
		t.Fatalf("NewGroup with different L3 sizes: err = %v, want one naming member 1 and L3", err)
	}
	b = goldenConfig("star")
	b.MetaCache.SizeBytes /= 2
	b.Bitmap.ADRL1Lines, b.Bitmap.ADRL2Lines = 6, 2
	if _, err := NewGroup(a, b); err != nil {
		t.Fatalf("NewGroup with different MetaCache and Bitmap: %v", err)
	}
	if _, err := NewGroup(); err == nil {
		t.Fatal("NewGroup with no configs succeeded")
	}
}

// tamperOnRead tampers a victim engine's copy of the first data line
// the observed member reads from NVM, and records the step and line.
type tamperOnRead struct {
	m      *Machine
	victim int
	done   bool
	step   int
	addr   uint64
}

func (o *tamperOnRead) Observe(ev Event) {
	if o.done || ev.Kind != EvAccess || ev.Access != nvm.AccessRead || ev.Addr >= o.m.cfg.DataBytes {
		return
	}
	// Member 0 reads first, so the victim's read of this line comes
	// after the tamper.
	o.done, o.step, o.addr = true, o.m.step, ev.Addr
	attack.TamperData(o.m.be[o.victim].engine, ev.Addr, 3)
}

// TestLockStepDivergenceNamesMember is the differential oracle: a
// member whose NVM was tampered mid-run reads a line the others do
// not, and the run fails — with an error, not a panic — naming that
// member's configuration, the step and the line address.
func TestLockStepDivergenceNamesMember(t *testing.T) {
	cfgs := []Config{goldenConfig("star"), goldenConfig("anubis")}
	group, err := NewGroup(cfgs...)
	if err != nil {
		t.Fatal(err)
	}
	s, err := group.NewSession("hash")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.StepN(50); err != nil {
		t.Fatal(err)
	}
	o := &tamperOnRead{m: group, victim: 1}
	group.Attach(o)
	err = s.StepN(2000)
	if !o.done {
		t.Fatal("no data line was read from NVM; the test tampered nothing")
	}
	if err == nil {
		t.Fatal("run over a tampered member succeeded")
	}
	for _, want := range []string{
		"divergence",
		"member 1 (" + memberName(cfgs[1]) + ")",
		fmt.Sprintf("step %d", o.step),
		fmt.Sprintf("line %#x", o.addr),
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not contain %q", err, want)
		}
	}
	if o.step < 50 {
		t.Errorf("tamper fired at step %d, before the measured steps", o.step)
	}
}
