package sim

import (
	"reflect"
	"testing"

	"nvmstar/internal/nvm"
)

func attrConfig(scheme string) Config {
	cfg := goldenConfig(scheme)
	cfg.Attr = true
	return cfg
}

// TestAttrSumMatchesDeviceWrites is the differential check of the
// attribution contract: across every scheme, the per-cause counts sum
// exactly to the device's total line writes for the measured phase —
// the same quantity engine.write_amp accounting is built on — and no
// write escapes untagged into the "other" bucket.
func TestAttrSumMatchesDeviceWrites(t *testing.T) {
	for _, scheme := range []string{"wb", "strict", "anubis", "phoenix", "star"} {
		t.Run(scheme, func(t *testing.T) {
			res, _, err := RunScenario(attrConfig(scheme), "hash", 400)
			if err != nil {
				t.Fatal(err)
			}
			b := res.WriteBreakdown
			if b == nil {
				t.Fatal("WriteBreakdown nil with Attr enabled")
			}
			var sum uint64
			for _, c := range b.Causes {
				sum += c.Writes
				var bankSum uint64
				for _, v := range c.Banks {
					bankSum += v
				}
				if bankSum != c.Writes {
					t.Errorf("%s: per-bank split sums to %d, want %d", c.Cause, bankSum, c.Writes)
				}
			}
			if sum != b.Total || sum != res.Dev.Writes {
				t.Errorf("per-cause sum %d, Total %d, Dev.Writes %d — must all agree",
					sum, b.Total, res.Dev.Writes)
			}
			if got := b.CauseWrites("other"); got != 0 {
				t.Errorf("%d writes fell into the untagged \"other\" bucket", got)
			}
			if res.Dev.Writes > 0 && b.CauseWrites("data") == 0 {
				t.Error("no writes attributed to data")
			}
		})
	}
}

// TestAttrDoesNotPerturbResults pins the disabled-path invariant from
// the other side: enabling attribution changes nothing except adding
// the WriteBreakdown field.
func TestAttrDoesNotPerturbResults(t *testing.T) {
	for _, scheme := range []string{"star", "anubis"} {
		t.Run(scheme, func(t *testing.T) {
			off, _, err := RunScenario(goldenConfig(scheme), "hash", 400)
			if err != nil {
				t.Fatal(err)
			}
			on, _, err := RunScenario(attrConfig(scheme), "hash", 400)
			if err != nil {
				t.Fatal(err)
			}
			if off.WriteBreakdown != nil {
				t.Fatal("attr-off run has a WriteBreakdown")
			}
			if on.WriteBreakdown == nil {
				t.Fatal("attr-on run lacks a WriteBreakdown")
			}
			on.WriteBreakdown = nil
			if !reflect.DeepEqual(off, on) {
				t.Errorf("attribution perturbed results:\n off %+v\n on  %+v", off, on)
			}
		})
	}
}

// TestAttrRunToRunIdentity pins the attribution counters as a pure
// function of the operation history: two runs of the same config yield
// bit-identical breakdowns.
func TestAttrRunToRunIdentity(t *testing.T) {
	var base *nvm.Breakdown
	for run := 0; run < 2; run++ {
		res, _, err := RunScenario(attrConfig("star"), "hash", 600)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if base == nil {
			base = res.WriteBreakdown
			continue
		}
		if !reflect.DeepEqual(res.WriteBreakdown, base) {
			t.Errorf("run %d breakdown diverges from run 0:\n got  %+v\n want %+v",
				run, res.WriteBreakdown, base)
		}
	}
}

// TestAttrForkVsFresh checks Fork isolation for attribution state: a
// fork continues with the parent's counters and then diverges exactly
// as a fresh machine run to the same point would.
func TestAttrForkVsFresh(t *testing.T) {
	cfg := attrConfig("star")
	parent, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parent.Run("hash", 300); err != nil {
		t.Fatal(err)
	}
	fork := parent.Fork()
	forkRes, err := fork.Run("hash", 300)
	if err != nil {
		t.Fatal(err)
	}

	fresh, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Run("hash", 300); err != nil {
		t.Fatal(err)
	}
	freshRes, err := fresh.Run("hash", 300)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(forkRes.WriteBreakdown, freshRes.WriteBreakdown) {
		t.Errorf("fork breakdown diverges from fresh run:\n fork  %+v\n fresh %+v",
			forkRes.WriteBreakdown, freshRes.WriteBreakdown)
	}
	// The fork's writes must not have leaked into the parent.
	parentAfter := parent.Engine().Device().Breakdown()
	forkAfter := fork.Engine().Device().Breakdown()
	if parentAfter.Total >= forkAfter.Total {
		t.Errorf("parent total %d should be below fork total %d after the fork ran",
			parentAfter.Total, forkAfter.Total)
	}
}

// TestAttrRecoveryCause checks that crash recovery's replay writes are
// attributed to the recovery cause rather than their steady-state one.
func TestAttrRecoveryCause(t *testing.T) {
	cfg := attrConfig("star")
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run("hash", 400); err != nil {
		t.Fatal(err)
	}
	before := m.Engine().Device().Breakdown()
	m.Crash()
	rep, err := m.Recover()
	if err != nil || !rep.Verified {
		t.Fatalf("recovery: %v (%+v)", err, rep)
	}
	delta := m.Engine().Device().Breakdown().Sub(before)
	if rep.NodeWrites > 0 && delta.CauseWrites("recovery") == 0 {
		t.Errorf("recovery wrote %d nodes but no writes carry the recovery cause (delta %+v)",
			rep.NodeWrites, delta)
	}
	for _, c := range delta.Causes {
		if c.Cause != "recovery" && c.Writes != 0 {
			t.Errorf("recovery-phase writes attributed to %q (%d)", c.Cause, c.Writes)
		}
	}
}
