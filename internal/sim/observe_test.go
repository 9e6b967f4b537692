package sim

import (
	"math"
	"reflect"
	"testing"
)

func observeConfig(scheme string) Config {
	cfg := goldenConfig(scheme)
	cfg.Observe = true
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
			res, _, err := RunScenario(observeConfig(scheme), "hash", 400)
			if err != nil {
				t.Fatal(err)
			}
			b := res.WriteBreakdown
			if b == nil {
				t.Fatal("WriteBreakdown nil with Observe enabled")
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

// TestLatencyComponentsSumToEndToEnd is the differential check of the
// latency contract: for every op kind with observations, the
// per-component time shares sum to that op's end-to-end latency. The
// only tolerance is floating-point association order — the recorder
// adds component nanoseconds in program order while SumNs accumulates
// whole-frame durations.
func TestLatencyComponentsSumToEndToEnd(t *testing.T) {
	for _, scheme := range []string{"wb", "strict", "anubis", "phoenix", "star"} {
		t.Run(scheme, func(t *testing.T) {
			res, _, err := RunScenario(observeConfig(scheme), "hash", 400)
			if err != nil {
				t.Fatal(err)
			}
			lb := res.Latency
			if lb == nil {
				t.Fatal("Results.Latency nil with Observe enabled")
			}
			if len(lb.Ops) != int(numLatOps) {
				t.Fatalf("breakdown has %d ops, want %d", len(lb.Ops), numLatOps)
			}
			sawObs := false
			for _, o := range lb.Ops {
				if o.Count == 0 {
					continue
				}
				sawObs = true
				var compSum float64
				for _, c := range o.Components {
					if c.Ns < 0 {
						t.Errorf("%s: component %s negative: %g", o.Op, c.Component, c.Ns)
					}
					compSum += c.Ns
				}
				if diff := math.Abs(compSum - o.SumNs); diff > 1e-9*math.Max(compSum, o.SumNs)+1e-9 {
					t.Errorf("%s: components sum to %.6f ns but end-to-end is %.6f ns (diff %g)",
						o.Op, compSum, o.SumNs, diff)
				}
				var bucketSum uint64
				for _, n := range o.BucketsNs {
					bucketSum += n
				}
				if bucketSum != o.Count {
					t.Errorf("%s: buckets sum to %d, Count is %d", o.Op, bucketSum, o.Count)
				}
				if o.P50Ns > o.P99Ns || o.P99Ns > o.P999Ns || o.P999Ns > o.MaxNs {
					t.Errorf("%s: percentiles not monotone: p50=%g p99=%g p99.9=%g max=%g",
						o.Op, o.P50Ns, o.P99Ns, o.P999Ns, o.MaxNs)
				}
			}
			if !sawObs {
				t.Fatal("no op kind recorded any observations")
			}
			if op := lb.Op("write"); op == nil || op.Count == 0 {
				t.Error("no write-op latency observed under a write-heavy workload")
			}
		})
	}
}

// observeOffOn runs scheme with the observatory off and on and checks
// the shared disabled-path invariant: enabling Observe changes nothing
// except adding the WriteBreakdown and Latency fields.
func observeOffOn(t *testing.T, scheme string) (off, on *Results) {
	t.Helper()
	off, _, err := RunScenario(goldenConfig(scheme), "hash", 400)
	if err != nil {
		t.Fatal(err)
	}
	on, _, err = RunScenario(observeConfig(scheme), "hash", 400)
	if err != nil {
		t.Fatal(err)
	}
	stripped := *on
	stripped.WriteBreakdown, stripped.Latency = nil, nil
	if !reflect.DeepEqual(off, &stripped) {
		t.Errorf("observatory perturbed results:\n off %+v\n on  %+v", off, &stripped)
	}
	return off, on
}

// TestAttrDoesNotPerturbResults pins the disabled-path invariant from
// the write-cause side: Observe adds the WriteBreakdown field and
// changes nothing else.
func TestAttrDoesNotPerturbResults(t *testing.T) {
	for _, scheme := range []string{"star", "anubis"} {
		t.Run(scheme, func(t *testing.T) {
			off, on := observeOffOn(t, scheme)
			if off.WriteBreakdown != nil {
				t.Fatal("observe-off run has a WriteBreakdown")
			}
			if on.WriteBreakdown == nil {
				t.Fatal("observe-on run lacks a WriteBreakdown")
			}
		})
	}
}

// TestLatencyDoesNotPerturbResults is the latency side of the same
// invariant: Observe adds the Latency field and changes nothing else.
func TestLatencyDoesNotPerturbResults(t *testing.T) {
	for _, scheme := range []string{"star", "anubis"} {
		t.Run(scheme, func(t *testing.T) {
			off, on := observeOffOn(t, scheme)
			if off.Latency != nil {
				t.Fatal("observe-off run has a Latency breakdown")
			}
			if on.Latency == nil {
				t.Fatal("observe-on run lacks a Latency breakdown")
			}
		})
	}
}

// observeTwice runs the same observe-enabled config twice, for the
// run-to-run identity checks.
func observeTwice(t *testing.T) (a, b *Results) {
	t.Helper()
	var runs [2]*Results
	for i := range runs {
		res, _, err := RunScenario(observeConfig("star"), "hash", 600)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		runs[i] = res
	}
	return runs[0], runs[1]
}

// TestAttrRunToRunIdentity pins the attribution counters as a pure
// function of the operation history: two runs of the same config yield
// bit-identical breakdowns.
func TestAttrRunToRunIdentity(t *testing.T) {
	base, res := observeTwice(t)
	if !reflect.DeepEqual(res.WriteBreakdown, base.WriteBreakdown) {
		t.Errorf("run 1 breakdown diverges from run 0:\n got  %+v\n want %+v",
			res.WriteBreakdown, base.WriteBreakdown)
	}
}

// TestLatencyRunToRunIdentity pins the latency recorder as a pure
// function of the operation history: the full breakdown — bucket
// vectors, sums, percentiles, component shares — is bit-identical
// across two runs of the same config.
func TestLatencyRunToRunIdentity(t *testing.T) {
	base, res := observeTwice(t)
	if !reflect.DeepEqual(res.Latency, base.Latency) {
		t.Errorf("run 1 latency diverges from run 0:\n got  %+v\n want %+v",
			res.Latency, base.Latency)
	}
}

// forkVsFresh runs an observe-enabled parent, forks it, runs the fork
// on, and runs a fresh machine to the same point. It returns the
// parent, its latency snapshot taken just before the fork, the fork,
// and the second-phase results of the fork and the fresh machine.
func forkVsFresh(t *testing.T) (parent *Machine, parentSnap *LatencyBreakdown, fork *Machine, forkRes, freshRes *Results) {
	t.Helper()
	cfg := observeConfig("star")
	parent, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parent.Run("hash", 300); err != nil {
		t.Fatal(err)
	}
	parentSnap = parent.LatencySnapshot()
	fork = parent.Fork()
	if forkRes, err = fork.Run("hash", 300); err != nil {
		t.Fatal(err)
	}

	fresh, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Run("hash", 300); err != nil {
		t.Fatal(err)
	}
	if freshRes, err = fresh.Run("hash", 300); err != nil {
		t.Fatal(err)
	}
	return parent, parentSnap, fork, forkRes, freshRes
}

// TestAttrForkVsFresh checks Fork isolation for attribution state: a
// fork continues with the parent's counters and then diverges exactly
// as a fresh machine run to the same point would.
func TestAttrForkVsFresh(t *testing.T) {
	parent, _, fork, forkRes, freshRes := forkVsFresh(t)
	if !reflect.DeepEqual(forkRes.WriteBreakdown, freshRes.WriteBreakdown) {
		t.Errorf("fork breakdown diverges from fresh run:\n fork  %+v\n fresh %+v",
			forkRes.WriteBreakdown, freshRes.WriteBreakdown)
	}
	// The fork's writes must not have leaked into the parent.
	parentAfter := parent.be[0].observed.attr.breakdown(nil)
	forkAfter := fork.be[0].observed.attr.breakdown(nil)
	if parentAfter.Total >= forkAfter.Total {
		t.Errorf("parent total %d should be below fork total %d after the fork ran",
			parentAfter.Total, forkAfter.Total)
	}
}

// TestLatencyForkVsFresh checks Fork isolation for recorder state: a
// fork continues with copied bucket counts, diverges exactly as a fresh
// machine would, and leaks no observations back into the parent.
func TestLatencyForkVsFresh(t *testing.T) {
	parent, parentSnap, _, forkRes, freshRes := forkVsFresh(t)
	if !reflect.DeepEqual(forkRes.Latency, freshRes.Latency) {
		t.Errorf("fork latency diverges from fresh run:\n fork  %+v\n fresh %+v",
			forkRes.Latency, freshRes.Latency)
	}
	if !reflect.DeepEqual(parent.LatencySnapshot(), parentSnap) {
		t.Error("fork's observations leaked into the parent recorder")
	}
}

// TestLatencyResetIdentity pins that Reset returns the recorder to a
// cold start: a reset machine reruns bit-identically to a fresh one.
func TestLatencyResetIdentity(t *testing.T) {
	cfg := observeConfig("star")
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run("hash", 300); err != nil {
		t.Fatal(err)
	}
	m.Reset(cfg.Seed)
	resetRes, err := m.Run("hash", 300)
	if err != nil {
		t.Fatal(err)
	}
	fresh, _, err := RunScenario(cfg, "hash", 300)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resetRes.Latency, fresh.Latency) {
		t.Errorf("post-reset latency diverges from fresh machine:\n reset %+v\n fresh %+v",
			resetRes.Latency, fresh.Latency)
	}
}

// TestAttrRecoveryCause checks that crash recovery's replay writes are
// attributed to the recovery cause rather than their steady-state one.
func TestAttrRecoveryCause(t *testing.T) {
	cfg := observeConfig("star")
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run("hash", 400); err != nil {
		t.Fatal(err)
	}
	before := m.be[0].observed.clone()
	m.Crash()
	rep, err := m.Recover()
	if err != nil || !rep.Verified {
		t.Fatalf("recovery: %v (%+v)", err, rep)
	}
	delta := m.be[0].observed.attr.breakdown(&before.attr)
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

// TestLatencyRecovery checks that crash recovery lands in the recovery
// op with its three phases as components summing exactly to the
// end-to-end recovery time (integer-ns model, so no FP tolerance).
func TestLatencyRecovery(t *testing.T) {
	cfg := observeConfig("star")
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run("hash", 400); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	rep, err := m.Recover()
	if err != nil || !rep.Verified {
		t.Fatalf("recovery: %v (%+v)", err, rep)
	}
	lb := m.LatencySnapshot()
	if lb == nil {
		t.Fatal("LatencySnapshot nil with Observe enabled")
	}
	rec := lb.Op("recovery")
	if rec == nil || rec.Count != 1 {
		t.Fatalf("recovery op not observed exactly once: %+v", rec)
	}
	if rec.SumNs != rep.TimeNs() {
		t.Errorf("recovery end-to-end %g ns, report says %g ns", rec.SumNs, rep.TimeNs())
	}
	var compSum float64
	for _, c := range rec.Components {
		compSum += c.Ns
	}
	if compSum != rec.SumNs {
		t.Errorf("recovery components sum to %g ns, end-to-end is %g ns", compSum, rec.SumNs)
	}
	ph := rep.PhaseTimes()
	if ph.TotalNs() != rep.TimeNs() {
		t.Errorf("phase times sum to %g, TimeNs is %g", ph.TotalNs(), rep.TimeNs())
	}
}

// TestLatencySnapshotDisabled pins the nil contract: without
// cfg.Observe the machine has no recorder and the snapshot is nil.
func TestLatencySnapshotDisabled(t *testing.T) {
	m, err := NewMachine(goldenConfig("star"))
	if err != nil {
		t.Fatal(err)
	}
	if lb := m.LatencySnapshot(); lb != nil {
		t.Fatalf("LatencySnapshot = %+v on an observe-disabled machine, want nil", lb)
	}
}

// TestLatencyBreakdownAccumulateDivide pins the seed-averaging
// arithmetic Results.Accumulate/DivideBy route through the breakdown:
// accumulating two copies and dividing by two is an identity on
// counts and bucket vectors.
func TestLatencyBreakdownAccumulateDivide(t *testing.T) {
	res, _, err := RunScenario(observeConfig("star"), "hash", 300)
	if err != nil {
		t.Fatal(err)
	}
	orig := res.Latency.Copy()
	acc := res.Latency.Copy()
	acc.Accumulate(res.Latency)
	for i, o := range acc.Ops {
		if want := orig.Ops[i].Count * 2; o.Count != want {
			t.Errorf("%s: accumulated count %d, want %d", o.Op, o.Count, want)
		}
	}
	acc.DivideBy(2)
	if !reflect.DeepEqual(acc, orig) {
		t.Errorf("accumulate×2 then divide-by-2 not identity:\n got  %+v\n want %+v", acc, orig)
	}
}
