package sim

import (
	"math"
	"reflect"
	"testing"
)

func latConfig(scheme string) Config {
	cfg := goldenConfig(scheme)
	cfg.Latency = true
	return cfg
}

// TestLatencyComponentsSumToEndToEnd is the differential check of the
// observatory contract: for every op kind with observations, the
// per-component time shares sum to that op's end-to-end latency. The
// only tolerance is floating-point association order — the recorder
// adds component nanoseconds in program order while SumNs accumulates
// whole-frame durations.
func TestLatencyComponentsSumToEndToEnd(t *testing.T) {
	for _, scheme := range []string{"wb", "strict", "anubis", "phoenix", "star"} {
		t.Run(scheme, func(t *testing.T) {
			res, _, err := RunScenario(latConfig(scheme), "hash", 400)
			if err != nil {
				t.Fatal(err)
			}
			lb := res.Latency
			if lb == nil {
				t.Fatal("Results.Latency nil with Latency enabled")
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

// TestLatencyDoesNotPerturbResults pins the disabled-path invariant
// from the other side: enabling the observatory changes nothing except
// adding the Latency field.
func TestLatencyDoesNotPerturbResults(t *testing.T) {
	for _, scheme := range []string{"star", "anubis"} {
		t.Run(scheme, func(t *testing.T) {
			off, _, err := RunScenario(goldenConfig(scheme), "hash", 400)
			if err != nil {
				t.Fatal(err)
			}
			on, _, err := RunScenario(latConfig(scheme), "hash", 400)
			if err != nil {
				t.Fatal(err)
			}
			if off.Latency != nil {
				t.Fatal("latency-off run has a Latency breakdown")
			}
			if on.Latency == nil {
				t.Fatal("latency-on run lacks a Latency breakdown")
			}
			on.Latency = nil
			if !reflect.DeepEqual(off, on) {
				t.Errorf("observatory perturbed results:\n off %+v\n on  %+v", off, on)
			}
		})
	}
}

// TestLatencyRunToRunIdentity pins the observatory as a pure function
// of the operation history: the full breakdown — bucket vectors, sums,
// percentiles, component shares — is bit-identical across two runs of
// the same config.
func TestLatencyRunToRunIdentity(t *testing.T) {
	var base *LatencyBreakdown
	for run := 0; run < 2; run++ {
		res, _, err := RunScenario(latConfig("star"), "hash", 600)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if base == nil {
			base = res.Latency
			continue
		}
		if !reflect.DeepEqual(res.Latency, base) {
			t.Errorf("run %d latency diverges from run 0:\n got  %+v\n want %+v",
				run, res.Latency, base)
		}
	}
}

// TestLatencyForkVsFresh checks Fork isolation for recorder state: a
// fork continues with cloned histograms and then diverges exactly as a
// fresh machine run to the same point would, without leaking
// observations back into the parent.
func TestLatencyForkVsFresh(t *testing.T) {
	cfg := latConfig("star")
	parent, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parent.Run("hash", 300); err != nil {
		t.Fatal(err)
	}
	parentSnap := parent.LatencySnapshot()
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
	cfg := latConfig("star")
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

// TestLatencyRecovery checks that crash recovery lands in the recovery
// op with its three phases as components summing exactly to the
// end-to-end recovery time (integer-ns model, so no FP tolerance).
func TestLatencyRecovery(t *testing.T) {
	cfg := latConfig("star")
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
		t.Fatal("LatencySnapshot nil with Latency enabled")
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
// cfg.Latency the machine has no recorder and the snapshot is nil.
func TestLatencySnapshotDisabled(t *testing.T) {
	m, err := NewMachine(goldenConfig("star"))
	if err != nil {
		t.Fatal(err)
	}
	if lb := m.LatencySnapshot(); lb != nil {
		t.Fatalf("LatencySnapshot = %+v on a latency-disabled machine, want nil", lb)
	}
}

// TestLatencyBreakdownAccumulateDivide pins the seed-averaging
// arithmetic Results.Accumulate/DivideBy route through the breakdown:
// accumulating two copies and dividing by two is an identity on
// counts and bucket vectors.
func TestLatencyBreakdownAccumulateDivide(t *testing.T) {
	res, _, err := RunScenario(latConfig("star"), "hash", 300)
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
