package sim

import (
	"bytes"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// snapshotOf captures the machine's post-crash non-volatile state.
func snapshotOf(t *testing.T, m *Machine, label string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Engine().SaveNonVolatile(&buf); err != nil {
		t.Fatalf("%s: snapshot: %v", label, err)
	}
	return buf.Bytes()
}

// TestForkVsFreshAllSchemes pins the Fork invariant across every
// scheme: a fork taken after an unverified run, then crashed and
// recovered, must match a fresh machine driven through the identical
// sequence — Results, post-crash snapshot bytes and recovery report all
// bit-identical. The parent is crashed afterwards too, proving the
// fork's crash/recovery did not disturb it.
func TestForkVsFreshAllSchemes(t *testing.T) {
	if testing.Short() {
		t.Skip("fork differential runs ten full cells")
	}
	const ops = 1200
	for _, scheme := range []string{"wb", "strict", "anubis", "phoenix", "star"} {
		cfg := goldenConfig(scheme)

		fresh, err := NewMachine(cfg)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		fres, err := fresh.RunUnverified("hash", ops)
		if err != nil {
			t.Fatalf("%s: fresh run: %v", scheme, err)
		}
		fresh.Crash()

		parent, err := NewMachine(cfg)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		pres, err := parent.RunUnverified("hash", ops)
		if err != nil {
			t.Fatalf("%s: parent run: %v", scheme, err)
		}
		if !reflect.DeepEqual(fres, pres) {
			t.Fatalf("%s: parent run diverged from fresh before any fork", scheme)
		}
		fork := parent.Fork()
		fork.Crash()

		fsnap := snapshotOf(t, fresh, scheme+"/fresh")
		ksnap := snapshotOf(t, fork, scheme+"/fork")
		if !bytes.Equal(fsnap, ksnap) {
			t.Errorf("%s: post-crash snapshot differs between fresh and fork (%d vs %d bytes)",
				scheme, len(fsnap), len(ksnap))
		}

		if scheme != "wb" {
			frep, err := fresh.Recover()
			if err != nil {
				t.Fatalf("%s: fresh recovery: %v", scheme, err)
			}
			krep, err := fork.Recover()
			if err != nil {
				t.Fatalf("%s: fork recovery: %v", scheme, err)
			}
			if !reflect.DeepEqual(frep, krep) {
				t.Errorf("%s: recovery reports differ:\nfresh %+v\nfork  %+v", scheme, frep, krep)
			}
		}

		// The fork's whole crash/recovery cycle must be invisible to the
		// parent: crashing it now must reproduce the fresh machine's
		// post-crash snapshot.
		parent.Crash()
		psnap := snapshotOf(t, parent, scheme+"/parent")
		if !bytes.Equal(fsnap, psnap) {
			t.Errorf("%s: parent corrupted by fork activity (snapshot %d vs %d bytes)",
				scheme, len(fsnap), len(psnap))
		}
	}
}

// TestForkMidRunCrashPoints pins the segmented-stepping equivalence the
// experiments layer's crash-point decomposition relies on: forking one
// base machine at several mid-run points and crashing each fork matches
// fresh machines run (via the same session stepping) exactly to those
// points.
func TestForkMidRunCrashPoints(t *testing.T) {
	if testing.Short() {
		t.Skip("crash-point differential runs several full cells")
	}
	points := []int{300, 700, 1100}
	cfg := goldenConfig("star")

	parent, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := parent.NewSession("hash")
	if err != nil {
		t.Fatal(err)
	}
	var forks []*Machine
	prev := 0
	for _, p := range points {
		if err := s.StepN(p - prev); err != nil {
			t.Fatalf("base step to %d: %v", p, err)
		}
		prev = p
		f := parent.Fork()
		f.Crash()
		forks = append(forks, f)
	}

	for i, p := range points {
		fresh, err := NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fs, err := fresh.NewSession("hash")
		if err != nil {
			t.Fatal(err)
		}
		if err := fs.StepN(p); err != nil {
			t.Fatalf("fresh step to %d: %v", p, err)
		}
		fresh.Crash()
		fsnap := snapshotOf(t, fresh, "fresh")
		ksnap := snapshotOf(t, forks[i], "fork")
		if !bytes.Equal(fsnap, ksnap) {
			t.Errorf("crash point %d: snapshot differs between fresh and fork", p)
		}
		frep, err := fresh.Recover()
		if err != nil {
			t.Fatalf("crash point %d: fresh recovery: %v", p, err)
		}
		krep, err := forks[i].Recover()
		if err != nil {
			t.Fatalf("crash point %d: fork recovery: %v", p, err)
		}
		if !reflect.DeepEqual(frep, krep) {
			t.Errorf("crash point %d: recovery reports differ:\nfresh %+v\nfork  %+v", p, frep, krep)
		}
	}
}

// TestForkOfFork: a grandchild taken from an (uncrashed) child must
// still satisfy the Fork invariant against a fresh machine.
func TestForkOfFork(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full cells")
	}
	const ops = 800
	cfg := goldenConfig("anubis")

	fresh, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.RunUnverified("array", ops); err != nil {
		t.Fatal(err)
	}
	fresh.Crash()

	parent, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parent.RunUnverified("array", ops); err != nil {
		t.Fatal(err)
	}
	child := parent.Fork()
	grand := child.Fork()
	grand.Crash()

	if !bytes.Equal(snapshotOf(t, fresh, "fresh"), snapshotOf(t, grand, "grandchild")) {
		t.Error("fork-of-fork post-crash snapshot differs from fresh run")
	}
	frep, err := fresh.Recover()
	if err != nil {
		t.Fatal(err)
	}
	grep, err := grand.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(frep, grep) {
		t.Errorf("fork-of-fork recovery differs:\nfresh %+v\ngrand %+v", frep, grep)
	}
	// The intermediate child is still intact.
	child.Crash()
	crep, err := child.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(frep, crep) {
		t.Errorf("intermediate child recovery differs:\nfresh %+v\nchild %+v", frep, crep)
	}
}

// TestForkLatencyBitIdentity: the latency observatory rides through
// fork-of-fork like every other piece of machine state — a grandchild
// fork's cumulative breakdown (including the recovery op recorded
// after its own crash) is bit-identical to a fresh machine's, and the
// grandchild's recovery observation does not leak into parent or
// child.
func TestForkLatencyBitIdentity(t *testing.T) {
	const ops = 400
	cfg := observeConfig("star")

	fresh, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.RunUnverified("array", ops); err != nil {
		t.Fatal(err)
	}
	fresh.Crash()

	parent, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parent.RunUnverified("array", ops); err != nil {
		t.Fatal(err)
	}
	child := parent.Fork()
	grand := child.Fork()
	grand.Crash()

	if _, err := fresh.Recover(); err != nil {
		t.Fatal(err)
	}
	if _, err := grand.Recover(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh.LatencySnapshot(), grand.LatencySnapshot()) {
		t.Errorf("fork-of-fork latency differs from fresh run:\nfresh %+v\ngrand %+v",
			fresh.LatencySnapshot(), grand.LatencySnapshot())
	}
	if !reflect.DeepEqual(parent.LatencySnapshot(), child.LatencySnapshot()) {
		t.Error("parent and un-run child recorders should still agree")
	}
	if rec := parent.LatencySnapshot().Op("recovery"); rec.Count != 0 {
		t.Errorf("grandchild's recovery leaked into the parent recorder: %+v", rec)
	}
}

// TestForkThenReset: Reset on either side of a fork restores the full
// Reset invariant — both the recycled parent and the recycled child
// reproduce a fresh machine bit for bit, regardless of what the other
// side did meanwhile.
func TestForkThenReset(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full cells")
	}
	const ops = 800
	cfg := goldenConfig("star")

	ref, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rres, err := ref.Run("queue", ops)
	if err != nil {
		t.Fatal(err)
	}

	parent, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parent.RunUnverified("hash", ops); err != nil {
		t.Fatal(err)
	}
	child := parent.Fork()

	// Parent resets and reruns while the child still holds shared pages.
	parent.Reset(cfg.Seed)
	pres, err := parent.Run("queue", ops)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rres, pres) {
		t.Errorf("reset parent diverged from fresh:\nfresh %+v\nreset %+v", rres, pres)
	}

	// The child was not disturbed: crash + recover still succeed.
	child.Crash()
	if rep, err := child.Recover(); err != nil || !rep.Verified {
		t.Fatalf("child recovery after parent reset: rep=%+v err=%v", rep, err)
	}

	// And a reset child is as good as fresh.
	child.Reset(cfg.Seed)
	cres, err := child.Run("queue", ops)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rres, cres) {
		t.Errorf("reset child diverged from fresh:\nfresh %+v\nreset %+v", rres, cres)
	}
}

// TestForkCrashStateMatchesFresh holds the Fork invariant at the
// crash boundary: a fork crashed right after the parent's run leaves
// the same non-volatile image, and recovers with the same report, as a
// fresh machine crashed at the same point.
func TestForkCrashStateMatchesFresh(t *testing.T) {
	const ops = 800
	cfg := goldenConfig("star")

	fresh, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.RunUnverified("hash", ops); err != nil {
		t.Fatal(err)
	}
	fresh.Crash()

	parent, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parent.RunUnverified("hash", ops); err != nil {
		t.Fatal(err)
	}
	fork := parent.Fork()
	fork.Crash()

	if !bytes.Equal(snapshotOf(t, fresh, "fresh"), snapshotOf(t, fork, "fork")) {
		t.Error("post-crash snapshot differs between fresh and fork")
	}
	frep, err := fresh.Recover()
	if err != nil {
		t.Fatalf("fresh recovery: %v", err)
	}
	krep, err := fork.Recover()
	if err != nil {
		t.Fatalf("fork recovery: %v", err)
	}
	if !reflect.DeepEqual(frep, krep) {
		t.Errorf("recovery reports differ:\nfresh %+v\nfork  %+v", frep, krep)
	}
}

// TestForkConcurrentSmoke runs the parent and N forks concurrently —
// forks crash and recover on their own goroutines while the parent
// keeps stepping its workload. Shared COW pages are only ever read, so
// this must be clean under the race detector (make race covers it).
func TestForkConcurrentSmoke(t *testing.T) {
	const (
		baseOps  = 600
		extraOps = 300
		nForks   = 4
	)
	cfg := goldenConfig("star")
	parent, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := parent.NewSession("hash")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.StepN(baseOps); err != nil {
		t.Fatal(err)
	}

	forks := make([]*Machine, nForks)
	for i := range forks {
		forks[i] = parent.Fork()
	}

	var wg sync.WaitGroup
	reports := make([]bool, nForks)
	wg.Add(nForks)
	for i, f := range forks {
		go func(i int, f *Machine) {
			defer wg.Done()
			f.Crash()
			rep, err := f.Recover()
			reports[i] = err == nil && rep.Verified
		}(i, f)
	}
	// The parent keeps executing while the forks recover.
	stepErr := s.StepN(extraOps)
	wg.Wait()

	if stepErr != nil {
		t.Fatalf("parent steps during concurrent forks: %v", stepErr)
	}
	for i, ok := range reports {
		if !ok {
			t.Errorf("fork %d failed to recover", i)
		}
	}
}

// TestMachineForkAllocation guards what a fork costs: the CPU and
// metadata caches are shared copy-on-write, so forking an
// evaluation-sized star machine (eight cores, 64 MiB of data, a
// 256 KiB metadata cache) after 2000 hash steps allocates well under
// the 12 MB its caches occupy.
func TestMachineForkAllocation(t *testing.T) {
	if testing.Short() {
		t.Skip("sets up a 64 MiB workload")
	}
	cfg := Default()
	cfg.DataBytes = 64 << 20
	cfg.MetaCache.SizeBytes = 256 << 10
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.NewSession("hash")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.StepN(2000); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f := m.Fork()
	runtime.ReadMemStats(&after)
	mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	if mb >= 1 {
		t.Fatalf("Fork allocated %.2f MB, want under 1 MB", mb)
	}
	t.Logf("Fork allocated %.3f MB", mb)
	f.Crash()
	if rep, err := f.Recover(); err != nil || !rep.Verified {
		t.Fatalf("recovering the fork: %v, %+v", err, rep)
	}
}
