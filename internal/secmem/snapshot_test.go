package secmem_test

import (
	"bytes"
	"testing"

	"nvmstar/internal/memline"
	"nvmstar/internal/secmem"
)

// snapshotCycle crashes e, saves its non-volatile state, restores it
// into a freshly built engine of the same configuration, recovers, and
// returns the new engine.
func snapshotCycle(t *testing.T, e *secmem.Engine, scheme string) *secmem.Engine {
	t.Helper()
	e.Crash()
	var buf bytes.Buffer
	if err := e.SaveNonVolatile(&buf); err != nil {
		t.Fatal(err)
	}
	fresh := newEngine(t, scheme, 1<<20, 16<<10)
	if err := fresh.RestoreNonVolatile(&buf); err != nil {
		t.Fatal(err)
	}
	rep, err := fresh.Recover()
	if err != nil {
		t.Fatalf("recovery after restore: %v", err)
	}
	if !rep.Verified {
		t.Fatalf("recovery after restore unverified: %+v", rep)
	}
	return fresh
}

func TestSnapshotRestoreAcrossEngines(t *testing.T) {
	for _, scheme := range []string{"star", "anubis", "phoenix"} {
		t.Run(scheme, func(t *testing.T) {
			e := newEngine(t, scheme, 1<<20, 16<<10)
			expect := runWorkload(t, e, 3000, 909)
			fresh := snapshotCycle(t, e, scheme)
			verifyAll(t, fresh, expect)
		})
	}
}

func TestSnapshotThenContinueThenSnapshotAgain(t *testing.T) {
	e := newEngine(t, "star", 1<<20, 16<<10)
	expect := runWorkload(t, e, 1500, 910)
	e2 := snapshotCycle(t, e, "star")
	for addr, l := range runWorkload(t, e2, 1500, 911) {
		expect[addr] = l
	}
	e3 := snapshotCycle(t, e2, "star")
	verifyAll(t, e3, expect)
}

func TestSnapshotRejectsGarbage(t *testing.T) {
	e := newEngine(t, "star", 1<<20, 16<<10)
	if err := e.RestoreNonVolatile(bytes.NewReader([]byte("not a snapshot at all"))); err == nil {
		t.Fatal("garbage snapshot accepted")
	}
}

func TestSnapshotCapacityMismatchRejected(t *testing.T) {
	e := newEngine(t, "star", 1<<20, 16<<10)
	if err := e.WriteLine(0, memline.Line{1}); err != nil {
		t.Fatal(err)
	}
	e.Crash()
	var buf bytes.Buffer
	if err := e.SaveNonVolatile(&buf); err != nil {
		t.Fatal(err)
	}
	other := newEngine(t, "star", 1<<19, 16<<10) // different geometry
	if err := other.RestoreNonVolatile(&buf); err == nil {
		t.Fatal("snapshot restored into mismatched geometry")
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	e := newEngine(t, "star", 1<<20, 16<<10)
	runWorkload(t, e, 1000, 912)
	e.Crash()
	var a, b bytes.Buffer
	if err := e.SaveNonVolatile(&a); err != nil {
		t.Fatal(err)
	}
	if err := e.SaveNonVolatile(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two saves of the same state differ")
	}
}
