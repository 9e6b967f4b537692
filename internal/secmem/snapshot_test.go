package secmem_test

import (
	"bytes"
	"encoding/binary"
	"strconv"
	"strings"
	"testing"

	"nvmstar/internal/adr"
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

// TestRefusedImageChangesNothing: an image RestoreNonVolatile refuses
// leaves the engine as it was. A star engine that wrote line 128 and
// crashed is offered a two-line image carrying a wear record, a crashed
// star image cut inside each of its sections, and that image with a
// data MAC named past the data space; after each refusal its
// SaveNonVolatile bytes equal those before the call.
func TestRefusedImageChangesNothing(t *testing.T) {
	const dataBytes, cacheBytes = 1 << 20, 16 << 10
	src := newEngine(t, "star", dataBytes, cacheBytes)
	runWorkload(t, src, 300, 913)
	src.Crash()
	img := saved(t, src)

	// The sections of a star image, in order: engine magic, scheme
	// name (length byte and "star"), device (magic, capacity, line
	// count, line records, wear count), data-MAC count and records,
	// root line, tree-root and L3 registers.
	recs := 8 + 1 + len("star") + 8 + 16
	macs := recs + src.Device().LinesWritten()*(8+memline.Size) + 8 + 8
	regs := len(img) - 8 - binary.Size(adr.Words{})
	root := regs - memline.Size
	badMAC := bytes.Clone(img)
	binary.LittleEndian.PutUint64(badMAC[macs:], 1<<40)

	for _, tc := range []struct {
		name string
		img  []byte
	}{
		{"two lines and a wear record", wearRecordImage(src.Geometry().TotalBytes(), 0, 640)},
		{"cut in a line record", img[:recs+100]},
		{"cut in a data-MAC record", img[:macs+20]},
		{"cut in the root", img[:root+30]},
		{"cut in the tree-root register", img[:regs+3]},
		{"cut in the L3 register", img[:len(img)-5]},
		{"data MAC past the data space", badMAC},
	} {
		e := newEngine(t, "star", dataBytes, cacheBytes)
		if err := e.WriteLine(128, memline.Line{0xab}); err != nil {
			t.Fatal(err)
		}
		e.Crash()
		before := saved(t, e)
		if err := e.RestoreNonVolatile(bytes.NewReader(tc.img)); err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !bytes.Equal(saved(t, e), before) {
			t.Errorf("%s: the refused image changed the engine", tc.name)
		}
	}
}

// TestImageNamesItsScheme: an image saved under one scheme is refused
// by an engine of any other, with an error naming both, and the refusal
// changes nothing. Without the name, wb and strict would leave star's
// registers unread and anubis and phoenix would fail recovery with a
// root mismatch that reads as an attack.
func TestImageNamesItsScheme(t *testing.T) {
	const dataBytes, cacheBytes = 1 << 20, 16 << 10
	src := newEngine(t, "star", dataBytes, cacheBytes)
	runWorkload(t, src, 300, 914)
	src.Crash()
	img := saved(t, src)
	for _, scheme := range []string{"wb", "strict", "anubis", "phoenix"} {
		e := newEngine(t, scheme, dataBytes, cacheBytes)
		runWorkload(t, e, 100, 915)
		e.Crash()
		before := saved(t, e)
		err := e.RestoreNonVolatile(bytes.NewReader(img))
		if err == nil || !strings.Contains(err.Error(), `"star"`) || !strings.Contains(err.Error(), strconv.Quote(scheme)) {
			t.Errorf("%s: restoring a star image returned %v, want an error naming both schemes", scheme, err)
		}
		if !bytes.Equal(saved(t, e), before) {
			t.Errorf("%s: the refused star image changed the engine", scheme)
		}
	}
}

// TestUntaggedImageRestores: an image in the format that names no
// scheme (magic NVMSECM1, no name) still restores and recovers.
func TestUntaggedImageRestores(t *testing.T) {
	const dataBytes, cacheBytes = 1 << 20, 16 << 10
	src := newEngine(t, "star", dataBytes, cacheBytes)
	expect := runWorkload(t, src, 1000, 916)
	src.Crash()
	img := saved(t, src)
	tagged := "NVMSECM2\x04star"
	if !bytes.HasPrefix(img, []byte(tagged)) {
		t.Fatalf("image starts %q, want %q", img[:len(tagged)], tagged)
	}
	untagged := append([]byte("NVMSECM1"), img[len(tagged):]...)
	e := newEngine(t, "star", dataBytes, cacheBytes)
	if err := e.RestoreNonVolatile(bytes.NewReader(untagged)); err != nil {
		t.Fatal(err)
	}
	if rep, err := e.Recover(); err != nil || !rep.Verified {
		t.Fatalf("recovery after an untagged restore: %+v, %v", rep, err)
	}
	verifyAll(t, e, expect)
}
