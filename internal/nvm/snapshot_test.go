package nvm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
	"testing"

	"nvmstar/internal/memline"
)

// restore is PrepareRestore followed by its commit.
func restore(d *Device, r io.Reader) error {
	commit, err := d.PrepareRestore(r)
	if err == nil {
		commit()
	}
	return err
}

func TestSnapshotRoundTrip(t *testing.T) {
	d := newDev(t, 1<<20)
	for i := uint64(0); i < 100; i++ {
		var l memline.Line
		l[0], l[1] = byte(i), byte(i*3)
		d.Write(i*640%(1<<20), l)
	}
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	fresh := newDev(t, 1<<20)
	if err := restore(fresh, &buf); err != nil {
		t.Fatal(err)
	}
	if fresh.LinesWritten() != d.LinesWritten() {
		t.Fatalf("restored %d lines, saved %d", fresh.LinesWritten(), d.LinesWritten())
	}
	for i := uint64(0); i < 100; i++ {
		addr := i * 640 % (1 << 20)
		want, _ := d.Peek(addr)
		got, ok := fresh.Peek(addr)
		if !ok || got != want {
			t.Fatalf("line %#x mismatch after restore", addr)
		}
	}
}

func TestSnapshotEmptyDevice(t *testing.T) {
	d := newDev(t, 1<<16)
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	fresh := newDev(t, 1<<16)
	if err := restore(fresh, &buf); err != nil {
		t.Fatal(err)
	}
	if fresh.LinesWritten() != 0 {
		t.Fatal("empty snapshot restored lines")
	}
}

func TestRestoreRejectsBadMagic(t *testing.T) {
	d := newDev(t, 1<<16)
	if err := restore(d, strings.NewReader("BOGUS123 and then some")); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestRestoreRejectsCapacityMismatch(t *testing.T) {
	d := newDev(t, 1<<16)
	d.Write(0, memline.Line{1})
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	other := newDev(t, 1<<17)
	if err := restore(other, &buf); err == nil {
		t.Fatal("capacity mismatch accepted")
	}
}

func TestRestoreRejectsTruncated(t *testing.T) {
	d := newDev(t, 1<<16)
	for i := uint64(0); i < 10; i++ {
		d.Write(i*64, memline.Line{byte(i)})
	}
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{10, 20, buf.Len() / 2, buf.Len() - 3} {
		refuse(t, 1<<16, fmt.Sprintf("truncated snapshot (%d bytes)", cut), buf.Bytes()[:cut])
	}
}

// refuse restores img into a device that holds line 128 and fails t
// unless restore refuses it and leaves the device's image unchanged.
func refuse(t *testing.T, capacity uint64, name string, img []byte) {
	t.Helper()
	d := newDev(t, capacity)
	d.Write(128, memline.Line{0xab})
	var before, after bytes.Buffer
	if err := d.Save(&before); err != nil {
		t.Fatal(err)
	}
	if err := restore(d, bytes.NewReader(img)); err == nil {
		t.Errorf("%s: accepted", name)
		return
	}
	if err := d.Save(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after.Bytes(), before.Bytes()) {
		t.Errorf("%s: the refused snapshot changed the device", name)
	}
}

func TestSnapshotDeterministicBytes(t *testing.T) {
	d := newDev(t, 1<<16)
	// Insert in scrambled order; the image must still be canonical.
	for _, i := range []uint64{9, 2, 7, 1, 8} {
		d.Write(i*64, memline.Line{byte(i)})
	}
	var a, b bytes.Buffer
	if err := d.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := d.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("snapshot bytes not deterministic")
	}
}

// image builds a snapshot by hand in the layout Save has always
// written: line records at lineAddrs (record i's line is all i+1),
// then one wear record per wearAddrs entry.
func image(capacity uint64, lineAddrs, wearAddrs []uint64) []byte {
	var buf bytes.Buffer
	u64 := func(v uint64) { _ = binary.Write(&buf, binary.LittleEndian, v) }
	buf.WriteString(snapshotMagic)
	u64(capacity)
	u64(uint64(len(lineAddrs)))
	for i, a := range lineAddrs {
		u64(a)
		buf.Write(bytes.Repeat([]byte{byte(i + 1)}, memline.Size))
	}
	u64(uint64(len(wearAddrs)))
	for _, a := range wearAddrs {
		u64(a)
		u64(1)
	}
	return buf.Bytes()
}

// TestRestoreRejectsOutOfRangeRecords: a record addressing a line past
// capacity, misaligned, or so high that addr+64 wraps must be an error,
// never a panic — as must any wear record, which the device no longer
// keeps — and must leave the device as it was.
func TestRestoreRejectsOutOfRangeRecords(t *testing.T) {
	const capacity = 1 << 20
	cases := map[string][]byte{
		"wear past capacity": image(capacity, nil, []uint64{1 << 40}),
		"wear misaligned":    image(capacity, nil, []uint64{3}),
		"wear wraps":         image(capacity, nil, []uint64{^uint64(memline.Size - 1)}),
		"line past capacity": image(capacity, []uint64{capacity}, nil),
		"line wraps":         image(capacity, []uint64{^uint64(memline.Size - 1)}, nil),
		"two lines and wear": image(capacity, []uint64{0, 640}, []uint64{640}),
	}
	for name, img := range cases {
		refuse(t, capacity, name, img)
	}
	if err := restore(newDev(t, capacity), bytes.NewReader(image(capacity, []uint64{0, capacity - memline.Size}, nil))); err != nil {
		t.Fatalf("in-range records rejected: %v", err)
	}
}

// TestRestoreImageWithoutWear pins image compatibility: an image in the
// layout Save wrote while the device still kept wear, with a zero wear
// count, restores its lines and saves back byte-identical; one that
// carries wear records is an error, not a panic.
func TestRestoreImageWithoutWear(t *testing.T) {
	const capacity = 1 << 16
	addrs := []uint64{0, 640, capacity - memline.Size}
	img := image(capacity, addrs, nil)
	d := newDev(t, capacity)
	if err := restore(d, bytes.NewReader(img)); err != nil {
		t.Fatal(err)
	}
	if d.LinesWritten() != len(addrs) {
		t.Fatalf("restored %d lines, want %d", d.LinesWritten(), len(addrs))
	}
	for i, a := range addrs {
		if l, ok := d.Peek(a); !ok || !bytes.Equal(l[:], bytes.Repeat([]byte{byte(i + 1)}, memline.Size)) {
			t.Fatalf("line %#x = (%v, %v) after restore", a, l, ok)
		}
	}
	var again bytes.Buffer
	if err := d.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), img) {
		t.Fatal("re-saved image differs from the one restored")
	}
	if err := restore(newDev(t, capacity), bytes.NewReader(image(capacity, addrs, []uint64{640}))); err == nil {
		t.Fatal("image with a wear record accepted")
	}
}
