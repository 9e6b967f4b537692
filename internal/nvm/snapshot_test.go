package nvm

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"nvmstar/internal/memline"
)

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
	if err := fresh.Restore(&buf); err != nil {
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

func TestSnapshotPreservesWear(t *testing.T) {
	d := newDev(t, 1<<16)
	for i := 0; i < 5; i++ {
		d.Write(64, memline.Line{})
	}
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	fresh := newDev(t, 1<<16)
	if err := fresh.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	if w := fresh.Wear(64); w != 5 {
		t.Fatalf("restored wear = %d, want 5", w)
	}
}

func TestSnapshotEmptyDevice(t *testing.T) {
	d := newDev(t, 1<<16)
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	fresh := newDev(t, 1<<16)
	if err := fresh.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	if fresh.LinesWritten() != 0 {
		t.Fatal("empty snapshot restored lines")
	}
}

func TestRestoreRejectsBadMagic(t *testing.T) {
	d := newDev(t, 1<<16)
	if err := d.Restore(strings.NewReader("BOGUS123 and then some")); err == nil {
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
	if err := other.Restore(&buf); err == nil {
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
		fresh := newDev(t, 1<<16)
		if err := fresh.Restore(bytes.NewReader(buf.Bytes()[:cut])); err == nil {
			t.Fatalf("truncated snapshot (%d bytes) accepted", cut)
		}
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

// image builds a snapshot by hand: line records at lineAddrs (zero
// contents) and one wear record per wearAddrs entry.
func image(capacity uint64, lineAddrs, wearAddrs []uint64) []byte {
	var buf bytes.Buffer
	u64 := func(v uint64) { _ = binary.Write(&buf, binary.LittleEndian, v) }
	buf.WriteString(snapshotMagic)
	u64(capacity)
	u64(uint64(len(lineAddrs)))
	for _, a := range lineAddrs {
		u64(a)
		buf.Write(make([]byte, memline.Size))
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
// never a panic — for wear records as well as line records.
func TestRestoreRejectsOutOfRangeRecords(t *testing.T) {
	const capacity = 1 << 20
	cases := map[string][]byte{
		"wear past capacity": image(capacity, nil, []uint64{1 << 40}),
		"wear misaligned":    image(capacity, nil, []uint64{3}),
		"wear wraps":         image(capacity, nil, []uint64{^uint64(memline.Size - 1)}),
		"line past capacity": image(capacity, []uint64{capacity}, nil),
		"line wraps":         image(capacity, []uint64{^uint64(memline.Size - 1)}, nil),
	}
	for name, img := range cases {
		d := newDev(t, capacity) // TrackWear on
		if err := d.Restore(bytes.NewReader(img)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := newDev(t, capacity).Restore(bytes.NewReader(image(capacity, []uint64{0}, []uint64{capacity - memline.Size}))); err != nil {
		t.Fatalf("in-range records rejected: %v", err)
	}
}
