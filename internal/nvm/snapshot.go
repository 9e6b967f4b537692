package nvm

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"nvmstar/internal/memline"
)

// Snapshot format: a simple tagged binary stream. The device is
// non-volatile — persisting its contents to a host file lets a
// simulated machine power off with the process and recover in a fresh
// one.
const snapshotMagic = "NVMSTAR1"

// Save serializes the device's line store to w.
func (d *Device) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(snapshotMagic); err != nil {
		return err
	}
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:8], d.cfg.CapacityBytes)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(d.store.linesWritten()))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	// rangeLines iterates in ascending address order, keeping images
	// deterministic.
	var werr error
	d.store.rangeLines(func(addr uint64, l memline.Line) {
		if werr != nil {
			return
		}
		var rec [8 + memline.Size]byte
		binary.LittleEndian.PutUint64(rec[0:8], addr)
		copy(rec[8:], l[:])
		_, werr = bw.Write(rec[:])
	})
	if werr != nil {
		return werr
	}
	// The format once followed the line records with per-line wear
	// records. Their 8-byte count stays, always zero, so the images
	// written before wear left the device still restore.
	var wc [8]byte
	if _, err := bw.Write(wc[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// PrepareRestore reads and validates a snapshot produced by Save
// without changing the device: the snapshot's capacity must match the
// device's, every line record must name a line of it, and it must
// carry no wear records. The returned commit replaces the device's
// contents with the snapshot's lines. A caller restoring a larger
// image validates the rest of it before it calls commit, so a refused
// image changes nothing.
func (d *Device) PrepareRestore(r io.Reader) (commit func(), err error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("nvm: reading snapshot magic: %w", err)
	}
	if string(magic) != snapshotMagic {
		return nil, fmt.Errorf("nvm: not a snapshot (magic %q)", magic)
	}
	var hdr [16]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, err
	}
	capacity := binary.LittleEndian.Uint64(hdr[0:8])
	if capacity != d.cfg.CapacityBytes {
		return nil, fmt.Errorf("nvm: snapshot capacity %d does not match device %d", capacity, d.cfg.CapacityBytes)
	}
	count := binary.LittleEndian.Uint64(hdr[8:16])
	// The count is not trusted to size anything: the records grow as
	// they are read.
	type record struct {
		addr uint64
		line memline.Line
	}
	var recs []record
	for i := uint64(0); i < count; i++ {
		var rec [8 + memline.Size]byte
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, fmt.Errorf("nvm: truncated snapshot at line %d: %w", i, err)
		}
		addr := binary.LittleEndian.Uint64(rec[0:8])
		if !validLine(addr, capacity) {
			return nil, fmt.Errorf("nvm: snapshot contains invalid address %#x", addr)
		}
		recs = append(recs, record{addr: addr, line: memline.Line(rec[8:])})
	}
	var wc [8]byte
	if _, err := io.ReadFull(br, wc[:]); err != nil {
		return nil, err
	}
	if n := binary.LittleEndian.Uint64(wc[:]); n != 0 {
		return nil, fmt.Errorf("nvm: snapshot carries %d wear records; the device keeps no wear", n)
	}
	return func() {
		d.store.reset()
		for _, rec := range recs {
			d.store.store(rec.addr, rec.line)
		}
	}, nil
}

// validLine reports whether a snapshot record's address names a line of
// a device of the given capacity (a multiple of the line size). It
// compares addr itself, not addr+Size, so no address wraps past the
// check.
func validLine(addr, capacity uint64) bool {
	return addr%memline.Size == 0 && addr < capacity
}
