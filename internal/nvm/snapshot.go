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
// one (see examples/restart).
const snapshotMagic = "NVMSTAR1"

// Save serializes the device's line store (and wear counters when
// tracked) to w.
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
	wearCount := uint64(0)
	if d.cfg.TrackWear {
		wearCount = uint64(d.store.wearCount())
	}
	var wc [8]byte
	binary.LittleEndian.PutUint64(wc[:], wearCount)
	if _, err := bw.Write(wc[:]); err != nil {
		return err
	}
	if d.cfg.TrackWear {
		d.store.rangeWear(func(addr, writes uint64) {
			if werr != nil {
				return
			}
			var rec [16]byte
			binary.LittleEndian.PutUint64(rec[0:8], addr)
			binary.LittleEndian.PutUint64(rec[8:16], writes)
			_, werr = bw.Write(rec[:])
		})
		if werr != nil {
			return werr
		}
	}
	return bw.Flush()
}

// Restore loads a snapshot produced by Save into the device, replacing
// its contents. The snapshot's capacity must match the device's.
func (d *Device) Restore(r io.Reader) error {
	br := bufio.NewReader(r)
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return fmt.Errorf("nvm: reading snapshot magic: %w", err)
	}
	if string(magic) != snapshotMagic {
		return fmt.Errorf("nvm: not a snapshot (magic %q)", magic)
	}
	var hdr [16]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return err
	}
	capacity := binary.LittleEndian.Uint64(hdr[0:8])
	if capacity != d.cfg.CapacityBytes {
		return fmt.Errorf("nvm: snapshot capacity %d does not match device %d", capacity, d.cfg.CapacityBytes)
	}
	count := binary.LittleEndian.Uint64(hdr[8:16])
	d.store.reset()
	for i := uint64(0); i < count; i++ {
		var rec [8 + memline.Size]byte
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return fmt.Errorf("nvm: truncated snapshot at line %d: %w", i, err)
		}
		addr := binary.LittleEndian.Uint64(rec[0:8])
		if addr%memline.Size != 0 || addr+memline.Size > capacity {
			return fmt.Errorf("nvm: snapshot contains invalid address %#x", addr)
		}
		var l memline.Line
		copy(l[:], rec[8:])
		d.store.store(addr, l)
	}
	var wc [8]byte
	if _, err := io.ReadFull(br, wc[:]); err != nil {
		return err
	}
	wearCount := binary.LittleEndian.Uint64(wc[:])
	for i := uint64(0); i < wearCount; i++ {
		var rec [16]byte
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return fmt.Errorf("nvm: truncated wear table: %w", err)
		}
		if d.cfg.TrackWear {
			d.store.setWear(binary.LittleEndian.Uint64(rec[0:8]), binary.LittleEndian.Uint64(rec[8:16]))
		}
	}
	return nil
}
