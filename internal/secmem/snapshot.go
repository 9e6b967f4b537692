package secmem

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"nvmstar/internal/counter"
	"nvmstar/internal/memline"
)

// RegisterPersister is implemented by schemes whose on-chip
// non-volatile registers (merkle roots, index lines) must survive a
// process restart alongside the NVM image.
type RegisterPersister interface {
	SaveRegisters(w io.Writer) error
	RestoreRegisters(r io.Reader) error
}

const engineSnapshotMagic = "NVMSECM1"

// SaveNonVolatile serializes everything that survives a power failure:
// the NVM image, the sideband data MACs (the 9th chip), the on-chip
// SIT root register and the scheme's registers. Call Crash first — a
// real power failure flushes ADR by battery and freezes the registers;
// Crash models exactly that, and SaveNonVolatile refuses to guess at
// volatile state.
//
// The counterpart process must rebuild an Engine with an identical
// configuration (including the crypto suite key) before calling
// RestoreNonVolatile and then Recover.
func (e *Engine) SaveNonVolatile(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(engineSnapshotMagic); err != nil {
		return err
	}
	if err := e.dev.Save(bw); err != nil {
		return err
	}
	// Sideband MACs; Range iterates ascending, keeping images
	// deterministic. The record format stays byte addresses.
	if err := binary.Write(bw, binary.LittleEndian, uint64(e.dataMAC.Len())); err != nil {
		return err
	}
	var werr error
	e.dataMAC.Range(func(idx uint64, mac uint64) {
		if werr != nil {
			return
		}
		if werr = binary.Write(bw, binary.LittleEndian, idx*memline.Size); werr != nil {
			return
		}
		werr = binary.Write(bw, binary.LittleEndian, mac)
	})
	if werr != nil {
		return werr
	}
	// On-chip root register.
	rootLine := e.root.Encode()
	if _, err := bw.Write(rootLine[:]); err != nil {
		return err
	}
	// Scheme registers, when the scheme has any.
	if rp, ok := e.scheme.(RegisterPersister); ok {
		if err := rp.SaveRegisters(bw); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// RestoreNonVolatile loads a snapshot produced by SaveNonVolatile.
// The engine behaves as if it had just crashed: call Recover next.
func (e *Engine) RestoreNonVolatile(r io.Reader) error {
	br := bufio.NewReader(r)
	magic := make([]byte, len(engineSnapshotMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return err
	}
	if string(magic) != engineSnapshotMagic {
		return fmt.Errorf("secmem: not an engine snapshot (magic %q)", magic)
	}
	if err := e.dev.Restore(br); err != nil {
		return err
	}
	var n uint64
	if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
		return err
	}
	e.dataMAC.Clear()
	for i := uint64(0); i < n; i++ {
		var a, m uint64
		if err := binary.Read(br, binary.LittleEndian, &a); err != nil {
			return err
		}
		if err := binary.Read(br, binary.LittleEndian, &m); err != nil {
			return err
		}
		if a%memline.Size != 0 || a/memline.Size >= e.dataMAC.Slots() {
			return fmt.Errorf("secmem: snapshot contains invalid data-MAC address %#x", a)
		}
		e.dataMAC.Set(a/memline.Size, m)
	}
	var rootLine memline.Line
	if _, err := io.ReadFull(br, rootLine[:]); err != nil {
		return err
	}
	e.root = counter.Decode(rootLine)
	if rp, ok := e.scheme.(RegisterPersister); ok {
		if err := rp.RestoreRegisters(br); err != nil {
			return err
		}
	}
	// Volatile state is empty in a fresh process; make that explicit.
	e.meta.DropAll()
	e.dropAux()
	e.pendingForced = nil
	e.clearDirtySets()
	return nil
}
