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
// process restart alongside the NVM image. RestoreRegisters installs
// the registers only after it has read all of them: on an error it
// changes nothing.
type RegisterPersister interface {
	SaveRegisters(w io.Writer) error
	RestoreRegisters(r io.Reader) error
}

// An engine image starts with engineSnapshotMagic and the saving
// scheme's name, one length byte and the name's bytes. An image that
// starts with untaggedSnapshotMagic names no scheme; it is the format
// before the name was added, and restores into any scheme.
const (
	engineSnapshotMagic   = "NVMSECM2"
	untaggedSnapshotMagic = "NVMSECM1"
)

// SaveNonVolatile serializes everything that survives a power failure:
// the NVM image, the sideband data MACs (the 9th chip), the on-chip
// SIT root register and the scheme's registers, under the scheme's
// name. Call Crash first — a real power failure flushes ADR by battery
// and freezes the registers; Crash models exactly that, and
// SaveNonVolatile refuses to guess at volatile state.
//
// The counterpart process must rebuild an Engine with an identical
// configuration (including the crypto suite key and the scheme) before
// calling RestoreNonVolatile and then Recover.
func (e *Engine) SaveNonVolatile(w io.Writer) error {
	name := e.scheme.Name()
	bw := bufio.NewWriter(w)
	bw.WriteString(engineSnapshotMagic)
	bw.WriteByte(byte(len(name))) // scheme names are a few bytes long
	if _, err := bw.WriteString(name); err != nil {
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
// The engine behaves as if it had just crashed: call Recover next. It
// refuses an image saved under another scheme, and it reads and
// validates the whole image before it installs any of it, so an image
// it refuses leaves the engine as it was.
func (e *Engine) RestoreNonVolatile(r io.Reader) error {
	br := bufio.NewReader(r)
	magic := make([]byte, len(engineSnapshotMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return err
	}
	switch string(magic) {
	case engineSnapshotMagic:
		n, err := br.ReadByte()
		if err != nil {
			return err
		}
		name := make([]byte, n)
		if _, err := io.ReadFull(br, name); err != nil {
			return err
		}
		if want := e.scheme.Name(); string(name) != want {
			return fmt.Errorf("secmem: image was saved under scheme %q, this engine runs %q", name, want)
		}
	case untaggedSnapshotMagic:
	default:
		return fmt.Errorf("secmem: not an engine snapshot (magic %q)", magic)
	}
	commitDev, err := e.dev.PrepareRestore(br)
	if err != nil {
		return err
	}
	var n uint64
	if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
		return err
	}
	var macs [][2]uint64 // line index, MAC
	for i := uint64(0); i < n; i++ {
		var rec [2]uint64 // byte address, MAC
		if err := binary.Read(br, binary.LittleEndian, &rec); err != nil {
			return err
		}
		if a := rec[0]; a%memline.Size != 0 || a/memline.Size >= e.dataMAC.Slots() {
			return fmt.Errorf("secmem: snapshot contains invalid data-MAC address %#x", a)
		}
		macs = append(macs, [2]uint64{rec[0] / memline.Size, rec[1]})
	}
	var rootLine memline.Line
	if _, err := io.ReadFull(br, rootLine[:]); err != nil {
		return err
	}
	// The scheme's registers come last, and RestoreRegisters installs
	// them only when it has read them all, so once it succeeds nothing
	// can refuse the image.
	if rp, ok := e.scheme.(RegisterPersister); ok {
		if err := rp.RestoreRegisters(br); err != nil {
			return err
		}
	}
	commitDev()
	e.dataMAC.Clear()
	for _, m := range macs {
		e.dataMAC.Set(m[0], m[1])
	}
	e.root = counter.Decode(rootLine)
	// Volatile state is empty in a fresh process; make that explicit.
	e.meta.DropAll()
	e.pendingForced = nil
	e.clearDirtySets()
	return nil
}
