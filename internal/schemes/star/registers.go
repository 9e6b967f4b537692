package star

import (
	"encoding/binary"
	"io"

	"nvmstar/internal/adr"
)

// SaveRegisters implements secmem.RegisterPersister: STAR's on-chip
// non-volatile state is the cache-tree root and the L3 index line.
// Valid only after a crash (the registers are frozen then).
func (s *Scheme) SaveRegisters(w io.Writer) error {
	if err := binary.Write(w, binary.LittleEndian, s.CacheTreeRoot()); err != nil {
		return err
	}
	l3 := s.tracker.L3Register()
	return binary.Write(w, binary.LittleEndian, l3)
}

// RestoreRegisters implements secmem.RegisterPersister. The scheme is
// left in the crashed state; call the engine's Recover next.
func (s *Scheme) RestoreRegisters(r io.Reader) error {
	if err := binary.Read(r, binary.LittleEndian, &s.treeRoot); err != nil {
		return err
	}
	var l3 adr.Words
	if err := binary.Read(r, binary.LittleEndian, &l3); err != nil {
		return err
	}
	s.tracker.SetL3Register(l3)
	s.crashed = true
	return nil
}
