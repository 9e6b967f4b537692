// Package heap provides the persistent-memory programming substrate
// the benchmark workloads run on: a byte-addressable Memory interface
// (implemented by the full machine in internal/sim, or by a plain map
// for unit tests) and a simple persistent allocator with typed
// accessors.
//
// Every Load/Store through this interface becomes a simulated memory
// access; Persist models CLWB + SFENCE, the persistence primitive the
// WHISPER-style benchmarks are built around.
package heap

import (
	"encoding/binary"
	"fmt"

	"nvmstar/internal/memline"
)

// Memory is the byte-addressable (simulated) persistent memory.
// Implementations route accesses through the cache hierarchy and the
// secure-memory engine.
type Memory interface {
	// Load copies len(buf) bytes at addr into buf.
	Load(addr uint64, buf []byte)
	// Store writes data at addr.
	Store(addr uint64, data []byte)
	// Persist writes the cache lines covering [addr, addr+size) back
	// to memory (CLWB) and orders the write-back (SFENCE).
	Persist(addr uint64, size int)
	// Fence orders preceding persists (SFENCE).
	Fence()
}

// Heap is a bump-plus-free-list allocator over a Memory region. The
// allocator's own bookkeeping is host-side: the paper's workloads
// measure data accesses, and allocator metadata traffic would be an
// artifact of this harness rather than of the benchmark.
type Heap struct {
	mem   Memory
	base  uint64
	limit uint64
	brk   uint64
	free  map[int][]uint64 // size class -> free addresses
	// u64buf backs ReadU64/WriteU64. A local buffer would escape
	// through the Memory interface and allocate on every typed access —
	// the dominant allocation source across a full experiment sweep.
	// The heap is single-goroutine, like the machine under it, so one
	// scratch buffer is safe.
	u64buf [8]byte
}

// New creates a heap over [base, base+size).
func New(mem Memory, base, size uint64) (*Heap, error) {
	if size == 0 {
		return nil, fmt.Errorf("heap: empty region")
	}
	return &Heap{mem: mem, base: base, limit: base + size, brk: base, free: make(map[int][]uint64)}, nil
}

// Base returns the heap's base address.
func (h *Heap) Base() uint64 { return h.base }

// InUse returns the bytes currently reserved (high-water mark).
func (h *Heap) InUse() uint64 { return h.brk - h.base }

func sizeClass(size int) int {
	c := 16
	for c < size {
		c *= 2
	}
	return c
}

// Alloc reserves size bytes. Allocations of a cache line or more are
// line-aligned, so one object never straddles lines unnecessarily.
func (h *Heap) Alloc(size int) (uint64, error) {
	if size <= 0 {
		return 0, fmt.Errorf("heap: invalid size %d", size)
	}
	class := sizeClass(size)
	if list := h.free[class]; len(list) > 0 {
		addr := list[len(list)-1]
		h.free[class] = list[:len(list)-1]
		return addr, nil
	}
	addr := h.brk
	if class >= memline.Size {
		addr = (addr + memline.Size - 1) &^ (memline.Size - 1)
	} else {
		addr = (addr + uint64(class) - 1) &^ (uint64(class) - 1)
	}
	if addr+uint64(class) > h.limit {
		return 0, fmt.Errorf("heap: out of memory (%d in use of %d)", h.InUse(), h.limit-h.base)
	}
	h.brk = addr + uint64(class)
	return addr, nil
}

// Free returns an allocation of the given size to the free list.
func (h *Heap) Free(addr uint64, size int) {
	class := sizeClass(size)
	h.free[class] = append(h.free[class], addr)
}

// --- typed accessors ---------------------------------------------------

// ReadU64 loads a little-endian uint64.
func (h *Heap) ReadU64(addr uint64) uint64 {
	h.mem.Load(addr, h.u64buf[:])
	return binary.LittleEndian.Uint64(h.u64buf[:])
}

// WriteU64 stores a little-endian uint64.
func (h *Heap) WriteU64(addr, v uint64) {
	binary.LittleEndian.PutUint64(h.u64buf[:], v)
	h.mem.Store(addr, h.u64buf[:])
}

// ReadBytes loads n bytes.
func (h *Heap) ReadBytes(addr uint64, n int) []byte {
	buf := make([]byte, n)
	h.mem.Load(addr, buf)
	return buf
}

// WriteBytes stores data.
func (h *Heap) WriteBytes(addr uint64, data []byte) {
	h.mem.Store(addr, data)
}

// Persist forwards to the memory's Persist.
func (h *Heap) Persist(addr uint64, size int) { h.mem.Persist(addr, size) }

// Fence forwards to the memory's Fence.
func (h *Heap) Fence() { h.mem.Fence() }

// --- test memory ---------------------------------------------------------

// SimpleMemory is a host-map-backed Memory for unit-testing the data
// structures without a machine underneath. Persist and Fence are
// no-ops (everything is "durable" immediately).
type SimpleMemory struct {
	data map[uint64]byte
	// Loads/Stores/Persists count operations for pattern assertions.
	Loads, Stores, Persists uint64
}

// NewSimpleMemory returns an empty SimpleMemory.
func NewSimpleMemory() *SimpleMemory {
	return &SimpleMemory{data: make(map[uint64]byte)}
}

// Load implements Memory.
func (m *SimpleMemory) Load(addr uint64, buf []byte) {
	m.Loads++
	for i := range buf {
		buf[i] = m.data[addr+uint64(i)]
	}
}

// Store implements Memory.
func (m *SimpleMemory) Store(addr uint64, data []byte) {
	m.Stores++
	for i, b := range data {
		m.data[addr+uint64(i)] = b
	}
}

// Persist implements Memory.
func (m *SimpleMemory) Persist(addr uint64, size int) { m.Persists++ }

// Fence implements Memory.
func (m *SimpleMemory) Fence() {}
