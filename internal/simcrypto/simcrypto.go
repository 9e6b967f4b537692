// Package simcrypto provides the cryptographic primitives used by the
// secure-memory simulator: one-time-pad (OTP) generation for counter
// mode encryption and keyed MACs for user data, SIT nodes and the
// cache-tree.
//
// Two interchangeable suites are provided:
//
//   - Real: AES-128-based OTPs (crypto/aes) and SHA-256-based keyed
//     MACs. Use this when the test exercises the actual cryptographic
//     data path (e.g. round-trip encryption correctness).
//   - Fast: a keyed 64-bit mixing PRF. It preserves every structural
//     property the simulator relies on (determinism, key dependence,
//     input sensitivity) at a fraction of the cost, and is the default
//     for large benchmark runs.
//
// The paper's security parameters are preserved bit-exactly at the
// layout level: MACs stored in metadata are truncated to 54 bits,
// leaving 10 bits of the 64-bit MAC field free for STAR's counter-MAC
// synergization (Morphable Counters shows 54-bit MACs remain safe).
package simcrypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"sync"

	"nvmstar/internal/memline"
)

// MAC54Mask selects the 54 MAC bits of a 64-bit MAC field.
const MAC54Mask = (uint64(1) << 54) - 1

// LSBBits is the number of spare bits in the 64-bit MAC field that
// STAR reuses to store the LSBs of the parent counter.
const LSBBits = 10

// LSBMask selects a 10-bit LSB value.
const LSBMask = (uint64(1) << LSBBits) - 1

// Suite is the set of primitives the secure-memory engine needs.
//
// All methods must be deterministic for a fixed key: the recovery path
// recomputes MACs produced before a crash and compares them bit for bit.
// Implementations must be safe for concurrent use.
type Suite interface {
	// OTP returns the 64-byte one-time pad for (lineAddr, counter).
	// Counter-mode encryption XORs a plaintext line with the pad; the
	// pad is never reused because each write increments the counter.
	OTP(lineAddr, counter uint64) memline.Line

	// MAC returns a 64-bit keyed MAC over msg. Callers truncate to 54
	// bits where the layout requires it. The signature takes a single
	// slice (callers concatenate fields themselves, typically into a
	// reused buffer): a variadic parameter would allocate a [][]byte
	// header on every call through the interface, and MAC sits on the
	// simulator's per-access hot path.
	MAC(msg []byte) uint64
}

// XORLine XORs src with pad into a new line. It is the shared
// encrypt/decrypt operation of counter-mode encryption.
func XORLine(src, pad memline.Line) memline.Line {
	var out memline.Line
	for i := range src {
		out[i] = src[i] ^ pad[i]
	}
	return out
}

// MACInput is a convenience builder for MAC inputs made of uint64
// fields and byte slices, avoiding per-call allocation churn at call
// sites that mix the two.
type MACInput struct {
	buf []byte
}

// U64 appends a little-endian uint64 to the input.
func (m *MACInput) U64(v uint64) *MACInput {
	m.buf = binary.LittleEndian.AppendUint64(m.buf, v)
	return m
}

// Bytes appends raw bytes to the input.
func (m *MACInput) Bytes(b []byte) *MACInput {
	m.buf = append(m.buf, b...)
	return m
}

// Sum computes the MAC of the accumulated input under the suite.
func (m *MACInput) Sum(s Suite) uint64 { return s.MAC(m.buf) }

// --- Real suite -------------------------------------------------------

type realSuite struct {
	block  cipher.Block
	macKey [32]byte
}

// NewReal returns a Suite backed by AES-128 OTPs and SHA-256 keyed
// MACs. The 16-byte key seeds both primitives.
func NewReal(key [16]byte) Suite {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		// aes.NewCipher only fails on invalid key sizes; [16]byte is
		// always valid, so this is unreachable.
		panic("simcrypto: " + err.Error())
	}
	s := &realSuite{block: block}
	s.macKey = sha256.Sum256(append([]byte("nvmstar-mac"), key[:]...))
	return s
}

// otpScratch is OTP's pad and input block. Both pass through the
// cipher.Block interface, so as locals they would escape to the heap on
// every call; otpScratches recycles them instead, which keeps the
// suite free of per-call allocation and safe for concurrent use.
type otpScratch struct {
	pad memline.Line
	in  [16]byte
}

var otpScratches = sync.Pool{New: func() any { return new(otpScratch) }}

func (s *realSuite) OTP(lineAddr, counter uint64) memline.Line {
	// Four AES blocks form the 64-byte pad. The per-block tweak makes
	// the blocks distinct; (addr, counter) uniqueness is guaranteed by
	// the counter-mode invariant.
	b := otpScratches.Get().(*otpScratch)
	binary.LittleEndian.PutUint64(b.in[0:8], lineAddr)
	for blk := 0; blk < 4; blk++ {
		binary.LittleEndian.PutUint64(b.in[8:16], counter<<2|uint64(blk))
		s.block.Encrypt(b.pad[blk*16:(blk+1)*16], b.in[:])
	}
	pad := b.pad
	otpScratches.Put(b)
	return pad
}

// MAC is SHA-256(macKey || msg) truncated to its first 8 bytes. A
// fresh digest per call keeps the suite stateless (hence safe for
// concurrent use) and, with the digest and sum buffer both on the
// stack, allocation-free.
func (s *realSuite) MAC(msg []byte) uint64 {
	h := sha256.New()
	h.Write(s.macKey[:])
	h.Write(msg)
	var sum [sha256.Size]byte
	return binary.LittleEndian.Uint64(h.Sum(sum[:0])[:8])
}

// --- Fast suite -------------------------------------------------------

type fastSuite struct {
	k0, k1 uint64
}

// NewFast returns a Suite backed by a keyed 64-bit mixing PRF
// (splitmix64-style finalizers). It is NOT cryptographically secure;
// it exists so multi-million-access simulations remain fast while the
// MAC/OTP structure stays byte-compatible with the real suite.
func NewFast(seed uint64) Suite {
	return &fastSuite{k0: mix64(seed ^ 0x9e3779b97f4a7c15), k1: mix64(seed ^ 0xbf58476d1ce4e5b9)}
}

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (s *fastSuite) OTP(lineAddr, counter uint64) memline.Line {
	var pad memline.Line
	state := mix64(s.k0 ^ lineAddr ^ mix64(s.k1^counter))
	for i := 0; i < memline.Size; i += 8 {
		state = mix64(state + 0x9e3779b97f4a7c15)
		binary.LittleEndian.PutUint64(pad[i:i+8], state)
	}
	return pad
}

func (s *fastSuite) MAC(msg []byte) uint64 {
	h := s.k0
	for len(msg) >= 8 {
		h = mix64(h ^ binary.LittleEndian.Uint64(msg))
		msg = msg[8:]
	}
	if fill := len(msg); fill > 0 {
		var chunk [8]byte
		copy(chunk[:], msg)
		for i := fill; i < 8; i++ {
			chunk[i] = byte(fill)
		}
		h = mix64(h ^ binary.LittleEndian.Uint64(chunk[:]))
	}
	return mix64(h ^ s.k1)
}
