// Package counter implements the 64-byte security-metadata block
// shared by SGX integrity tree (SIT) nodes and counter-mode-encryption
// counter blocks.
//
// Per the paper (and Vault), every metadata block has the same layout:
//
//	8 × 56-bit counters  (56 bytes)  +  64-bit MAC field  (8 bytes)
//
// The 64-bit MAC field holds a 54-bit truncated MAC plus, under STAR's
// counter-MAC synergization, the 10 least-significant bits of the
// corresponding counter in the block's parent node. Packing and
// unpacking of that field is centralized here so every scheme agrees
// on the bit layout.
package counter

import (
	"encoding/binary"
	"fmt"

	"nvmstar/internal/memline"
	"nvmstar/internal/simcrypto"
)

// Arity is the fan-out of the integrity tree: one metadata block holds
// counters for 8 children (8 user-data lines for a counter block, 8
// lower-level nodes for a SIT node).
const Arity = 8

// CounterBits is the width of each of the 8 counters.
const CounterBits = 56

// CounterMask selects a 56-bit counter value.
const CounterMask = (uint64(1) << CounterBits) - 1

// counterBytes is the encoded width of one counter (7 bytes).
const counterBytes = CounterBits / 8

// macOffset is the byte offset of the MAC field within the line.
const macOffset = Arity * counterBytes // 56

// Node is a decoded security-metadata block. The zero value is the
// initial state of every metadata block: all counters zero.
type Node struct {
	// Counters holds the 8 per-child write counters (56-bit each).
	Counters [Arity]uint64
	// MACField is the raw 64-bit MAC field: a 54-bit MAC in the low
	// bits and a 10-bit parent-counter-LSB slot in the high bits.
	MACField uint64
}

// Encode serializes the node into its 64-byte line representation.
// Counters are stored little-endian in 7 bytes each, followed by the
// 8-byte MAC field. Each counter goes out as one 8-byte store; its
// zero top byte lands on the next counter's first byte (or the MAC
// field's), which the next, ascending store overwrites.
func (n *Node) Encode() memline.Line {
	var l memline.Line
	for i, c := range n.Counters {
		if c&^CounterMask != 0 {
			panic(fmt.Sprintf("counter: counter %d overflows 56 bits: %#x", i, c))
		}
		binary.LittleEndian.PutUint64(l[i*counterBytes:], c)
	}
	binary.LittleEndian.PutUint64(l[macOffset:], n.MACField)
	return l
}

// Decode parses a 64-byte line into a Node: one 8-byte load per
// counter, masked to the counter's 7 bytes.
func Decode(l memline.Line) Node {
	var n Node
	for i := range n.Counters {
		n.Counters[i] = binary.LittleEndian.Uint64(l[i*counterBytes:]) & CounterMask
	}
	n.MACField = binary.LittleEndian.Uint64(l[macOffset:])
	return n
}

// PackMACField combines a MAC (truncated to 54 bits) and a 10-bit LSB
// value into the 64-bit MAC field used by STAR.
func PackMACField(mac54, lsb10 uint64) uint64 {
	return (mac54 & simcrypto.MAC54Mask) | (lsb10&simcrypto.LSBMask)<<54
}

// MAC54 extracts the 54-bit MAC from a MAC field.
func MAC54(field uint64) uint64 { return field & simcrypto.MAC54Mask }

// LSB10 extracts the 10-bit parent-counter LSB slot from a MAC field.
func LSB10(field uint64) uint64 { return field >> 54 }

// CombineLSB restores a counter from its stale (possibly out-of-date)
// value in NVM and the fresh 10 LSBs persisted in the child's MAC
// field. The caller guarantees (via the forced MSB flush when a
// counter is incremented 2^10 times without its block being written
// back) that the true value is within 2^10 increments of the stale
// value, which makes the reconstruction unambiguous:
//
//	true = (stale with low 10 bits replaced by lsb10),
//	        +1024 if that went backwards.
func CombineLSB(stale, lsb10 uint64) uint64 {
	restored := (stale &^ simcrypto.LSBMask) | (lsb10 & simcrypto.LSBMask)
	if restored < stale {
		restored += simcrypto.LSBMask + 1
	}
	return restored & CounterMask
}

// Increment returns c+1 wrapped to 56 bits. The paper argues 56-bit
// counters never overflow within an NVM's lifetime; wrapping keeps the
// arithmetic total anyway.
func Increment(c uint64) uint64 { return (c + 1) & CounterMask }
