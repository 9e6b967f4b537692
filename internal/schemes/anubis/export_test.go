package anubis

import "nvmstar/internal/memline"

// Test hooks for the shadow-table entry codec and counter combine.
var (
	DecodeEntry = decodeEntry
	Combine48   = combine48
)

const LSB48Mask = lsb48Mask

func (e Entry) Encode() memline.Line { return e.encode() }
