package ctr

import "fmt"

// This file keeps the original bit-at-a-time codec as the executable
// specification of the counter-block layout. The production PackInto and
// UnpackInto in ctr.go are word-wise rewrites of exactly this encoding; the
// differential fuzz target (FuzzCodecDifferential) and the codec benchmarks
// hold the two implementations bit-exact against each other.

// packBitwise serialises the block with the reference per-bit encoder.
func packBitwise(b *Block) ([BlockBytes]byte, error) {
	var raw [BlockBytes]byte
	if err := b.Validate(); err != nil {
		return raw, err
	}
	switch b.Format {
	case Classic:
		setBits(&raw, 0, 64, b.Major)
		for i := 0; i < LinesPerPage; i++ {
			setBits(&raw, 64+uint(i)*7, 7, uint64(b.Minor[i]))
		}
	case Resized:
		if b.CoW {
			setBits(&raw, 0, 1, 1)
		}
		setBits(&raw, 1, 63, b.Major)
		if b.CoW {
			for i := 0; i < LinesPerPage; i++ {
				setBits(&raw, 64+uint(i)*6, 6, uint64(b.Minor[i]))
			}
			setBits(&raw, 448, 64, b.Src)
		} else {
			for i := 0; i < LinesPerPage; i++ {
				setBits(&raw, 64+uint(i)*7, 7, uint64(b.Minor[i]))
			}
		}
	}
	return raw, nil
}

// unpackBitwise decodes a block with the reference per-bit decoder.
func unpackBitwise(raw [BlockBytes]byte, f Format) (Block, error) {
	b := Block{Format: f}
	switch f {
	case Classic:
		b.Major = getBits(&raw, 0, 64)
		for i := 0; i < LinesPerPage; i++ {
			b.Minor[i] = uint8(getBits(&raw, 64+uint(i)*7, 7))
		}
	case Resized:
		b.CoW = getBits(&raw, 0, 1) == 1
		b.Major = getBits(&raw, 1, 63)
		if b.CoW {
			for i := 0; i < LinesPerPage; i++ {
				b.Minor[i] = uint8(getBits(&raw, 64+uint(i)*6, 6))
			}
			b.Src = getBits(&raw, 448, 64)
		} else {
			for i := 0; i < LinesPerPage; i++ {
				b.Minor[i] = uint8(getBits(&raw, 64+uint(i)*7, 7))
			}
		}
	default:
		return b, fmt.Errorf("ctr: unknown format %v", f)
	}
	return b, nil
}

// getBits extracts n (<=64) bits starting at bit position pos (LSB-first
// within each byte) from the 64-byte block.
func getBits(raw *[BlockBytes]byte, pos, n uint) uint64 {
	var v uint64
	for i := uint(0); i < n; i++ {
		bit := pos + i
		if raw[bit>>3]&(1<<(bit&7)) != 0 {
			v |= 1 << i
		}
	}
	return v
}

// setBits stores the low n bits of v at bit position pos.
func setBits(raw *[BlockBytes]byte, pos, n uint, v uint64) {
	for i := uint(0); i < n; i++ {
		bit := pos + i
		if v&(1<<i) != 0 {
			raw[bit>>3] |= 1 << (bit & 7)
		} else {
			raw[bit>>3] &^= 1 << (bit & 7)
		}
	}
}
