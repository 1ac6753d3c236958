// Package ctr implements the split-counter scheme used by secure NVM
// controllers, including the two counter-block layouts evaluated in the
// Lelantus paper (ISCA 2020):
//
//   - Classic (Yan et al. [36]): one 64-bit major counter shared by a 4 KB
//     page plus 64 seven-bit minor counters, one per 64 B cacheline. This is
//     the layout used by the Baseline, Silent Shredder and Lelantus-CoW
//     (supplementary metadata) configurations.
//   - Resized (Lelantus Solution 1, Fig. 4): one CoW flag bit, a 63-bit
//     major counter, and either 64 seven-bit minors (regular page) or 64
//     six-bit minors plus a 64-bit source-page address (CoW page).
//
// Both layouts pack into exactly one 64-byte counter block, and the
// pack/unpack round trip is bit-exact.
package ctr

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// BlockBytes is the size of a counter block in memory: one block covers one
// 4 KB page (64 cachelines of 64 B each).
const BlockBytes = 64

// LinesPerPage is the number of 64 B cachelines covered by one counter block.
const LinesPerPage = 64

// Format selects the counter-block memory layout.
type Format uint8

const (
	// Classic is the split-counter layout from Yan et al.: 64-bit major +
	// 64 x 7-bit minors. No CoW flag exists in the block; schemes that need
	// CoW information (Lelantus-CoW) keep it in supplementary metadata.
	Classic Format = iota
	// Resized is Lelantus Solution 1: a CoW flag and 63-bit major always
	// occupy the first 64 bits. When the flag is clear the remaining 448
	// bits hold 64 x 7-bit minors; when set they hold 64 x 6-bit minors
	// followed by a 64-bit source page number.
	Resized
)

func (f Format) String() string {
	switch f {
	case Classic:
		return "classic"
	case Resized:
		return "resized"
	}
	return fmt.Sprintf("Format(%d)", uint8(f))
}

// Minor-counter width limits per layout.
const (
	MinorMaxClassic = 127 // 7-bit
	MinorMaxCoW     = 63  // 6-bit (Resized format, CoW flag set)
	majorMaxResized = 1<<63 - 1
)

// Block is the decoded, in-controller view of one 64-byte counter block.
type Block struct {
	Format Format
	// CoW is the CoW_Flag (Resized format only). A set flag means the page
	// was logically copied and Src plus zero-valued minors describe which
	// lines have not been materialised yet.
	CoW   bool
	Major uint64
	Minor [LinesPerPage]uint8
	// Src is the physical page frame number of the source page (Resized
	// format, CoW flag set). It is not stored in Classic blocks.
	Src uint64
}

// MinorMax returns the largest value a minor counter may hold under the
// block's current layout.
func (b *Block) MinorMax() uint8 {
	if b.Format == Resized && b.CoW {
		return MinorMaxCoW
	}
	return MinorMaxClassic
}

// Validate checks that every field fits its bit width.
func (b *Block) Validate() error {
	switch b.Format {
	case Classic:
		if b.CoW {
			return errors.New("ctr: classic block cannot carry a CoW flag")
		}
	case Resized:
		if b.Major > majorMaxResized {
			return fmt.Errorf("ctr: major %d exceeds 63 bits", b.Major)
		}
	default:
		return fmt.Errorf("ctr: unknown format %v", b.Format)
	}
	maxMinor := b.MinorMax()
	for i, m := range b.Minor {
		if m > maxMinor {
			return fmt.Errorf("ctr: minor[%d]=%d exceeds max %d", i, m, maxMinor)
		}
	}
	return nil
}

// Pack serialises the block into its 64-byte memory image.
//
// The encoder is word-wise: the 64-bit head and source words go through
// encoding/binary, and the minor lanes are packed eight at a time — eight
// 7-bit minors form one 56-bit word in exactly seven bytes (eight 6-bit
// minors one 48-bit word in six bytes), so lane groups land on byte
// boundaries and never straddle each other. The bit layout is identical to
// the original per-bit codec (see packBitwise in bitwise_test.go, kept as
// the differential-fuzz reference).
func (b *Block) Pack() ([BlockBytes]byte, error) {
	var raw [BlockBytes]byte
	err := b.PackInto(&raw)
	return raw, err
}

// PackInto serialises the block directly into the caller's buffer. The
// persist path uses it with a stack buffer so packing a block moves no
// memory beyond the 64 target bytes.
func (b *Block) PackInto(raw *[BlockBytes]byte) error {
	if err := b.Validate(); err != nil {
		return err
	}
	switch b.Format {
	case Classic:
		binary.LittleEndian.PutUint64(raw[0:8], b.Major)
		packLanes7(raw[8:64], &b.Minor)
	case Resized:
		head := b.Major << 1
		if b.CoW {
			head |= 1
		}
		binary.LittleEndian.PutUint64(raw[0:8], head)
		if b.CoW {
			packLanes6(raw[8:56], &b.Minor)
			binary.LittleEndian.PutUint64(raw[56:64], b.Src)
		} else {
			packLanes7(raw[8:64], &b.Minor)
		}
	}
	return nil
}

// Unpack decodes a 64-byte counter block stored in the given format.
func Unpack(raw [BlockBytes]byte, f Format) (Block, error) {
	var b Block
	err := UnpackInto(&raw, f, &b)
	return b, err
}

// UnpackInto decodes into the caller's block, overwriting every field; the
// hot path passes a stack- or cache-resident block so decoding allocates
// and copies nothing.
func UnpackInto(raw *[BlockBytes]byte, f Format, b *Block) error {
	*b = Block{Format: f}
	switch f {
	case Classic:
		b.Major = binary.LittleEndian.Uint64(raw[0:8])
		unpackLanes7(raw[8:64], &b.Minor)
	case Resized:
		head := binary.LittleEndian.Uint64(raw[0:8])
		b.CoW = head&1 == 1
		b.Major = head >> 1
		if b.CoW {
			unpackLanes6(raw[8:56], &b.Minor)
			b.Src = binary.LittleEndian.Uint64(raw[56:64])
		} else {
			unpackLanes7(raw[8:64], &b.Minor)
		}
	default:
		return fmt.Errorf("ctr: unknown format %v", f)
	}
	return nil
}

// packLanes7 stores the 64 seven-bit minors into 56 bytes, one 56-bit
// little-endian group of eight minors per seven bytes.
func packLanes7(dst []byte, m *[LinesPerPage]uint8) {
	_ = dst[55]
	for g := 0; g < 8; g++ {
		v := uint64(m[8*g]) | uint64(m[8*g+1])<<7 | uint64(m[8*g+2])<<14 |
			uint64(m[8*g+3])<<21 | uint64(m[8*g+4])<<28 | uint64(m[8*g+5])<<35 |
			uint64(m[8*g+6])<<42 | uint64(m[8*g+7])<<49
		o := 7 * g
		dst[o] = byte(v)
		dst[o+1] = byte(v >> 8)
		dst[o+2] = byte(v >> 16)
		dst[o+3] = byte(v >> 24)
		dst[o+4] = byte(v >> 32)
		dst[o+5] = byte(v >> 40)
		dst[o+6] = byte(v >> 48)
	}
}

// unpackLanes7 is the inverse of packLanes7.
func unpackLanes7(src []byte, m *[LinesPerPage]uint8) {
	_ = src[55]
	for g := 0; g < 8; g++ {
		o := 7 * g
		v := uint64(src[o]) | uint64(src[o+1])<<8 | uint64(src[o+2])<<16 |
			uint64(src[o+3])<<24 | uint64(src[o+4])<<32 | uint64(src[o+5])<<40 |
			uint64(src[o+6])<<48
		m[8*g] = uint8(v & 0x7f)
		m[8*g+1] = uint8(v >> 7 & 0x7f)
		m[8*g+2] = uint8(v >> 14 & 0x7f)
		m[8*g+3] = uint8(v >> 21 & 0x7f)
		m[8*g+4] = uint8(v >> 28 & 0x7f)
		m[8*g+5] = uint8(v >> 35 & 0x7f)
		m[8*g+6] = uint8(v >> 42 & 0x7f)
		m[8*g+7] = uint8(v >> 49 & 0x7f)
	}
}

// packLanes6 stores the 64 six-bit minors of a CoW block into 48 bytes, one
// 48-bit little-endian group of eight minors per six bytes.
func packLanes6(dst []byte, m *[LinesPerPage]uint8) {
	_ = dst[47]
	for g := 0; g < 8; g++ {
		v := uint64(m[8*g]) | uint64(m[8*g+1])<<6 | uint64(m[8*g+2])<<12 |
			uint64(m[8*g+3])<<18 | uint64(m[8*g+4])<<24 | uint64(m[8*g+5])<<30 |
			uint64(m[8*g+6])<<36 | uint64(m[8*g+7])<<42
		o := 6 * g
		dst[o] = byte(v)
		dst[o+1] = byte(v >> 8)
		dst[o+2] = byte(v >> 16)
		dst[o+3] = byte(v >> 24)
		dst[o+4] = byte(v >> 32)
		dst[o+5] = byte(v >> 40)
	}
}

// unpackLanes6 is the inverse of packLanes6.
func unpackLanes6(src []byte, m *[LinesPerPage]uint8) {
	_ = src[47]
	for g := 0; g < 8; g++ {
		o := 6 * g
		v := uint64(src[o]) | uint64(src[o+1])<<8 | uint64(src[o+2])<<16 |
			uint64(src[o+3])<<24 | uint64(src[o+4])<<32 | uint64(src[o+5])<<40
		m[8*g] = uint8(v & 0x3f)
		m[8*g+1] = uint8(v >> 6 & 0x3f)
		m[8*g+2] = uint8(v >> 12 & 0x3f)
		m[8*g+3] = uint8(v >> 18 & 0x3f)
		m[8*g+4] = uint8(v >> 24 & 0x3f)
		m[8*g+5] = uint8(v >> 30 & 0x3f)
		m[8*g+6] = uint8(v >> 36 & 0x3f)
		m[8*g+7] = uint8(v >> 42 & 0x3f)
	}
}

// Increment advances the minor counter of line i, as done after every
// encryption (write) of that line. It reports whether the minor counter
// overflowed; on overflow the caller must re-encrypt the page under a new
// major counter (see BumpMajor).
func (b *Block) Increment(i int) (overflow bool) {
	if b.Minor[i] >= b.MinorMax() {
		return true
	}
	b.Minor[i]++
	return false
}

// BumpMajor starts a fresh encryption epoch for the page after a minor
// overflow: the major counter is incremented and every materialised line's
// minor resets to 1. Minors that are zero stay zero so that the "uncopied"
// (Lelantus) and "all-zeros" (Silent Shredder) encodings survive the epoch
// change. It returns the indices of the lines that must be re-encrypted
// under the new (major, minor) pair.
func (b *Block) BumpMajor() []int {
	b.Major++
	if b.Format == Resized {
		b.Major &= majorMaxResized
	}
	reenc := make([]int, 0, LinesPerPage)
	for i := range b.Minor {
		if b.Minor[i] != 0 {
			b.Minor[i] = 1
			reenc = append(reenc, i)
		}
	}
	return reenc
}

// MakeCoW converts a Resized block into the CoW layout (Fig. 4b): the flag
// is set, the source page number is recorded and all minors reset to zero,
// marking every line as not-copied-yet. Minor values that no longer fit the
// 6-bit width are the caller's concern only in the sense that they are
// discarded here: a page_copy destination is a freshly mapped page whose
// previous contents are dead.
func (b *Block) MakeCoW(src uint64) error {
	if b.Format != Resized {
		return errors.New("ctr: MakeCoW requires the resized format")
	}
	b.CoW = true
	b.Src = src
	b.Major &= majorMaxResized
	for i := range b.Minor {
		b.Minor[i] = 0
	}
	return nil
}

// ClearCoW converts a Resized CoW block back to the regular layout once all
// of its lines are materialised (page_phyc) or the page is freed
// (page_free). Existing minor values (<= 63) fit the 7-bit layout, so the
// data needs no re-encryption.
func (b *Block) ClearCoW() {
	b.CoW = false
	b.Src = 0
}

// Uncopied reports whether line i of a CoW page is still awaiting its copy:
// under both Lelantus encodings a zero minor counter on a CoW page means
// "read this line from the source page".
func (b *Block) Uncopied(i int) bool {
	return b.Minor[i] == 0
}

// UncopiedCount returns the number of lines still redirected to the source.
func (b *Block) UncopiedCount() int {
	n := 0
	for _, m := range b.Minor {
		if m == 0 {
			n++
		}
	}
	return n
}

// Equal reports semantic equality of two blocks.
func (b *Block) Equal(o *Block) bool {
	if b.Format != o.Format || b.CoW != o.CoW || b.Major != o.Major {
		return false
	}
	if b.CoW && b.Src != o.Src {
		return false
	}
	return b.Minor == o.Minor
}
