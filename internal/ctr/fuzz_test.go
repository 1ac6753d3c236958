package ctr

import (
	"bytes"
	"testing"
)

// FuzzPackUnpackIdentity: both counter-block layouts use all 512 bits
// exactly, so decode followed by encode must be the identity on raw bytes.
// Any asymmetry would mean bits silently dropped or invented — a
// correctness and covert-channel hazard in a security metadata format.
func FuzzPackUnpackIdentity(f *testing.F) {
	f.Add(make([]byte, BlockBytes), false)
	seed := make([]byte, BlockBytes)
	for i := range seed {
		seed[i] = byte(i*7 + 3)
	}
	f.Add(seed, true)
	f.Fuzz(func(t *testing.T, raw []byte, resized bool) {
		if len(raw) != BlockBytes {
			return
		}
		var in [BlockBytes]byte
		copy(in[:], raw)
		format := Classic
		if resized {
			format = Resized
		}
		blk, err := unpack(in, format)
		if err != nil {
			t.Fatalf("unpack of arbitrary bits failed: %v", err)
		}
		out, err := pack(&blk)
		if err != nil {
			t.Fatalf("repack failed: %v", err)
		}
		if !bytes.Equal(in[:], out[:]) {
			t.Fatalf("pack(unpack(x)) != x:\n in  %x\n out %x", in, out)
		}
	})
}

// FuzzIncrementNeverExceedsWidth: arbitrary increment sequences keep every
// minor within its bit width (PackInto would reject otherwise).
func FuzzIncrementNeverExceedsWidth(f *testing.F) {
	f.Add(uint8(3), uint16(500), true)
	f.Fuzz(func(t *testing.T, line uint8, n uint16, cow bool) {
		b := Block{Format: Resized, CoW: cow}
		li := int(line) % LinesPerPage
		for i := 0; i < int(n); i++ {
			if b.Increment(li) {
				b.BumpMajor()
			}
		}
		if err := b.Validate(); err != nil {
			t.Fatalf("invalid block after increments: %v", err)
		}
	})
}
