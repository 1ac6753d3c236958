package ctr

import (
	"bytes"
	"testing"
)

// codecCases enumerates the four layout variants a counter block can take.
func codecCases() []struct {
	name   string
	format Format
	cow    bool
} {
	return []struct {
		name   string
		format Format
		cow    bool
	}{
		{"classic", Classic, false},
		{"resized", Resized, false},
		{"resized-cow", Resized, true},
	}
}

// sampleBlock builds a valid block with distinctive field values.
func sampleBlock(format Format, cow bool, salt uint8) Block {
	b := Block{Format: format, CoW: cow, Major: 0x123456789abcde0f}
	if format == Resized {
		b.Major &= majorMaxResized
	}
	for i := range b.Minor {
		b.Minor[i] = uint8(i) + salt
		for b.Minor[i] > b.MinorMax() {
			b.Minor[i] -= b.MinorMax() + 1
		}
	}
	if cow {
		b.Src = 0xfeedface<<16 | uint64(salt)
	}
	return b
}

// TestCodecMatchesBitwiseReference pins the word-wise PackInto and
// UnpackInto to the per-bit reference codec on deterministic samples of every layout.
func TestCodecMatchesBitwiseReference(t *testing.T) {
	for _, tc := range codecCases() {
		t.Run(tc.name, func(t *testing.T) {
			for salt := 0; salt < 8; salt++ {
				b := sampleBlock(tc.format, tc.cow, uint8(salt))
				fast, err := pack(&b)
				if err != nil {
					t.Fatalf("Pack: %v", err)
				}
				slow, err := packBitwise(&b)
				if err != nil {
					t.Fatalf("packBitwise: %v", err)
				}
				if !bytes.Equal(fast[:], slow[:]) {
					t.Fatalf("pack mismatch:\n fast %x\n slow %x", fast, slow)
				}
				got, err := unpack(fast, tc.format)
				if err != nil {
					t.Fatalf("Unpack: %v", err)
				}
				ref, err := unpackBitwise(fast, tc.format)
				if err != nil {
					t.Fatalf("unpackBitwise: %v", err)
				}
				if got != ref {
					t.Fatalf("unpack mismatch:\n fast %+v\n slow %+v", got, ref)
				}
				if !equal(&got, &b) {
					t.Fatalf("round trip lost data:\n in  %+v\n out %+v", b, got)
				}
			}
		})
	}
}

// FuzzCodecDifferential proves the word-wise codec byte-identical to the
// original bit-loop codec: arbitrary 64-byte images must decode to the same
// Block under both decoders (Classic and Resized, CoW and non-CoW — the
// input's flag bit selects the CoW layout), and re-encoding the decoded
// block must produce the same bytes under both encoders.
func FuzzCodecDifferential(f *testing.F) {
	f.Add(make([]byte, BlockBytes), false)
	seed := make([]byte, BlockBytes)
	for i := range seed {
		seed[i] = byte(i*13 + 1)
	}
	f.Add(seed, true)
	cow := make([]byte, BlockBytes)
	copy(cow, seed)
	cow[0] |= 1 // CoW flag set: 6-bit lanes + Src word
	f.Add(cow, true)
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
		fast, err := unpack(in, format)
		if err != nil {
			t.Fatalf("Unpack: %v", err)
		}
		slow, err := unpackBitwise(in, format)
		if err != nil {
			t.Fatalf("unpackBitwise: %v", err)
		}
		if fast != slow {
			t.Fatalf("decoders disagree:\n fast %+v\n slow %+v", fast, slow)
		}
		fastRaw, err := pack(&fast)
		if err != nil {
			t.Fatalf("Pack of decoded block: %v", err)
		}
		slowRaw, err := packBitwise(&slow)
		if err != nil {
			t.Fatalf("packBitwise of decoded block: %v", err)
		}
		if !bytes.Equal(fastRaw[:], slowRaw[:]) {
			t.Fatalf("encoders disagree:\n fast %x\n slow %x", fastRaw, slowRaw)
		}
		if !bytes.Equal(fastRaw[:], in[:]) {
			t.Fatalf("pack(unpack(x)) != x:\n in  %x\n out %x", in, fastRaw)
		}
	})
}

// BenchmarkPack compares the word-wise encoder against the bit-loop
// reference; the word/bitwise ratio is the codec speedup on the hottest
// metadata path (every counter-block persist).
func BenchmarkPack(b *testing.B) {
	for _, tc := range codecCases() {
		blk := sampleBlock(tc.format, tc.cow, 3)
		b.Run(tc.name+"/word", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := pack(&blk); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(tc.name+"/bitwise", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := packBitwise(&blk); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkUnpack compares the word-wise decoder against the bit-loop
// reference (every counter-block fetch decodes).
func BenchmarkUnpack(b *testing.B) {
	for _, tc := range codecCases() {
		blk := sampleBlock(tc.format, tc.cow, 3)
		raw, err := pack(&blk)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name+"/word", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := unpack(raw, tc.format); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(tc.name+"/bitwise", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := unpackBitwise(raw, tc.format); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
