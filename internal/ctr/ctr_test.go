package ctr

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// pack and unpack are the value forms of PackInto and UnpackInto.
func pack(b *Block) ([BlockBytes]byte, error) {
	var raw [BlockBytes]byte
	err := b.PackInto(&raw)
	return raw, err
}

func unpack(raw [BlockBytes]byte, f Format) (Block, error) {
	var b Block
	err := UnpackInto(&raw, f, &b)
	return b, err
}

// equal reports semantic equality of two blocks: Src counts only on a CoW
// block.
func equal(a, b *Block) bool {
	if a.Format != b.Format || a.CoW != b.CoW || a.Major != b.Major {
		return false
	}
	if a.CoW && a.Src != b.Src {
		return false
	}
	return a.Minor == b.Minor
}

func TestPackUnpackClassic(t *testing.T) {
	b := Block{Format: Classic, Major: 0xDEADBEEFCAFEF00D}
	for i := range b.Minor {
		b.Minor[i] = uint8(i * 2 % 128)
	}
	raw, err := pack(&b)
	if err != nil {
		t.Fatalf("pack: %v", err)
	}
	got, err := unpack(raw, Classic)
	if err != nil {
		t.Fatalf("unpack: %v", err)
	}
	if !equal(&got, &b) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, b)
	}
}

func TestPackUnpackResizedRegular(t *testing.T) {
	b := Block{Format: Resized, Major: 1<<63 - 1}
	for i := range b.Minor {
		b.Minor[i] = 127
	}
	raw, err := pack(&b)
	if err != nil {
		t.Fatalf("pack: %v", err)
	}
	if raw[0]&1 != 0 {
		t.Fatalf("regular resized block must have CoW flag clear, got raw[0]=%#x", raw[0])
	}
	got, err := unpack(raw, Resized)
	if err != nil {
		t.Fatalf("unpack: %v", err)
	}
	if !equal(&got, &b) {
		t.Fatalf("round trip mismatch: got %+v want %+v", got, b)
	}
}

func TestPackUnpackResizedCoW(t *testing.T) {
	b := Block{Format: Resized, CoW: true, Major: 12345, Src: 0xFEEDFACE12345678}
	for i := range b.Minor {
		b.Minor[i] = uint8(i % 64)
	}
	raw, err := pack(&b)
	if err != nil {
		t.Fatalf("pack: %v", err)
	}
	if raw[0]&1 != 1 {
		t.Fatalf("CoW block must set the flag bit")
	}
	got, err := unpack(raw, Resized)
	if err != nil {
		t.Fatalf("unpack: %v", err)
	}
	if !equal(&got, &b) {
		t.Fatalf("round trip mismatch: got %+v want %+v", got, b)
	}
}

// TestBlockFitsExactly checks the bit budget: every field at its maximum
// must survive the 64-byte round trip without clobbering neighbours.
func TestBlockFitsExactly(t *testing.T) {
	b := Block{Format: Resized, CoW: true, Major: 1<<63 - 1, Src: ^uint64(0)}
	for i := range b.Minor {
		b.Minor[i] = MinorMaxCoW
	}
	raw, err := pack(&b)
	if err != nil {
		t.Fatalf("pack: %v", err)
	}
	got, err := unpack(raw, Resized)
	if err != nil {
		t.Fatalf("unpack: %v", err)
	}
	if !equal(&got, &b) {
		t.Fatalf("max-value round trip mismatch: got %+v want %+v", got, b)
	}
}

func TestPackValidation(t *testing.T) {
	cases := []struct {
		name string
		blk  Block
	}{
		{"classic with CoW flag", Block{Format: Classic, CoW: true}},
		{"classic minor too wide", func() Block {
			b := Block{Format: Classic}
			b.Minor[3] = 128
			return b
		}()},
		{"resized CoW minor too wide", func() Block {
			b := Block{Format: Resized, CoW: true}
			b.Minor[0] = 64
			return b
		}()},
		{"resized major too wide", Block{Format: Resized, Major: 1 << 63}},
		{"unknown format", Block{Format: Format(9)}},
	}
	for _, c := range cases {
		if _, err := pack(&c.blk); err == nil {
			t.Errorf("%s: expected pack error", c.name)
		}
	}
}

func TestIncrementAndOverflow(t *testing.T) {
	b := Block{Format: Classic}
	b.Minor[7] = MinorMaxClassic - 1
	if over := b.Increment(7); over {
		t.Fatal("increment below max must not overflow")
	}
	if b.Minor[7] != MinorMaxClassic {
		t.Fatalf("minor = %d, want %d", b.Minor[7], MinorMaxClassic)
	}
	if over := b.Increment(7); !over {
		t.Fatal("increment at max must report overflow")
	}

	cow := Block{Format: Resized, CoW: true}
	cow.Minor[0] = MinorMaxCoW
	if over := cow.Increment(0); !over {
		t.Fatal("6-bit minor at 63 must overflow")
	}
}

func TestBumpMajor(t *testing.T) {
	b := Block{Format: Resized, CoW: true, Major: 41, Src: 9}
	b.Minor[0] = 5
	b.Minor[63] = 63
	// Minor[1..62] stay 0 (uncopied).
	reenc := b.BumpMajor()
	if b.Major != 42 {
		t.Fatalf("major = %d, want 42", b.Major)
	}
	if len(reenc) != 2 || reenc[0] != 0 || reenc[1] != 63 {
		t.Fatalf("reenc = %v, want [0 63]", reenc)
	}
	if b.Minor[0] != 1 || b.Minor[63] != 1 {
		t.Fatal("materialised minors must reset to 1")
	}
	if b.Minor[1] != 0 {
		t.Fatal("uncopied minors must stay 0 across the epoch change")
	}
}

func TestMakeCoWAndClear(t *testing.T) {
	b := Block{Format: Resized, Major: 7}
	for i := range b.Minor {
		b.Minor[i] = 100 // values too wide for the 6-bit CoW layout
	}
	if err := b.MakeCoW(0x1234); err != nil {
		t.Fatalf("MakeCoW: %v", err)
	}
	if !b.CoW || b.Src != 0x1234 {
		t.Fatalf("CoW state wrong: %+v", b)
	}
	if b.UncopiedCount() != LinesPerPage {
		t.Fatalf("fresh CoW page must have all %d lines uncopied, got %d", LinesPerPage, b.UncopiedCount())
	}
	b.Minor[5] = 3
	if n := b.UncopiedCount(); n != LinesPerPage-1 {
		t.Fatalf("UncopiedCount = %d after one line's copy, want %d", n, LinesPerPage-1)
	}
	b.ClearCoW()
	if b.CoW || b.Src != 0 {
		t.Fatalf("ClearCoW left state: %+v", b)
	}
	if _, err := pack(&b); err != nil {
		t.Fatalf("cleared block must pack in 7-bit layout: %v", err)
	}

	classic := Block{Format: Classic}
	if err := classic.MakeCoW(1); err == nil {
		t.Fatal("MakeCoW must reject the classic format")
	}
}

// TestQuickRoundTrip is the property-based pack/unpack check across both
// formats with random field values.
func TestQuickRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(major, src uint64, cow bool, resized bool, seed int64) bool {
		b := Block{}
		if resized {
			b.Format = Resized
			b.CoW = cow
			b.Major = major & (1<<63 - 1)
		} else {
			b.Format = Classic
			b.Major = major
		}
		if b.CoW {
			b.Src = src
		}
		r := rand.New(rand.NewSource(seed))
		max := int(b.MinorMax())
		for i := range b.Minor {
			b.Minor[i] = uint8(r.Intn(max + 1))
		}
		raw, err := pack(&b)
		if err != nil {
			return false
		}
		got, err := unpack(raw, b.Format)
		if err != nil {
			return false
		}
		return equal(&got, &b)
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickBitIsolation: flipping any single bit of a packed block must
// change the decoded block (no dead bits that an attacker could use as a
// covert channel, and no aliasing between fields).
func TestQuickBitIsolation(t *testing.T) {
	base := Block{Format: Resized, CoW: true, Major: 555, Src: 777}
	for i := range base.Minor {
		base.Minor[i] = uint8(i % 60)
	}
	raw, err := pack(&base)
	if err != nil {
		t.Fatal(err)
	}
	for bit := 0; bit < BlockBytes*8; bit++ {
		mut := raw
		mut[bit/8] ^= 1 << (bit % 8)
		got, err := unpack(mut, Resized)
		if err != nil {
			continue // flipped into an invalid encoding: fine
		}
		if equal(&got, &base) {
			t.Fatalf("flipping bit %d produced an identical decoded block", bit)
		}
	}
}

func TestSchemeStrings(t *testing.T) {
	if Classic.String() != "classic" || Resized.String() != "resized" {
		t.Fatal("format names wrong")
	}
	if Format(9).String() == "" {
		t.Fatal("unknown format must still stringify")
	}
}
