package bmt

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func newTree() *Tree {
	return New([]byte("test-key"), 1<<20)
}

func blockBytes(seed byte) []byte {
	raw := make([]byte, 64)
	for i := range raw {
		raw[i] = seed + byte(i)
	}
	return raw
}

func TestUpdateVerify(t *testing.T) {
	tr := newTree()
	raw := blockBytes(1)
	tr.Update(7, raw)
	if err := tr.Verify(7, raw); err != nil {
		t.Fatalf("verify after update: %v", err)
	}
}

func TestTamperDetected(t *testing.T) {
	tr := newTree()
	raw := blockBytes(2)
	tr.Update(100, raw)
	for bit := 0; bit < len(raw)*8; bit += 37 {
		mut := append([]byte(nil), raw...)
		mut[bit/8] ^= 1 << (bit % 8)
		if err := tr.Verify(100, mut); err == nil {
			t.Fatalf("bit flip at %d not detected", bit)
		}
	}
}

func TestReplayDetected(t *testing.T) {
	tr := newTree()
	old := blockBytes(3)
	tr.Update(5, old)
	newer := blockBytes(4)
	tr.Update(5, newer)
	if err := tr.Verify(5, old); err == nil {
		t.Fatal("replaying a stale counter block must fail verification")
	}
	if err := tr.Verify(5, newer); err != nil {
		t.Fatalf("fresh block must verify: %v", err)
	}
}

func TestCrossSlotMove(t *testing.T) {
	tr := newTree()
	raw := blockBytes(5)
	tr.Update(10, raw)
	if err := tr.Verify(11, raw); err == nil {
		t.Fatal("a block moved to another index must fail verification")
	}
}

func TestManyBlocksIndependent(t *testing.T) {
	tr := newTree()
	const n = 300
	raws := make([][]byte, n)
	for i := 0; i < n; i++ {
		raws[i] = blockBytes(byte(i))
		tr.Update(uint64(i*17), raws[i])
	}
	for i := 0; i < n; i++ {
		if err := tr.Verify(uint64(i*17), raws[i]); err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
	}
}

func TestRootChangesOnUpdate(t *testing.T) {
	tr := newTree()
	r0 := tr.Root()
	tr.Update(1, blockBytes(9))
	r1 := tr.Root()
	if r0 == r1 {
		t.Fatal("root unchanged by update")
	}
	tr.Update(1, blockBytes(10))
	if r1 == tr.Root() {
		t.Fatal("root unchanged by second update")
	}
}

func TestVerifyCounts(t *testing.T) {
	tr := newTree()
	tr.Update(1, blockBytes(1))
	_ = tr.Verify(1, blockBytes(1))
	_ = tr.Verify(1, blockBytes(1))
	if tr.Verifies() != 2 {
		t.Fatalf("Verifies = %d, want 2", tr.Verifies())
	}
	if tr.Updates != 1 {
		t.Fatalf("Updates = %d, want 1", tr.Updates)
	}
}

// TestQuickUpdateVerify: random (index, content) updates always verify,
// and a random single-byte corruption never does.
func TestQuickUpdateVerify(t *testing.T) {
	tr := newTree()
	rng := rand.New(rand.NewSource(3))
	f := func(idx uint64, seed int64, corruptAt uint16, delta byte) bool {
		idx %= 1 << 20
		raw := make([]byte, 64)
		rand.New(rand.NewSource(seed)).Read(raw)
		tr.Update(idx, raw)
		if tr.Verify(idx, raw) != nil {
			return false
		}
		if delta == 0 {
			delta = 1
		}
		mut := append([]byte(nil), raw...)
		mut[int(corruptAt)%len(mut)] ^= delta
		return tr.Verify(idx, mut) != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestMACStore(t *testing.T) {
	s := newMACStore(t, "mac-key")
	ciph := blockBytes(6)
	const line, major, minor = 99, 4, 2
	s.StoreSum(line, s.Sum(line, ciph, major, minor))
	if err := s.Verify(line, ciph, major, minor); err != nil {
		t.Fatalf("verify: %v", err)
	}
	// Wrong counter: replayed data under a stale counter must fail.
	if err := s.Verify(line, ciph, major, minor-1); err == nil {
		t.Fatal("stale minor accepted")
	}
	if err := s.Verify(line, ciph, major-1, minor); err == nil {
		t.Fatal("stale major accepted")
	}
	// Every single-bit flip of the ciphertext is confined to one 16-byte
	// GHASH block, so with H != 0 each one is refused with certainty.
	for bit := 0; bit < len(ciph)*8; bit++ {
		mut := append([]byte(nil), ciph...)
		mut[bit/8] ^= 1 << (bit % 8)
		if err := s.Verify(line, mut, major, minor); err == nil {
			t.Fatalf("ciphertext bit %d flip accepted", bit)
		}
	}
	// Every single-bit change of either counter changes the nonce.
	for bit := 0; bit < 64; bit++ {
		if err := s.Verify(line, ciph, major^1<<bit, minor); err == nil {
			t.Fatalf("major bit %d flip accepted", bit)
		}
	}
	for bit := 0; bit < 8; bit++ {
		if err := s.Verify(line, ciph, major, minor^1<<bit); err == nil {
			t.Fatalf("minor bit %d flip accepted", bit)
		}
	}
	// The same ciphertext and tag moved to a neighbouring line, or to any
	// line one of the low 20 line-number bits away, is refused.
	tag := s.Sum(line, ciph, major, minor)
	moves := []uint64{line - 1, line + 1}
	for bit := 0; bit < 20; bit++ {
		moves = append(moves, line^1<<bit)
	}
	for _, to := range moves {
		m := newMACStore(t, "mac-key")
		m.StoreSum(to, tag)
		if err := m.Verify(to, ciph, major, minor); err == nil {
			t.Fatalf("line %#x moved to %#x accepted", line, to)
		}
	}
	// Unknown lines verify trivially (never written).
	if err := s.Verify(1234, ciph, 0, 0); err != nil {
		t.Fatalf("unknown line must verify: %v", err)
	}
	// Dropped MACs forget the line.
	mut := append([]byte(nil), ciph...)
	mut[0] ^= 1
	s.Drop(line)
	if err := s.Verify(line, mut, major, minor); err != nil {
		t.Fatalf("dropped line must verify trivially: %v", err)
	}
}
