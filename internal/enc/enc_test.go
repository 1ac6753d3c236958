package enc

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func newEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := New([]byte("0123456789abcdef"))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestKeyValidation(t *testing.T) {
	if _, err := New([]byte("short")); err == nil {
		t.Fatal("short key must be rejected")
	}
	if _, err := New(make([]byte, 32)); err == nil {
		t.Fatal("non-16-byte key must be rejected")
	}
}

func TestRoundTrip(t *testing.T) {
	e := newEngine(t)
	var plain [LineBytes]byte
	for i := range plain {
		plain[i] = byte(i * 3)
	}
	ciph := e.Encrypt(&plain, 42, 7, 3)
	if ciph == plain {
		t.Fatal("ciphertext equals plaintext")
	}
	got := e.Decrypt(&ciph, 42, 7, 3)
	if got != plain {
		t.Fatal("decrypt(encrypt(p)) != p")
	}
}

func TestWrongCounterFailsToDecrypt(t *testing.T) {
	e := newEngine(t)
	var plain [LineBytes]byte
	plain[0] = 0xAB
	ciph := e.Encrypt(&plain, 1, 1, 1)
	for _, tc := range []struct {
		name        string
		line, major uint64
		minor       uint8
	}{
		{"wrong line", 2, 1, 1},
		{"wrong major", 1, 2, 1},
		{"wrong minor", 1, 1, 2},
	} {
		if got := e.Decrypt(&ciph, tc.line, tc.major, tc.minor); got == plain {
			t.Errorf("%s: decryption succeeded with wrong parameters", tc.name)
		}
	}
}

// TestSpatialUniqueness: the same plaintext at two addresses yields two
// ciphertexts (the address is part of the IV).
func TestSpatialUniqueness(t *testing.T) {
	e := newEngine(t)
	var plain [LineBytes]byte
	c1 := e.Encrypt(&plain, 100, 5, 5)
	c2 := e.Encrypt(&plain, 101, 5, 5)
	if c1 == c2 {
		t.Fatal("same pad for two line addresses")
	}
}

// TestTemporalUniqueness: the same plaintext at the same address under two
// counter values yields two ciphertexts.
func TestTemporalUniqueness(t *testing.T) {
	e := newEngine(t)
	var plain [LineBytes]byte
	c1 := e.Encrypt(&plain, 100, 5, 5)
	c2 := e.Encrypt(&plain, 100, 5, 6)
	c3 := e.Encrypt(&plain, 100, 6, 5)
	if c1 == c2 || c1 == c3 || c2 == c3 {
		t.Fatal("pads repeated across counter values")
	}
}

// TestQuickPadUniqueness: distinct (line, major, minor) tuples produce
// distinct pads — the security invariant counter-mode depends on.
func TestQuickPadUniqueness(t *testing.T) {
	e := newEngine(t)
	seen := make(map[[LineBytes]byte][3]uint64)
	rng := rand.New(rand.NewSource(11))
	f := func(line, major uint64, minor uint8) bool {
		minor &= 0x7F
		pad := e.Pad(line, major, minor)
		key := [3]uint64{line, major, uint64(minor)}
		if prev, ok := seen[pad]; ok {
			return prev == key
		}
		seen[pad] = key
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRoundTripRandom: decrypt inverts encrypt for random payloads.
func TestQuickRoundTripRandom(t *testing.T) {
	e := newEngine(t)
	f := func(seed int64, line, major uint64, minor uint8) bool {
		var plain [LineBytes]byte
		rand.New(rand.NewSource(seed)).Read(plain[:])
		ciph := e.Encrypt(&plain, line, major, minor&0x7F)
		got := e.Decrypt(&ciph, line, major, minor&0x7F)
		return got == plain
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestPadCounter: pads are booked with NotePads only; computing one counts
// nothing.
func TestPadCounter(t *testing.T) {
	e := newEngine(t)
	var p [LineBytes]byte
	e.Encrypt(&p, 1, 1, 1)
	e.Decrypt(&p, 1, 1, 1)
	if e.Pads != 0 {
		t.Fatalf("crypting counted %d pads, want 0", e.Pads)
	}
	e.NotePads(2)
	e.NotePads(1)
	if e.Pads != 3 {
		t.Fatalf("Pads = %d, want 3", e.Pads)
	}
}

func TestDifferentKeysDiffer(t *testing.T) {
	e1, _ := New(bytes.Repeat([]byte{1}, 16))
	e2, _ := New(bytes.Repeat([]byte{2}, 16))
	p1 := e1.Pad(9, 9, 9)
	p2 := e2.Pad(9, 9, 9)
	if p1 == p2 {
		t.Fatal("two keys produced the same pad")
	}
}

// TestTweakCacheDifferential: an engine whose tweak cache is exercised
// hard (same-line repeats, slot-colliding lines, major-epoch changes) must
// produce exactly the pads of a fresh engine computing each tweak cold.
func TestTweakCacheDifferential(t *testing.T) {
	warm := newEngine(t)
	rng := rand.New(rand.NewSource(23))
	// Lines 5, 5+tweakSlots, 5+2*tweakSlots all collide on one slot.
	lines := []uint64{5, 5 + tweakSlots, 5 + 2*tweakSlots, 77, 1 << 30}
	for i := 0; i < 3000; i++ {
		line := lines[rng.Intn(len(lines))]
		major := uint64(rng.Intn(3))
		minor := uint8(rng.Intn(128))
		got := warm.Pad(line, major, minor)
		want := newEngine(t).Pad(line, major, minor)
		if got != want {
			t.Fatalf("iteration %d: cached pad differs for (line=%d major=%d minor=%d)",
				i, line, major, minor)
		}
	}
}

// TestPadAllocFree: steady-state pad generation and line crypts must not
// allocate (the scratch blocks live in the engine).
func TestPadAllocFree(t *testing.T) {
	e := newEngine(t)
	var plain, out [LineBytes]byte
	e.Crypt(&out, &plain, 3, 1, 1)
	avg := testing.AllocsPerRun(500, func() {
		e.Crypt(&out, &plain, 3, 1, 1)
		e.Crypt(&out, &plain, 4, 1, 2) // tweak-cache miss path too
	})
	if avg != 0 {
		t.Fatalf("Crypt allocates %.2f allocs/op, want 0", avg)
	}
}
