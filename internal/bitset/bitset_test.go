package bitset

import (
	"math/bits"
	"math/rand"
	"testing"
)

func TestBasicOps(t *testing.T) {
	s := New(256)
	if s.Test(0) || s.Test(255) || s.Count() != 0 {
		t.Fatal("fresh set not empty")
	}
	s.Set(0)
	s.Set(63)
	s.Set(64)
	s.Set(255)
	for _, i := range []uint64{0, 63, 64, 255} {
		if !s.Test(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if s.Test(1) || s.Test(128) {
		t.Fatal("unset bit reads as set")
	}
	if s.Count() != 4 {
		t.Fatalf("Count = %d, want 4", s.Count())
	}
	s.Set(63) // idempotent
	if s.Count() != 4 {
		t.Fatalf("double-set changed count to %d", s.Count())
	}
	s.Clear(63)
	if s.Test(63) || s.Count() != 3 {
		t.Fatalf("clear failed: test=%v count=%d", s.Test(63), s.Count())
	}
	s.Clear(63) // idempotent
	if s.Count() != 3 {
		t.Fatalf("double-clear changed count to %d", s.Count())
	}
}

func TestOutOfRange(t *testing.T) {
	s := New(64)
	if s.Test(1 << 20) {
		t.Fatal("out-of-range Test must be false")
	}
	s.Clear(1 << 20) // must not panic or grow
	s.Set(1 << 10)   // grows
	if !s.Test(1 << 10) {
		t.Fatal("grown bit lost")
	}
	if s.Count() != 1 {
		t.Fatalf("Count = %d, want 1", s.Count())
	}
}

func TestZeroValue(t *testing.T) {
	var s Set
	if s.Test(5) {
		t.Fatal("zero-value set not empty")
	}
	s.Set(5)
	if !s.Test(5) || s.Count() != 1 {
		t.Fatal("zero-value set unusable")
	}
}

// TestRandomisedAgainstMap cross-checks the set against a map model,
// including the maintained count.
func TestRandomisedAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := New(4096)
	model := map[uint64]bool{}
	for i := 0; i < 20000; i++ {
		idx := uint64(rng.Intn(5000)) // occasionally beyond the pre-size
		switch rng.Intn(3) {
		case 0:
			s.Set(idx)
			model[idx] = true
		case 1:
			s.Clear(idx)
			delete(model, idx)
		case 2:
			if got, want := s.Test(idx), model[idx]; got != want {
				t.Fatalf("step %d: Test(%d) = %v, want %v", i, idx, got, want)
			}
		}
	}
	if s.Count() != len(model) {
		t.Fatalf("Count = %d, model has %d", s.Count(), len(model))
	}
	if s.Count() != recount(s) {
		t.Fatalf("maintained count %d != popcount %d", s.Count(), recount(s))
	}
}

// recount is the popcount of the backing words, the reference the
// maintained count is checked against.
func recount(s *Set) int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// TestSteadyStateAllocFree: in-range operations must never allocate.
func TestSteadyStateAllocFree(t *testing.T) {
	s := New(1 << 16)
	avg := testing.AllocsPerRun(1000, func() {
		s.Set(12345)
		if !s.Test(12345) {
			t.Fatal("lost bit")
		}
		s.Clear(12345)
	})
	if avg != 0 {
		t.Fatalf("bitset ops allocate %.2f allocs/op, want 0", avg)
	}
}

// collect walks the set with Next from bit 0.
func collect(s *Set) []uint64 {
	var got []uint64
	for i, ok := s.Next(0); ok; i, ok = s.Next(i + 1) {
		got = append(got, i)
	}
	return got
}

func TestNextEdges(t *testing.T) {
	var zero Set
	if _, ok := zero.Next(0); ok {
		t.Fatal("zero-value set yields a bit")
	}
	s := New(256)
	if got := collect(s); got != nil {
		t.Fatalf("empty set yields %v", got)
	}
	// Bits in the last word, including the very last bit.
	s.Set(192)
	s.Set(255)
	if got := collect(s); len(got) != 2 || got[0] != 192 || got[1] != 255 {
		t.Fatalf("last-word bits: got %v, want [192 255]", got)
	}
	if i, ok := s.Next(193); !ok || i != 255 {
		t.Fatalf("Next(193) = %d, %v; want 255, true", i, ok)
	}
	if _, ok := s.Next(256); ok {
		t.Fatal("Next past the last word yields a bit")
	}
	// Grown past its New size, with empty words in between.
	s.Set(1000)
	if got := collect(s); len(got) != 3 || got[2] != 1000 {
		t.Fatalf("grown set: got %v, want [192 255 1000]", got)
	}
	s.Clear(1000)
	if got := collect(s); len(got) != 2 {
		t.Fatalf("cleared grown bit still yielded: %v", got)
	}
}

// TestNextAgainstTest: Next visits exactly the bits Test reports, in
// ascending order, from any starting bit.
func TestNextAgainstTest(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := New(1000)
	for i := 0; i < 300; i++ {
		s.Set(uint64(rng.Intn(1500))) // some beyond the pre-size
	}
	for i := 0; i < 50; i++ {
		s.Clear(uint64(rng.Intn(1500)))
	}
	var want []uint64
	for i := uint64(0); i < 1600; i++ {
		if s.Test(i) {
			want = append(want, i)
		}
	}
	got := collect(s)
	if len(got) != len(want) || len(got) != s.Count() {
		t.Fatalf("Next yields %d bits, Test finds %d, Count %d", len(got), len(want), s.Count())
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("bit %d: Next yields %d, Test finds %d", k, got[k], want[k])
		}
	}
	for from := uint64(0); from < 1600; from += 7 {
		i, ok := s.Next(from)
		j := from
		for j < 1600 && !s.Test(j) {
			j++
		}
		if ok != (j < 1600) || (ok && i != j) {
			t.Fatalf("Next(%d) = %d, %v; Test finds %d", from, i, ok, j)
		}
	}
}
