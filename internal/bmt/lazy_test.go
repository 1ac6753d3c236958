package bmt

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"testing"
)

// eagerRoot is an independent, eager reference: it recomputes the entire
// tree bottom-up from the full set of leaf contents with a fresh HMAC per
// node — no incremental state, no dirty tracking, no shared scratch. The
// lazy tree must produce a byte-identical root after any Update/Verify
// interleaving.
func eagerRoot(key []byte, nBlocks uint64, contents map[uint64][]byte) [hashSize]byte {
	levels := 1
	for span := uint64(1); span < nBlocks; span *= Arity {
		levels++
	}
	mac := func(parts ...[]byte) [hashSize]byte {
		m := hmac.New(sha256.New, key)
		for _, p := range parts {
			m.Write(p)
		}
		var out [hashSize]byte
		copy(out[:], m.Sum(nil))
		return out
	}
	defaults := make([][hashSize]byte, levels)
	var idxMax [8]byte
	binary.LittleEndian.PutUint64(idxMax[:], ^uint64(0))
	defaults[0] = mac(leafTag, idxMax[:])
	for l := 1; l < levels; l++ {
		var parts [][]byte
		parts = append(parts, nodeTag)
		for i := 0; i < Arity; i++ {
			parts = append(parts, defaults[l-1][:])
		}
		defaults[l] = mac(parts...)
	}

	level := make(map[uint64][hashSize]byte, len(contents))
	for idx, raw := range contents {
		var ib [8]byte
		binary.LittleEndian.PutUint64(ib[:], idx)
		level[idx] = mac(leafTag, ib[:], raw)
	}
	for l := 1; l < levels; l++ {
		next := make(map[uint64][hashSize]byte)
		parents := make(map[uint64]bool)
		for idx := range level {
			parents[idx/Arity] = true
		}
		for p := range parents {
			parts := [][]byte{nodeTag}
			for i := uint64(0); i < Arity; i++ {
				h, ok := level[p*Arity+i]
				if !ok {
					h = defaults[l-1]
				}
				hh := h
				parts = append(parts, hh[:])
			}
			next[p] = mac(parts...)
		}
		level = next
	}
	if root, ok := level[0]; ok {
		return root
	}
	return defaults[levels-1]
}

// TestLazyRootMatchesEagerReference drives randomized Update/Verify
// interleavings — including repeated updates to the same block and to
// sibling blocks, which exercise the dirty-path collapsing — and checks
// the lazy root against the eager reference at random points.
func TestLazyRootMatchesEagerReference(t *testing.T) {
	key := []byte("differential-key")
	const nBlocks = 1 << 12
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := New(key, nBlocks)
		contents := make(map[uint64][]byte)
		// A small index pool concentrates updates so subtrees are shared.
		pool := make([]uint64, 48)
		for i := range pool {
			pool[i] = uint64(rng.Intn(nBlocks))
		}
		for step := 0; step < 600; step++ {
			idx := pool[rng.Intn(len(pool))]
			switch rng.Intn(4) {
			case 0, 1: // update
				raw := make([]byte, 64)
				rng.Read(raw)
				contents[idx] = raw
				tr.Update(idx, raw)
			case 2: // verify a known block
				if raw, ok := contents[idx]; ok {
					if err := tr.Verify(idx, raw); err != nil {
						t.Fatalf("seed %d step %d: verify(%d): %v", seed, step, idx, err)
					}
				}
			case 3: // root checkpoint against the eager reference
				if got, want := tr.Root(), eagerRoot(key, nBlocks, contents); got != want {
					t.Fatalf("seed %d step %d: lazy root diverged from eager reference", seed, step)
				}
			}
		}
		if got, want := tr.Root(), eagerRoot(key, nBlocks, contents); got != want {
			t.Fatalf("seed %d: final lazy root diverged from eager reference", seed)
		}
		// Tampering must still be detected after heavy lazy churn.
		for idx, raw := range contents {
			mut := append([]byte(nil), raw...)
			mut[int(idx)%len(mut)] ^= 0x40
			if err := tr.Verify(idx, mut); err == nil {
				t.Fatalf("seed %d: tampered block %d accepted", seed, idx)
			}
			break
		}
	}
}

// TestTreeSteadyStateAllocFree pins the zero-allocation property of the
// reusable-HMAC tree: once a path exists, updating and verifying it must
// not allocate.
func TestTreeSteadyStateAllocFree(t *testing.T) {
	tr := New([]byte("alloc-key"), 1<<20)
	raw := make([]byte, 64)
	for i := range raw {
		raw[i] = byte(i)
	}
	for i := uint64(0); i < 16; i++ {
		tr.Update(i*31, raw)
	}
	if err := tr.Verify(7*31, raw); err != nil {
		t.Fatal(err)
	}
	i := uint64(0)
	avg := testing.AllocsPerRun(500, func() {
		idx := (i % 16) * 31
		i++
		tr.Update(idx, raw)
		if err := tr.Verify(idx, raw); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state Update+Verify allocates %.2f allocs/op, want 0", avg)
	}
}

// TestMACStoreSteadyStateAllocFree: recomputing and refreshing an existing
// line MAC must not allocate.
func TestMACStoreSteadyStateAllocFree(t *testing.T) {
	s := newMACStore(t, "alloc-mac-key")
	ciph := make([]byte, 64)
	s.StoreSum(42, s.Sum(42, ciph, 3, 1))
	avg := testing.AllocsPerRun(500, func() {
		s.StoreSum(42, s.Sum(42, ciph, 3, 1))
		if err := s.Verify(42, ciph, 3, 1); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state MAC update+verify allocates %.2f allocs/op, want 0", avg)
	}
}

// TestMACStoreRefusesLinesBeyondSpan: a line beyond the store's lines is a
// *LineRangeError from StoreSum and Verify, and the page table does not
// grow for it. The line is 99^(1<<63), a tag moved to bit 63 of its line
// number: growing the table to it would ask for ~2^57 pointers. The table
// stops at the pages the store's lines fill.
func TestMACStoreRefusesLinesBeyondSpan(t *testing.T) {
	s := newMACStore(t, "span-key")
	ciph := make([]byte, 64)
	const far = 99 ^ (1 << 63)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := s.StoreSum(far, s.Sum(far, ciph, 3, 1))
	runtime.ReadMemStats(&after)
	var lre *LineRangeError
	if !errors.As(err, &lre) || lre.Line != far || lre.Lines != s.lines {
		t.Fatalf("StoreSum at line %#x: %v, want a LineRangeError", uint64(far), err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 || len(s.pages) != 0 {
		t.Fatalf("refused StoreSum allocated %d bytes and %d table pages", grew, len(s.pages))
	}
	if err := s.Verify(far, ciph, 3, 1); !errors.As(err, &lre) {
		t.Fatalf("Verify at line %#x: %v, want a LineRangeError", uint64(far), err)
	}
	last := s.lines - 1
	if err := s.StoreSum(last, s.Sum(last, ciph, 3, 1)); err != nil {
		t.Fatalf("last covered line: %v", err)
	}
	if want := s.lines / macPageLines; uint64(len(s.pages)) != want {
		t.Fatalf("page table holds %d pages after the last line, want %d", len(s.pages), want)
	}
}
