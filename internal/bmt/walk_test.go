package bmt

import (
	"math/rand"
	"testing"
)

// fullWalkVerify is the reference Verify's verdicts are checked against:
// the full leaf-to-root walk, in which the leaf recomputed from raw,
// combined with its stored siblings at every level, must reproduce the
// on-chip root.
//
// The one input on which the two differ is an out-of-span index whose
// digest equals the default leaf (index ^0 over no content) under an
// all-default root path: the walk accepts that block, which exists
// nowhere, and Verify rejects it (TestVerifyOutOfSpanFails). Counter blocks
// are 64 bytes, so the fuzz below never builds that input.
func fullWalkVerify(t *Tree, idx uint64, raw []byte) bool {
	t.flush()
	if t.accountingOnly {
		return true
	}
	h := t.digest(idx, raw)
	node := idx
	for l := 1; l < t.levels; l++ {
		parent := node / Arity
		t.mac.Reset()
		t.mac.Write(nodeTag)
		base := parent * Arity
		for i := uint64(0); i < Arity; i++ {
			child := t.nodeHash(l-1, base+i)
			if base+i == node {
				child = h
			}
			t.mac.Write(child[:])
		}
		h = t.finish()
		node = parent
	}
	return h == t.root
}

// FuzzVerifyVsFullWalk drives random sequences of updates, verifies of
// honest, tampered and forged blocks at in-span and out-of-span indices,
// root checkpoints, leaf resets, rebuilds and in-place tampering of stored
// leaf digests. Every Verify verdict must equal the full walk's, every
// Root must equal the eager reference's, and an accounting-only shadow
// tree fed the same operations must report the same rebuild counts.
func FuzzVerifyVsFullWalk(f *testing.F) {
	ops := []byte{0, 0, 1, 6, 0, 2, 3, 7, 0, 4, 1, 6, 5, 2, 0, 1, 3, 6, 7, 1, 5, 3}
	f.Add(uint32(1), int64(1), ops)     // one level: the leaf is the root
	f.Add(uint32(8), int64(2), ops)     // two levels: level 1 is the root
	f.Add(uint32(1<<18), int64(3), ops) // seven levels, as on secure-mlp
	f.Fuzz(func(t *testing.T, nBlocks uint32, seed int64, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		checkVerifyVsFullWalk(t, uint64(nBlocks%(1<<21)), seed, ops)
	})
}

func checkVerifyVsFullWalk(t *testing.T, nBlocks uint64, seed int64, ops []byte) {
	key := []byte("fuzz-key")
	tr := New(key, nBlocks)
	shadow := New(key, nBlocks)
	shadow.DisableHashing()
	rng := rand.New(rand.NewSource(seed))
	contents := make(map[uint64][]byte)
	var known []uint64 // in first-update order, so picks replay exactly

	block := func() []byte {
		raw := make([]byte, 64)
		rng.Read(raw)
		return raw
	}
	pick := func() uint64 {
		switch rng.Intn(4) {
		case 1: // a sibling of a stored leaf
			if len(known) > 0 {
				k := known[rng.Intn(len(known))]
				return k - k%Arity + uint64(rng.Intn(Arity))
			}
		case 2: // just past the root's span
			return tr.span + uint64(rng.Intn(3*Arity))
		case 3: // a stored leaf
			if len(known) > 0 {
				return known[rng.Intn(len(known))]
			}
		}
		return uint64(rng.Int63n(int64(tr.span)))
	}
	content := func(idx uint64) []byte {
		if raw, ok := contents[idx]; ok {
			return raw
		}
		return block()
	}
	set := func(idx uint64, raw []byte) {
		if _, ok := contents[idx]; !ok {
			known = append(known, idx)
		}
		contents[idx] = raw
	}
	check := func(step int, idx uint64, raw []byte) {
		t.Helper()
		got := tr.Verify(idx, raw) == nil
		if want := fullWalkVerify(tr, idx, raw); got != want {
			t.Fatalf("step %d: Verify(%d) = %v, full walk %v (levels %d)", step, idx, got, want, tr.levels)
		}
		if err := shadow.Verify(idx, raw); err != nil {
			t.Fatalf("step %d: accounting-only Verify(%d): %v", step, idx, err)
		}
	}
	checkRoot := func(step int) {
		t.Helper()
		if got, want := tr.Root(), eagerRoot(key, nBlocks, contents); got != want {
			t.Fatalf("step %d: root diverged from the eager reference", step)
		}
	}
	rebuild := func(step int) {
		t.Helper()
		got, want := tr.RebuildFromLeavesByLevel(), shadow.RebuildFromLeavesByLevel()
		if len(got) != len(want) {
			t.Fatalf("step %d: rebuild levels %d, accounting-only %d", step, len(got), len(want))
		}
		for l := range got {
			if got[l] != want[l] {
				t.Fatalf("step %d: rebuild counts %v, accounting-only %v", step, got, want)
			}
		}
		checkRoot(step)
	}
	update := func(idx uint64, raw []byte) {
		tr.Update(idx, raw)
		shadow.Update(idx, raw)
		set(idx, raw)
	}

	for step, op := range ops {
		switch op % 8 {
		case 0:
			update(pick(), block())
		case 1: // an honest block, or a fresh one where none is stored
			idx := pick()
			check(step, idx, content(idx))
		case 2: // a stored block with one bit flipped
			idx := pick()
			mut := append([]byte(nil), content(idx)...)
			mut[rng.Intn(len(mut))] ^= 1 << rng.Intn(8)
			check(step, idx, mut)
		case 3:
			checkRoot(step)
		case 4: // recovery: adopt NVM images as leaves, verify, rebuild
			for n := 1 + rng.Intn(3); n > 0; n-- {
				idx, raw := pick(), block()
				tr.ResetLeaf(idx, raw)
				shadow.ResetLeaf(idx, raw)
				set(idx, raw)
			}
			idx := pick()
			check(step, idx, content(idx))
			rebuild(step)
		case 5:
			rebuild(step)
		case 6: // flip a stored leaf digest in place, verify its group, heal
			if len(known) == 0 {
				continue
			}
			j := known[rng.Intn(len(known))]
			tr.nodes[0][j/Arity].get(j % Arity)[rng.Intn(hashSize)] ^= 1 << rng.Intn(8)
			sib := j - j%Arity + uint64(rng.Intn(Arity))
			check(step, sib, content(sib))
			check(step, j, contents[j])
			update(j, contents[j])
		case 7: // a forged block at any index
			check(step, pick(), block())
		}
	}
	checkRoot(len(ops))
	if tr.Updates != shadow.Updates || tr.Verifies() != shadow.Verifies() {
		t.Fatalf("counters: updates %d/%d, verifies %d/%d",
			tr.Updates, shadow.Updates, tr.Verifies(), shadow.Verifies())
	}
}

// TestVerifyOutOfSpanFails pins the span rule. Index 100 of a 64-block
// tree hangs under the second top-level node, not under the root, so it
// fails even right after its own Update, although its level-1 parent is
// stored and consistent. The digest of index ^0 over no content is the
// default leaf, which the full walk accepts under an all-default path.
func TestVerifyOutOfSpanFails(t *testing.T) {
	tr := New([]byte("span-key"), 64)
	if tr.Levels() != 3 || tr.span != 64 {
		t.Fatalf("levels %d span %d, want 3 and 64", tr.Levels(), tr.span)
	}
	raw := blockBytes(1)
	for _, idx := range []uint64{64, 100} {
		tr.Update(idx, raw)
		if err := tr.Verify(idx, raw); err == nil {
			t.Fatalf("out-of-span block %d verified", idx)
		}
	}
	tr.Update(63, raw)
	if err := tr.Verify(63, raw); err != nil {
		t.Fatalf("last in-span block: %v", err)
	}
	if err := New([]byte("span-key"), 64).Verify(^uint64(0), nil); err == nil {
		t.Fatal("the default leaf verified at index ^0")
	}
}

// TestOneLevelTree pins the one-level edge: the only node is the root, so
// Verify compares the leaf digest with the root register.
func TestOneLevelTree(t *testing.T) {
	for _, n := range []uint64{0, 1} {
		tr := New([]byte("one-key"), n)
		if tr.Levels() != 1 {
			t.Fatalf("nBlocks %d: %d levels, want 1", n, tr.Levels())
		}
		raw := blockBytes(4)
		tr.Update(0, raw)
		if err := tr.Verify(0, raw); err != nil {
			t.Fatalf("nBlocks %d: verify: %v", n, err)
		}
		for bit := 0; bit < len(raw)*8; bit += 29 {
			mut := append([]byte(nil), raw...)
			mut[bit/8] ^= 1 << (bit % 8)
			if err := tr.Verify(0, mut); err == nil {
				t.Fatalf("nBlocks %d: bit flip at %d not detected", n, bit)
			}
		}
		if err := tr.Verify(1, raw); err == nil {
			t.Fatalf("nBlocks %d: block 1 verified on a one-block tree", n)
		}
	}
}

// TestTamperedLeafDigestDetected: a stored sibling digest rewritten in
// place changes the recomputed level-1 parent, so the sibling's neighbours
// fail, which a leaf-only compare would miss.
func TestTamperedLeafDigestDetected(t *testing.T) {
	tr := newTree()
	for i := uint64(0); i < Arity; i++ {
		tr.Update(80+i, blockBytes(byte(i)))
	}
	tr.Root()
	tr.nodes[0][10].get(3)[7] ^= 0x10 // leaf 83
	for i := uint64(0); i < Arity; i++ {
		err := tr.Verify(80+i, blockBytes(byte(i)))
		if i == 3 && err != nil {
			t.Fatalf("block 83 is checked against its own content: %v", err)
		}
		if i != 3 && err == nil {
			t.Fatalf("block %d verified beside a tampered sibling digest", 80+i)
		}
	}
	if err := tr.VerifyLeaf(83, blockBytes(3)); err == nil {
		t.Fatal("VerifyLeaf accepted a tampered stored digest")
	}
}
