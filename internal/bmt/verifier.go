package bmt

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
)

// Digest is one HMAC-SHA256 sum, exported so batch paths can carry MACs
// computed by a parallel worker into a serial StoreSum commit.
type Digest [hashSize]byte

// LeafVerifier re-verifies stored leaf digests with a private HMAC state,
// so the recovery scrub's pass 1 can fan page verification out over a
// goroutine pool. It only READS the tree (the stored leaf map and the
// accounting-only flag); any concurrent tree mutation is the caller's bug.
type LeafVerifier struct {
	t      *Tree
	mac    hash.Hash
	idxBuf [8]byte
	sumBuf [hashSize]byte
	rawBuf []byte
}

// NewLeafVerifier derives an independent verifier over the tree's current
// leaf digests. Each pool worker must own one.
func (t *Tree) NewLeafVerifier() *LeafVerifier {
	return &LeafVerifier{t: t, mac: hmac.New(sha256.New, t.key)}
}

// Verify is Tree.VerifyLeaf with the verifier's own scratch state.
func (v *LeafVerifier) Verify(idx uint64, raw []byte) error {
	if v.t.accountingOnly {
		return nil
	}
	stored, ok := v.t.nodes[0][idx]
	if !ok {
		return fmt.Errorf("bmt: no leaf digest for counter block %d", idx)
	}
	binary.LittleEndian.PutUint64(v.idxBuf[:], idx)
	v.rawBuf = append(v.rawBuf[:0], raw...)
	v.mac.Reset()
	v.mac.Write(leafTag)
	v.mac.Write(v.idxBuf[:])
	v.mac.Write(v.rawBuf)
	v.mac.Sum(v.sumBuf[:0])
	if v.sumBuf != stored {
		return fmt.Errorf("bmt: leaf digest mismatch at counter block %d", idx)
	}
	return nil
}

// MACVerifier computes and checks per-line data MACs with a private HMAC
// state: pool workers in the recovery MAC scrub and the batched page-engine
// paths each own one. Verify/Sum only read the store's pages; concurrent
// Update/StoreSum/Drop calls are the caller's bug.
type MACVerifier struct {
	s       *MACStore
	mac     hash.Hash
	hdrBuf  [17]byte
	sumBuf  [hashSize]byte
	ciphBuf []byte
}

// NewVerifier derives an independent MAC verifier/computer from the store.
func (s *MACStore) NewVerifier() *MACVerifier {
	return &MACVerifier{s: s, mac: hmac.New(sha256.New, s.key)}
}

func (v *MACVerifier) compute(lineNo uint64, ciph []byte, major uint64, minor uint8) [hashSize]byte {
	binary.LittleEndian.PutUint64(v.hdrBuf[0:8], lineNo)
	binary.LittleEndian.PutUint64(v.hdrBuf[8:16], major)
	v.hdrBuf[16] = minor
	v.ciphBuf = append(v.ciphBuf[:0], ciph...)
	v.mac.Reset()
	v.mac.Write(v.hdrBuf[:])
	v.mac.Write(v.ciphBuf)
	v.mac.Sum(v.sumBuf[:0])
	return v.sumBuf
}

// Sum returns the MAC binding (ciphertext, address, counter) — the value
// Update would store — computed with the verifier's private state.
func (v *MACVerifier) Sum(lineNo uint64, ciph []byte, major uint64, minor uint8) Digest {
	return v.compute(lineNo, ciph, major, minor)
}

// Verify is MACStore.Verify with the verifier's own scratch state.
func (v *MACVerifier) Verify(lineNo uint64, ciph []byte, major uint64, minor uint8) error {
	p := v.s.page(lineNo, false)
	if p == nil {
		return nil
	}
	slot := lineNo % macPageLines
	if p.present&(1<<slot) == 0 {
		return nil
	}
	if got := v.compute(lineNo, ciph, major, minor); got != p.sums[slot] {
		return MACMismatch(lineNo)
	}
	return nil
}

// StoreSum installs a precomputed MAC (a MACVerifier.Sum produced by a
// parallel worker) for a line: the serial-commit half of the batched
// update path, equivalent to Update with the hash work already done.
func (s *MACStore) StoreSum(lineNo uint64, sum Digest) {
	p := s.page(lineNo, true)
	slot := lineNo % macPageLines
	p.sums[slot] = sum
	p.present |= 1 << slot
}
