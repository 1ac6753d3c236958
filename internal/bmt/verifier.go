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

// LeafVerifier computes and checks leaf digests. The tree embeds one that
// shares its HMAC state; NewLeafVerifier derives independent ones with a
// private state, so the recovery scrub's pass 1 can fan page verification
// out over a goroutine pool. A derived verifier only READS the tree (the
// stored leaf map and the accounting-only flag); any concurrent tree
// mutation is the caller's bug.
type LeafVerifier struct {
	t      *Tree
	mac    hash.Hash
	idxBuf [8]byte
	sumBuf [hashSize]byte
	// rawBuf keeps a reusable copy of leaf content so the caller's buffer
	// never escapes through the hash interface.
	rawBuf []byte
}

// NewLeafVerifier derives an independent verifier over the tree's current
// leaf digests. Each pool worker must own one.
func (t *Tree) NewLeafVerifier() *LeafVerifier {
	return &LeafVerifier{t: t, mac: hmac.New(sha256.New, t.key)}
}

func (v *LeafVerifier) digest(idx uint64, raw []byte) [hashSize]byte {
	binary.LittleEndian.PutUint64(v.idxBuf[:], idx)
	v.rawBuf = append(v.rawBuf[:0], raw...)
	v.mac.Reset()
	v.mac.Write(leafTag)
	v.mac.Write(v.idxBuf[:])
	v.mac.Write(v.rawBuf)
	v.mac.Sum(v.sumBuf[:0])
	return v.sumBuf
}

// VerifyLeaf checks raw against the stored leaf digest of counter block idx
// alone, without walking to the root. The post-crash scrub uses it to
// localise torn or stale blocks: leaf digests are persisted eagerly with
// their blocks (Update computes them before the write is acknowledged), so
// a block whose NVM bytes disagree with its own digest was torn or lost
// mid-write. Accounting-only trees (timing fidelity) keep no digests and
// report success.
func (v *LeafVerifier) VerifyLeaf(idx uint64, raw []byte) error {
	if v.t.accountingOnly {
		return nil
	}
	stored, ok := v.t.nodes[0][idx]
	if !ok {
		return fmt.Errorf("bmt: no leaf digest for counter block %d", idx)
	}
	if v.digest(idx, raw) != stored {
		return fmt.Errorf("bmt: leaf digest mismatch at counter block %d", idx)
	}
	return nil
}

// MACVerifier computes and checks per-line data MACs. The store embeds one;
// NewVerifier derives independent ones with a private HMAC state, so pool
// workers in the recovery MAC scrub and the batched page engines each own
// one. Verify/Sum only read the store's pages; concurrent StoreSum/Drop
// calls are the caller's bug.
type MACVerifier struct {
	s      *MACStore
	mac    hash.Hash
	hdrBuf [17]byte
	sumBuf [hashSize]byte
	// ciphBuf is a reusable copy of the ciphertext, so the caller's (often
	// stack-resident) buffer does not escape through the hash interface.
	ciphBuf []byte
}

// NewVerifier derives an independent MAC verifier/computer from the store.
func (s *MACStore) NewVerifier() *MACVerifier {
	return &MACVerifier{s: s, mac: hmac.New(sha256.New, s.key)}
}

// Sum returns the MAC binding (ciphertext, address, counter): the value
// StoreSum installs.
func (v *MACVerifier) Sum(lineNo uint64, ciph []byte, major uint64, minor uint8) Digest {
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

// Verify checks a line read from NVM. Lines never written (e.g. demand-zero
// content) have no MAC yet and verify trivially.
func (v *MACVerifier) Verify(lineNo uint64, ciph []byte, major uint64, minor uint8) error {
	p := v.s.page(lineNo, false)
	if p == nil {
		return nil
	}
	slot := lineNo % macPageLines
	if p.present&(1<<slot) == 0 {
		return nil
	}
	if v.Sum(lineNo, ciph, major, minor) != p.sums[slot] {
		return MACMismatch(lineNo)
	}
	return nil
}

// StoreSum installs a line's MAC (a MACVerifier.Sum, possibly produced by a
// parallel worker): the serial-commit half of every data-line write.
func (s *MACStore) StoreSum(lineNo uint64, sum Digest) {
	p := s.page(lineNo, true)
	slot := lineNo % macPageLines
	p.sums[slot] = sum
	p.present |= 1 << slot
}
