package bmt

import (
	"encoding/binary"
	"fmt"
)

// Digest is one HMAC-SHA256 sum, exported so a data-line write can carry
// the MAC it sealed into a StoreSum commit.
type Digest [hashSize]byte

// digest is the leaf digest of counter block idx with content raw.
func (t *Tree) digest(idx uint64, raw []byte) [hashSize]byte {
	binary.LittleEndian.PutUint64(t.idxBuf[:], idx)
	t.rawBuf = append(t.rawBuf[:0], raw...)
	t.mac.Reset()
	t.mac.Write(leafTag)
	t.mac.Write(t.idxBuf[:])
	t.mac.Write(t.rawBuf)
	return t.finish()
}

// VerifyLeaf checks raw against the stored leaf digest of counter block idx
// alone, without walking to the root. The post-crash scrub uses it to
// localise torn or stale blocks: leaf digests are persisted eagerly with
// their blocks (Update computes them before the write is acknowledged), so
// a block whose NVM bytes disagree with its own digest was torn or lost
// mid-write. Accounting-only trees (timing fidelity) keep no digests and
// report success.
func (t *Tree) VerifyLeaf(idx uint64, raw []byte) error {
	if t.accountingOnly {
		return nil
	}
	stored, ok := t.nodes[0][idx]
	if !ok {
		return fmt.Errorf("bmt: no leaf digest for counter block %d", idx)
	}
	if t.digest(idx, raw) != stored {
		return fmt.Errorf("bmt: leaf digest mismatch at counter block %d", idx)
	}
	return nil
}

// Sum returns the MAC binding (ciphertext, address, counter): the value
// StoreSum installs.
func (s *MACStore) Sum(lineNo uint64, ciph []byte, major uint64, minor uint8) Digest {
	binary.LittleEndian.PutUint64(s.hdrBuf[0:8], lineNo)
	binary.LittleEndian.PutUint64(s.hdrBuf[8:16], major)
	s.hdrBuf[16] = minor
	s.ciphBuf = append(s.ciphBuf[:0], ciph...)
	s.mac.Reset()
	s.mac.Write(s.hdrBuf[:])
	s.mac.Write(s.ciphBuf)
	s.mac.Sum(s.sumBuf[:0])
	return s.sumBuf
}

// Verify checks a line read from NVM. Lines never written (e.g. demand-zero
// content) have no MAC yet and verify trivially.
func (s *MACStore) Verify(lineNo uint64, ciph []byte, major uint64, minor uint8) error {
	p := s.page(lineNo, false)
	if p == nil {
		return nil
	}
	slot := lineNo % macPageLines
	if p.present&(1<<slot) == 0 {
		return nil
	}
	if s.Sum(lineNo, ciph, major, minor) != p.sums[slot] {
		return MACMismatch(lineNo)
	}
	return nil
}

// StoreSum installs a line's MAC (a Sum): the commit half of every
// data-line write.
func (s *MACStore) StoreSum(lineNo uint64, sum Digest) {
	p := s.page(lineNo, true)
	slot := lineNo % macPageLines
	p.sums[slot] = sum
	p.present |= 1 << slot
}
