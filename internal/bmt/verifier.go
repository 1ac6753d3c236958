package bmt

import (
	"encoding/binary"
	"fmt"
)

// Tag is one data-line MAC, a 16-byte GCM tag, exported so a data-line
// write can carry the MAC it sealed into a StoreSum commit.
type Tag [16]byte

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
	g, ok := t.nodes[0][idx/Arity]
	if !ok || g.present&(1<<(idx%Arity)) == 0 {
		return fmt.Errorf("bmt: no leaf digest for counter block %d", idx)
	}
	if t.digest(idx, raw) != *g.get(idx % Arity) {
		return fmt.Errorf("bmt: leaf digest mismatch at counter block %d", idx)
	}
	return nil
}

// Sum returns the MAC binding (ciphertext, address, counter): the value
// StoreSum installs.
func (s *MACStore) Sum(lineNo uint64, ciph []byte, major uint64, minor uint8) Tag {
	binary.LittleEndian.PutUint64(s.nonce[0:8], lineNo)
	binary.LittleEndian.PutUint64(s.nonce[8:16], major)
	s.nonce[16] = minor
	s.ad = binary.LittleEndian.AppendUint64(append(s.ad[:0], ciph...), lineNo)
	s.gcm.Seal(s.tag[:0], s.nonce[:], nil, s.ad)
	return s.tag
}

// Verify checks a line read from NVM. Lines never written (e.g. demand-zero
// content) have no MAC yet and verify trivially; a line beyond the store's
// lines is a *LineRangeError.
func (s *MACStore) Verify(lineNo uint64, ciph []byte, major uint64, minor uint8) error {
	if lineNo >= s.lines {
		return &LineRangeError{lineNo, s.lines}
	}
	p := s.page(lineNo, false)
	if p == nil {
		return nil
	}
	slot := lineNo % macPageLines
	if p.present&(1<<slot) == 0 {
		return nil
	}
	if s.Sum(lineNo, ciph, major, minor) != p.tags[slot] {
		return MACMismatch(lineNo)
	}
	return nil
}

// StoreSum installs a line's MAC (a Sum): the commit half of every
// data-line write. A line beyond the store's lines is a *LineRangeError and
// stores nothing.
func (s *MACStore) StoreSum(lineNo uint64, sum Tag) error {
	if lineNo >= s.lines {
		return &LineRangeError{lineNo, s.lines}
	}
	p := s.page(lineNo, true)
	slot := lineNo % macPageLines
	p.tags[slot] = sum
	p.present |= 1 << slot
	return nil
}
