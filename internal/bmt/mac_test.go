package bmt

import (
	"crypto/aes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"math/rand"
	"testing"
)

func newMACStore(tb testing.TB, key string) *MACStore {
	tb.Helper()
	s, err := NewMACStore([]byte(key), 1<<20)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

func TestZeroHashKeyRefused(t *testing.T) {
	if err := checkHashKey([aes.BlockSize]byte{}); err == nil {
		t.Fatal("a zero GHASH key was accepted")
	}
	if err := checkHashKey([aes.BlockSize]byte{15: 1}); err != nil {
		t.Fatalf("a non-zero GHASH key was refused: %v", err)
	}
}

// gfMul multiplies two elements of GCM's GF(2^128), bit by bit (NIST SP
// 800-38D, algorithm 1).
func gfMul(x, y [16]byte) [16]byte {
	var z [16]byte
	v := y
	for i := range 128 {
		if x[i/8]>>(7-i%8)&1 == 1 {
			for j := range z {
				z[j] ^= v[j]
			}
		}
		lsb := v[15] & 1
		for j := 15; j > 0; j-- {
			v[j] = v[j]>>1 | v[j-1]<<7
		}
		v[0] >>= 1
		if lsb == 1 {
			v[0] ^= 0xe1
		}
	}
	return z
}

// ghash is GHASH_H over data zero-padded to whole blocks, then one length
// block of (aBits, cBits).
func ghash(h [16]byte, data []byte, aBits, cBits uint64) [16]byte {
	var y [16]byte
	var lens [16]byte
	binary.BigEndian.PutUint64(lens[:8], aBits)
	binary.BigEndian.PutUint64(lens[8:], cBits)
	padded := append(append([]byte(nil), data...), make([]byte, (16-len(data)%16)%16)...)
	for blk := range len(padded)/16 + 1 {
		x := lens
		if blk < len(padded)/16 {
			copy(x[:], padded[blk*16:])
		}
		for j := range y {
			y[j] ^= x[j]
		}
		y = gfMul(y, h)
	}
	return y
}

// TestMACIsCarterWegmanTag checks Sum against the construction written out
// from first principles: K is SHA-256(key)[:16], H = AES_K(0^128), J0 is
// GHASH_H of the nonce line ‖ major ‖ minor, and the tag is GHASH_H(ciph ‖
// line) ⊕ AES_K(J0).
func TestMACIsCarterWegmanTag(t *testing.T) {
	s := newMACStore(t, "cw-key")
	k := sha256.Sum256([]byte("cw-key"))
	block, err := aes.NewCipher(k[:16])
	if err != nil {
		t.Fatal(err)
	}
	var h [16]byte
	block.Encrypt(h[:], h[:])
	rng := rand.New(rand.NewSource(1))
	for range 20 {
		ciph := make([]byte, 64)
		rng.Read(ciph)
		line, major, minor := rng.Uint64(), rng.Uint64(), uint8(rng.Intn(256))
		nonce := binary.LittleEndian.AppendUint64(nil, line)
		nonce = binary.LittleEndian.AppendUint64(nonce, major)
		nonce = append(nonce, minor)
		j0 := ghash(h, nonce, 0, uint64(len(nonce))*8)
		var want [16]byte
		block.Encrypt(want[:], j0[:])
		ad := binary.LittleEndian.AppendUint64(append([]byte(nil), ciph...), line)
		g := ghash(h, ad, uint64(len(ad))*8, 0)
		for j := range want {
			want[j] ^= g[j]
		}
		if got := s.Sum(line, ciph, major, minor); got != Tag(want) {
			t.Fatalf("Sum(%#x, major %d, minor %d) = %x, want %x", line, major, minor, got, want)
		}
	}
}

// hmacMACStore is the reference data MAC: HMAC-SHA256 over line ‖ major ‖
// minor ‖ ciphertext, with the MACStore's presence rule (a line with no
// stored MAC verifies trivially).
type hmacMACStore struct {
	mac  hash.Hash
	sums map[uint64][sha256.Size]byte
}

func newHMACMACStore(key []byte) *hmacMACStore {
	return &hmacMACStore{mac: hmac.New(sha256.New, key), sums: make(map[uint64][sha256.Size]byte)}
}

func (s *hmacMACStore) sum(lineNo uint64, ciph []byte, major uint64, minor uint8) [sha256.Size]byte {
	var hdr [17]byte
	binary.LittleEndian.PutUint64(hdr[0:8], lineNo)
	binary.LittleEndian.PutUint64(hdr[8:16], major)
	hdr[16] = minor
	s.mac.Reset()
	s.mac.Write(hdr[:])
	s.mac.Write(ciph)
	var out [sha256.Size]byte
	s.mac.Sum(out[:0])
	return out
}

func (s *hmacMACStore) verify(lineNo uint64, ciph []byte, major uint64, minor uint8) bool {
	want, ok := s.sums[lineNo]
	return !ok || s.sum(lineNo, ciph, major, minor) == want
}

// macVersion is one sealed write of a line: its counter and ciphertext.
type macVersion struct {
	major uint64
	minor uint8
	ciph  [64]byte
}

// FuzzMACVsHMAC drives random sequences of line writes, drops and verifies
// through the GMAC store and the HMAC-SHA256 reference side by side. The
// verifies are honest, bit-flipped ciphertext, replayed counters (a rolled
// back major or minor, with the old or the current ciphertext) and moved
// addresses (a line's ciphertext and both tags installed at another line).
// Both stores must return the same verdict on every verify, and where the
// verdict is known (honest accepts, tampered refuses) it must be that one.
func FuzzMACVsHMAC(f *testing.F) {
	ops := []byte{0, 1, 0, 2, 3, 0, 0, 3, 4, 1, 5, 1, 0, 2, 4, 3, 1}
	f.Add(int64(1), ops)
	f.Add(int64(2), []byte{0, 0, 0, 0, 3, 3, 3, 4, 4, 2, 2, 1})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		checkMACVsHMAC(t, seed, ops)
	})
}

func checkMACVsHMAC(t *testing.T, seed int64, ops []byte) {
	gm := newMACStore(t, "fuzz-mac-key")
	ref := newHMACMACStore([]byte("fuzz-mac-key"))
	rng := rand.New(rand.NewSource(seed))

	// Neighbouring lines, lines one line-number bit apart and the first
	// lines of memory, all below line 2^20 (64 MiB), so the MAC store's
	// page table stays small.
	base := uint64(rng.Intn(1 << 20))
	lines := []uint64{base, base ^ 1, base ^ 1<<10, base ^ 1<<19, 0, 1}
	hist := make(map[uint64][]macVersion) // per line, oldest first
	sealed := make(map[uint64]bool)       // holds a MAC (not dropped)
	var written []uint64

	pickWritten := func() (uint64, bool) {
		if len(written) == 0 {
			return 0, false
		}
		return written[rng.Intn(len(written))], true
	}
	check := func(step int, kind string, line uint64, ciph []byte, major uint64, minor uint8, want int) {
		t.Helper()
		if !sealed[line] {
			want = 1 // no MAC: every read verifies trivially
		}
		got, refGot := gm.Verify(line, ciph, major, minor) == nil, ref.verify(line, ciph, major, minor)
		if got != refGot {
			t.Fatalf("step %d (%s, line %#x): GMAC accepts=%v, HMAC accepts=%v", step, kind, line, got, refGot)
		}
		if want >= 0 && got != (want == 1) {
			t.Fatalf("step %d (%s, line %#x): accepted=%v, want %v", step, kind, line, got, want == 1)
		}
	}

	for step, op := range ops {
		switch op % 6 {
		case 0: // write: the next counter value and fresh ciphertext
			line := lines[rng.Intn(len(lines))]
			v := macVersion{minor: 1}
			if h := hist[line]; len(h) > 0 {
				v.major, v.minor = h[len(h)-1].major, h[len(h)-1].minor+1
				if v.minor == 0 || rng.Intn(8) == 0 {
					v.major, v.minor = v.major+1, 1
				}
			} else {
				written = append(written, line)
			}
			rng.Read(v.ciph[:])
			gm.StoreSum(line, gm.Sum(line, v.ciph[:], v.major, v.minor))
			ref.sums[line] = ref.sum(line, v.ciph[:], v.major, v.minor)
			hist[line] = append(hist[line], v)
			sealed[line] = true
		case 1: // honest read of the current version
			if line, ok := pickWritten(); ok {
				v := hist[line][len(hist[line])-1]
				check(step, "honest", line, v.ciph[:], v.major, v.minor, -1)
			}
		case 2: // bit-flipped ciphertext
			if line, ok := pickWritten(); ok {
				v := hist[line][len(hist[line])-1]
				bit := rng.Intn(len(v.ciph) * 8)
				v.ciph[bit/8] ^= 1 << (bit % 8)
				check(step, "bit flip", line, v.ciph[:], v.major, v.minor, 0)
			}
		case 3: // replayed counter: an earlier version, or the current
			// ciphertext under an earlier counter
			if line, ok := pickWritten(); ok && len(hist[line]) > 1 {
				h := hist[line]
				old, cur := h[rng.Intn(len(h)-1)], h[len(h)-1]
				ciph := old.ciph
				if rng.Intn(2) == 0 {
					ciph = cur.ciph
				}
				check(step, "replay", line, ciph[:], old.major, old.minor, 0)
			}
		case 4: // moved address: both tags and the ciphertext at another line
			from, ok := pickWritten()
			to := lines[rng.Intn(len(lines))]
			if !ok || to == from {
				continue
			}
			v := hist[from][len(hist[from])-1]
			gm.StoreSum(to, gm.Sum(from, v.ciph[:], v.major, v.minor))
			ref.sums[to] = ref.sum(from, v.ciph[:], v.major, v.minor)
			sealed[to] = true
			check(step, "moved", to, v.ciph[:], v.major, v.minor, 0)
			// The line's own history is untouched: its reads refuse in
			// both until its next write seals it under its next counter.
		case 5: // drop: the line forgets its MAC and verifies trivially
			if line, ok := pickWritten(); ok {
				gm.Drop(line)
				delete(ref.sums, line)
				sealed[line] = false
				v := hist[line][len(hist[line])-1]
				v.ciph[0] ^= 1
				check(step, "dropped", line, v.ciph[:], v.major, v.minor, 1)
			}
		}
	}
}
