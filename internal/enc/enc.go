// Package enc implements the counter-mode memory encryption engine of a
// secure NVM controller (paper Fig. 1). Each 64-byte cacheline is encrypted
// by XOR with a one-time pad (OTP). The OTP is derived from an
// initialisation vector that concatenates padding, the line's physical
// address, and the line's encryption counter (major ‖ minor), so that pads
// are spatially unique (address) and temporally unique (counter increments
// on every write).
//
// The pad for a 64-byte line is produced by four AES-128 invocations in a
// CBC-MAC-style PRF: first the (line address ‖ major counter) tuple is
// encrypted into a tweak, then each 16-byte pad block i is
// AES(tweak XOR (minor ‖ i ‖ padding)). This keeps the construction a
// permutation-based PRF over the full (address, major, minor, i) tuple, so
// distinct tuples yield independent pads, which is the property
// counter-mode encryption needs.
package enc

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"
)

// LineBytes is the encryption granularity: one cacheline.
const LineBytes = 64

// padBlocks is the number of 16-byte AES blocks per line pad.
const padBlocks = LineBytes / aes.BlockSize

// tweakSlots sizes the direct-mapped tweak cache (a power of two, indexed
// by the line number's low bits). 256 entries cover the simulator's working
// sets well while costing ~10 KB per engine.
const tweakSlots = 256

// tweakEntry caches the first-stage AES output for one (lineNo, major)
// pair. The tweak is a pure function of that pair, so entries never need
// invalidation — a new major for the same line simply overwrites the slot.
type tweakEntry struct {
	lineNo uint64
	major  uint64
	valid  bool
	tweak  [aes.BlockSize]byte
}

// Engine is the controller's encryption engine: it generates one-time
// pads, applies them to cachelines and counts them. Not safe for
// concurrent use (each simulated machine owns its engine).
type Engine struct {
	block cipher.Block

	// tweaks caches the (lineNo ‖ major) AES stage: repeated pads on the
	// same line (read-modify-write traffic, minor-counter advances,
	// re-encryption sweeps) cost 4 AES invocations instead of 5.
	tweaks [tweakSlots]tweakEntry

	// in/pad are scratch blocks handed to the cipher.Block interface, kept
	// in the struct so pad generation does not allocate.
	in  [aes.BlockSize]byte
	pad [LineBytes]byte

	// Pads counts logical pad generations (one per line encryption or
	// decryption), booked with NotePads: Pad, Crypt, Encrypt and Decrypt
	// count nothing, and a tweak-cache hit is still one pad.
	Pads uint64
}

// Pad computes the 64-byte one-time pad for the line identified by its
// physical line number (byte address >> 6) and its encryption counter.
func (e *Engine) Pad(lineNo uint64, major uint64, minor uint8) [LineBytes]byte {
	slot := &e.tweaks[lineNo%tweakSlots]
	if !slot.valid || slot.lineNo != lineNo || slot.major != major {
		e.in = [aes.BlockSize]byte{}
		binary.LittleEndian.PutUint64(e.in[0:8], lineNo)
		binary.LittleEndian.PutUint64(e.in[8:16], major)
		e.block.Encrypt(slot.tweak[:], e.in[:])
		slot.lineNo, slot.major, slot.valid = lineNo, major, true
	}
	for i := 0; i < padBlocks; i++ {
		e.in = slot.tweak
		e.in[0] ^= minor
		e.in[1] ^= byte(i)
		e.block.Encrypt(e.pad[i*aes.BlockSize:(i+1)*aes.BlockSize], e.in[:])
	}
	return e.pad
}

// Crypt XORs src with the pad for (lineNo, major, minor) into dst.
// Counter-mode encryption and decryption are the same operation.
func (e *Engine) Crypt(dst, src *[LineBytes]byte, lineNo uint64, major uint64, minor uint8) {
	pad := e.Pad(lineNo, major, minor)
	for i := range dst {
		dst[i] = src[i] ^ pad[i]
	}
}

// Encrypt is Crypt with naming that reads well at write sites.
func (e *Engine) Encrypt(plain *[LineBytes]byte, lineNo uint64, major uint64, minor uint8) [LineBytes]byte {
	var out [LineBytes]byte
	e.Crypt(&out, plain, lineNo, major, minor)
	return out
}

// Decrypt is Crypt with naming that reads well at read sites.
func (e *Engine) Decrypt(ciph *[LineBytes]byte, lineNo uint64, major uint64, minor uint8) [LineBytes]byte {
	var out [LineBytes]byte
	e.Crypt(&out, ciph, lineNo, major, minor)
	return out
}

// New creates an engine keyed with the given 16-byte AES-128 key.
func New(key []byte) (*Engine, error) {
	if len(key) != 16 {
		return nil, fmt.Errorf("enc: key must be 16 bytes, got %d", len(key))
	}
	b, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	return &Engine{block: b}, nil
}

// NotePads records n logical pad generations. Pad generation counts
// nothing, so the controller books every pad of a line operation here, in
// one place: the pads the full data plane generates and timing-only
// fidelity (core.FidelityTiming) elides, so the Pads counter is identical
// across fidelities.
func (e *Engine) NotePads(n uint64) { e.Pads += n }
