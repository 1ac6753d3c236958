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
// sets well while costing ~10 KB per worker.
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

// Worker generates one-time pads and applies them to cachelines. It owns
// its tweak cache and scratch blocks and shares only the AES key schedule
// (cipher.Block's Encrypt is safe for concurrent use), so a goroutine pool
// can give each worker its own and crypt independent lines concurrently.
// A Worker counts nothing: pad accounting belongs to the Engine.
type Worker struct {
	block cipher.Block

	// tweaks caches the (lineNo ‖ major) AES stage: repeated pads on the
	// same line (read-modify-write traffic, minor-counter advances,
	// re-encryption sweeps) cost 4 AES invocations instead of 5.
	tweaks [tweakSlots]tweakEntry

	// in/pad are scratch blocks handed to the cipher.Block interface, kept
	// in the struct so pad generation does not allocate.
	in  [aes.BlockSize]byte
	pad [LineBytes]byte
}

// Pad computes the 64-byte one-time pad for the line identified by its
// physical line number (byte address >> 6) and its encryption counter.
func (w *Worker) Pad(lineNo uint64, major uint64, minor uint8) [LineBytes]byte {
	slot := &w.tweaks[lineNo%tweakSlots]
	if !slot.valid || slot.lineNo != lineNo || slot.major != major {
		w.in = [aes.BlockSize]byte{}
		binary.LittleEndian.PutUint64(w.in[0:8], lineNo)
		binary.LittleEndian.PutUint64(w.in[8:16], major)
		w.block.Encrypt(slot.tweak[:], w.in[:])
		slot.lineNo, slot.major, slot.valid = lineNo, major, true
	}
	for i := 0; i < padBlocks; i++ {
		w.in = slot.tweak
		w.in[0] ^= minor
		w.in[1] ^= byte(i)
		w.block.Encrypt(w.pad[i*aes.BlockSize:(i+1)*aes.BlockSize], w.in[:])
	}
	return w.pad
}

// Crypt XORs src with the pad for (lineNo, major, minor) into dst.
// Counter-mode encryption and decryption are the same operation.
func (w *Worker) Crypt(dst, src *[LineBytes]byte, lineNo uint64, major uint64, minor uint8) {
	pad := w.Pad(lineNo, major, minor)
	for i := range dst {
		dst[i] = src[i] ^ pad[i]
	}
}

// Encrypt is Crypt with naming that reads well at write sites.
func (w *Worker) Encrypt(plain *[LineBytes]byte, lineNo uint64, major uint64, minor uint8) [LineBytes]byte {
	var out [LineBytes]byte
	w.Crypt(&out, plain, lineNo, major, minor)
	return out
}

// Decrypt is Crypt with naming that reads well at read sites.
func (w *Worker) Decrypt(ciph *[LineBytes]byte, lineNo uint64, major uint64, minor uint8) [LineBytes]byte {
	var out [LineBytes]byte
	w.Crypt(&out, ciph, lineNo, major, minor)
	return out
}

// Engine is the controller's encryption engine: its own Worker plus the
// pad count. Not safe for concurrent use (each simulated machine owns its
// engine); pool workers derive private Workers with NewWorker.
type Engine struct {
	Worker
	// Pads counts pad generations (one per line encryption/decryption),
	// used by the timing model (24-cycle AES latency, overlapped with the
	// data fetch). It counts logical pad generations: a tweak-cache hit
	// still increments it, the timing model is unchanged.
	Pads uint64
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
	return &Engine{Worker: Worker{block: b}}, nil
}

// NewWorker derives an independent pad generator from the engine.
func (e *Engine) NewWorker() *Worker { return &Worker{block: e.block} }

// NotePads records n logical pad generations without computing them: the
// accounting for pads a batch's workers generated, and, under timing-only
// fidelity (core.FidelityTiming), for every pad the full data plane would
// have generated, so the Pads counter is identical across fidelities.
func (e *Engine) NotePads(n uint64) { e.Pads += n }

// Pad is Worker.Pad, counted.
func (e *Engine) Pad(lineNo uint64, major uint64, minor uint8) [LineBytes]byte {
	e.Pads++
	return e.Worker.Pad(lineNo, major, minor)
}

// Crypt is Worker.Crypt, counted.
func (e *Engine) Crypt(dst, src *[LineBytes]byte, lineNo uint64, major uint64, minor uint8) {
	e.Pads++
	e.Worker.Crypt(dst, src, lineNo, major, minor)
}

// Encrypt is Worker.Encrypt, counted.
func (e *Engine) Encrypt(plain *[LineBytes]byte, lineNo uint64, major uint64, minor uint8) [LineBytes]byte {
	e.Pads++
	return e.Worker.Encrypt(plain, lineNo, major, minor)
}

// Decrypt is Worker.Decrypt, counted.
func (e *Engine) Decrypt(ciph *[LineBytes]byte, lineNo uint64, major uint64, minor uint8) [LineBytes]byte {
	e.Pads++
	return e.Worker.Decrypt(ciph, lineNo, major, minor)
}
