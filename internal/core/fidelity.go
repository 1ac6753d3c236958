package core

import (
	"fmt"

	"lelantus/internal/bmt"
	"lelantus/internal/enc"
	"lelantus/internal/mem"
)

// Fidelity selects how much of the functional data plane the engine
// actually computes. Every number the simulator reports — latencies, NVM
// traffic, counter and overflow statistics, cache and TLB behaviour — is
// independent of data *contents*, so the cryptographic computations can be
// elided without changing a single reported byte (the classic
// functional/timing split of architecture simulators).
//
//   - FidelityFull (the zero value) computes everything: AES-CTR pads,
//     per-line data MACs, Merkle-tree hashes, ciphertext at rest. All
//     tests of security invariants (tamper detection, pad uniqueness,
//     crash recovery) require Full.
//   - FidelityTiming performs identical counter reads/writes, cache/TLB
//     traffic, BMT accounting (update/verify counts, leaf presence),
//     data persists and latency arithmetic, but skips pad generation, MAC
//     computation and verification, and Merkle hashing. Data lines are
//     stored as plaintext: the exact bytes must keep moving because two
//     behaviours are content-dependent (Silent Shredder's all-zero write
//     elision and KSM's page compare), and plaintext is what both need.
//     Integrity violations are NOT detected in this mode, except a data
//     line whose last persist a crash cut short, which the fault plane
//     remembers — it exists purely to make measurement grids cheap on the
//     host.
//
// Fidelity picks the at-rest image, not the code: every data-line path
// calls lineCrypto.open and lineCrypto.seal, and only what those two
// compute differs between the modes (DESIGN.md §10). A differential test
// pins that the full quick experiment grid produces byte-identical reports
// under both fidelities.
type Fidelity int

const (
	// FidelityFull computes the complete crypto data plane (default).
	FidelityFull Fidelity = iota
	// FidelityTiming elides crypto while keeping timing and statistics
	// identical to FidelityFull.
	FidelityTiming
)

var fidelityNames = [...]string{"full", "timing"}

func (f Fidelity) String() string {
	if int(f) < len(fidelityNames) {
		return fidelityNames[f]
	}
	return fmt.Sprintf("Fidelity(%d)", int(f))
}

// ParseFidelity maps a name (as accepted by the CLI tools) to a Fidelity.
func ParseFidelity(name string) (Fidelity, error) {
	for i, n := range fidelityNames {
		if n == name {
			return Fidelity(i), nil
		}
	}
	return 0, fmt.Errorf("core: unknown fidelity %q (want full or timing)", name)
}

// atRest is what a data line's NVM bytes hold. The engine's mode picks it
// once; the line paths never ask again.
type atRest uint8

const (
	restCipher atRest = iota // FidelityFull: ciphertext under a per-line MAC
	restTimed                // FidelityTiming: plaintext; the fault plane's torn record stands in for the MAC
	restPlain                // NonSecure (paper Section III-G): plaintext, no pad, no MAC
)

func restFor(cfg Config) atRest {
	switch {
	case cfg.NonSecure:
		return restPlain
	case cfg.Fidelity == FidelityTiming:
		return restTimed
	}
	return restCipher
}

// lineCrypto is the engine's crypto state — its pad generator and data-MAC
// store — and the seam every data-line path goes through: open reads a
// line's at-rest image, seal makes one.
type lineCrypto struct {
	enc  *enc.Engine
	mac  *bmt.MACStore
	rest atRest
	e    *Engine // for the fault plane's torn-line record
}

// open turns the at-rest image of the line at addr, written under counter
// (major, minor), into its plaintext: check the MAC, then decrypt. With
// plaintext at rest the image is the plaintext; timing fidelity rejects it
// exactly where the MAC would have, when the line's last persist did not
// land in full.
func (c *lineCrypto) open(addr, major uint64, minor uint8, img *[mem.LineBytes]byte) ([mem.LineBytes]byte, error) {
	switch c.rest {
	case restPlain:
		return *img, nil
	case restTimed:
		if c.e.fi != nil && c.e.fi.Torn(addr) {
			return zeroLine, bmt.MACMismatch(mem.LineNo(addr))
		}
		return *img, nil
	}
	lineNo := mem.LineNo(addr)
	if err := c.mac.Verify(lineNo, img[:], major, minor); err != nil {
		return zeroLine, err
	}
	return c.enc.Decrypt(img, lineNo, major, minor), nil
}

// seal makes the at-rest image of plaintext for line lineNo under counter
// (major, minor) and the MAC the store must hold for it: encrypt, then MAC.
// With plaintext at rest the image is the plaintext and there is no MAC.
func (c *lineCrypto) seal(lineNo, major uint64, minor uint8, plain *[mem.LineBytes]byte) (img [mem.LineBytes]byte, sum bmt.Tag) {
	if c.rest != restCipher {
		return *plain, sum
	}
	img = c.enc.Encrypt(plain, lineNo, major, minor)
	return img, c.mac.Sum(lineNo, img[:], major, minor)
}

// storeMAC installs a sealed line's MAC; plaintext at rest keeps none. A
// line the MAC store does not cover is corrupt metadata.
func (e *Engine) storeMAC(lineNo uint64, sum *bmt.Tag) error {
	if e.own.rest != restCipher {
		return nil
	}
	if err := e.img.MACs.StoreSum(lineNo, *sum); err != nil {
		return fmt.Errorf("%w: %w", ErrMetadataCorrupt, err)
	}
	return nil
}

// countPads books the n pads of one line operation: those the full data
// plane generates, which timing fidelity elides at the same count.
// Non-secure mode generates none.
func (e *Engine) countPads(n uint64) {
	if e.own.rest != restPlain {
		e.Enc.NotePads(n)
	}
}
