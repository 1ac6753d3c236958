package core

import "fmt"

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
//     traffic, BMT accounting (update/verify counts, dirty-path marks) and
//     latency arithmetic, but skips pad generation, MAC computation and
//     verification, Merkle hashing, and the physical byte movement of the
//     re-encryption sweep. Data lines are stored as plaintext: the exact
//     bytes must keep moving because two behaviours are content-dependent
//     (Silent Shredder's all-zero write elision and KSM's page compare),
//     and plaintext is what both need. Integrity violations are NOT
//     detected in this mode — it exists purely to make measurement grids
//     cheap on the host.
//
// A differential test pins that the full quick experiment grid produces
// byte-identical reports under both fidelities (see DESIGN.md §10).
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
