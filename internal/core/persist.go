package core

import (
	"fmt"
	"strconv"
	"strings"
)

// PersistStrategy abstracts the engine's metadata persistence policy: which
// parts of the integrity metadata (Bonsai Merkle Tree leaf digests and
// inner nodes) are persisted alongside every counter-block write, and
// whether supplementary CoW-table updates write through to NVM eagerly or
// sit dirty in the reserved CoW cache until eviction or drain.
//
// The design space is the one the secure-NVM recovery literature maps out:
//
//   - Strict write-through (the historical behaviour and the default):
//     every persist point lands durably in program order. Recovery only
//     re-verifies.
//   - Phoenix-style lazy tree (Phoenix, Alwadi et al.): counter blocks and
//     their leaf digests persist eagerly, the tree interior is volatile
//     on-chip state rebuilt bottom-up after a crash — runtime write
//     overhead shrinks, recovery time grows by the rebuild.
//   - Triad-NVM-style leveled persistence (Triad-NVM, Alwadi et al.): the
//     number of persisted metadata levels is a knob. Level 1 persists the
//     counters only (even leaf digests are reconstructed from the NVM
//     image at recovery), level 2 adds the leaf digests, each further
//     level one more inner tree level, converging on strict.
//
// A strategy only chooses *when* metadata becomes durable; the persist
// points themselves (and their fault-plane hooks) are shared, so the crash
// sweep and its read-back oracle serve unchanged as the correctness
// harness for every strategy.
//
// A strategy is a value: the number of persisted metadata levels and
// whether the CoW-table inserts are lazy. The zero value is strict.
type PersistStrategy struct {
	// levels is the number of persisted metadata levels (Triad-NVM's
	// knob): 1 = counters, 2 = +leaf digests, each further level one more
	// inner tree level. 0 persists every level (strict).
	levels int
	// phoenix names the Phoenix strategy: triad:2's durability with
	// CoW-table inserts deferred to eviction or drain.
	phoenix bool
}

// Name is the CLI-facing identifier ("strict", "phoenix", "triad:N").
func (s PersistStrategy) Name() string {
	switch {
	case s.phoenix:
		return "phoenix"
	case s.levels == 0:
		return "strict"
	}
	return fmt.Sprintf("triad:%d", s.levels)
}

// LeafDigestsDurable reports whether BMT leaf digests survive a crash
// (persisted eagerly with their counter blocks). When false, recovery
// rebuilds every leaf digest from the NVM counter image, adopting it as
// ground truth — torn counter writes then surface as MAC mismatches instead
// of leaf-digest mismatches.
func (s PersistStrategy) LeafDigestsDurable() bool { return s.levels != 1 }

// DurableInnerLevels reports how many of the tree's innerLevels (above the
// leaf-digest level) are persisted. Non-durable levels are rebuilt at
// recovery and charged an extra device read per node.
func (s PersistStrategy) DurableInnerLevels(innerLevels int) int {
	if s.levels == 0 {
		return innerLevels
	}
	return min(max(s.levels-2, 0), innerLevels)
}

// EagerCoWMeta reports whether supplementary CoW-table inserts write
// through to NVM immediately (true) or sit dirty in the CoW cache until
// eviction or a metadata drain (false). Erasures always write through
// regardless — deferring a removal could resurrect a stale durable mapping
// through the read path.
func (s PersistStrategy) EagerCoWMeta() bool { return !s.phoenix && s.levels != 1 }

// NodesPerCounterPersist is the modeled number of metadata-tree nodes made
// durable per counter-block persist (leaf digest plus persisted inner
// path), given the tree's total level count. It feeds the
// Stats.TreePersistWrites runtime-write-overhead model and never generates
// device traffic itself.
func (s PersistStrategy) NodesPerCounterPersist(treeLevels int) uint64 {
	n := treeLevels
	if s.levels != 0 {
		n = min(s.levels-1, treeLevels)
	}
	return uint64(max(n, 0))
}

// StrictPersist returns the strict write-through strategy: every metadata
// persist point lands durably in program order. It is the zero value, the
// default.
func StrictPersist() PersistStrategy { return PersistStrategy{} }

// PhoenixPersist returns the Phoenix-style lazy-tree strategy: counter
// blocks and leaf digests persist eagerly, the tree interior and the
// supplementary CoW-table inserts are volatile until eviction or drain,
// and recovery rebuilds the interior bottom-up.
func PhoenixPersist() PersistStrategy { return PersistStrategy{levels: 2, phoenix: true} }

// TriadPersist returns the Triad-NVM-style leveled strategy persisting the
// given number of metadata levels: 1 persists counters only, 2 adds the
// leaf digests (and eager CoW metadata), each further level one more inner
// tree level. Levels below 1 are clamped to 1.
func TriadPersist(level int) PersistStrategy {
	return PersistStrategy{levels: max(level, 1)}
}

// ParsePersist maps a CLI persistence-strategy name — "strict", "phoenix"
// or "triad:N" — to its PersistStrategy.
func ParsePersist(name string) (PersistStrategy, error) {
	switch {
	case name == "" || name == "strict":
		return StrictPersist(), nil
	case name == "phoenix":
		return PhoenixPersist(), nil
	case strings.HasPrefix(name, "triad:"):
		n, err := strconv.Atoi(strings.TrimPrefix(name, "triad:"))
		if err != nil || n < 1 {
			return PersistStrategy{}, fmt.Errorf("core: bad triad persistence level in %q (want triad:N with N >= 1)", name)
		}
		return TriadPersist(n), nil
	}
	return PersistStrategy{}, fmt.Errorf("core: unknown persistence strategy %q (want strict, phoenix or triad:N)", name)
}
