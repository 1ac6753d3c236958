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
//     image at recovery), level 2 adds the leaf digests and the lowest
//     inner level, higher levels converge on strict.
//
// A strategy only chooses *when* metadata becomes durable; the persist
// points themselves (and their fault-plane hooks) are shared, so the crash
// sweep and its read-back oracle serve unchanged as the correctness
// harness for every strategy.
type PersistStrategy interface {
	// Name is the CLI-facing identifier ("strict", "phoenix", "triad:N").
	Name() string
	// LeafDigestsDurable reports whether BMT leaf digests survive a crash
	// (persisted eagerly with their counter blocks). When false, recovery
	// rebuilds every leaf digest from the NVM counter image, adopting it
	// as ground truth — torn counter writes then surface as MAC
	// mismatches instead of leaf-digest mismatches.
	LeafDigestsDurable() bool
	// DurableInnerLevels reports how many of the tree's innerLevels
	// (above the leaf-digest level) are persisted. Non-durable levels are
	// rebuilt at recovery and charged an extra device read per node.
	DurableInnerLevels(innerLevels int) int
	// EagerCoWMeta reports whether supplementary CoW-table inserts write
	// through to NVM immediately (true) or sit dirty in the CoW cache
	// until eviction or a metadata drain (false). Erasures always write
	// through regardless — deferring a removal could resurrect a stale
	// durable mapping through the read path.
	EagerCoWMeta() bool
	// NodesPerCounterPersist is the modeled number of metadata-tree nodes
	// made durable per counter-block persist (leaf digest plus persisted
	// inner path), given the tree's total level count. It feeds the
	// Stats.TreePersistWrites runtime-write-overhead model and never
	// generates device traffic itself.
	NodesPerCounterPersist(treeLevels int) uint64
}

type strictPersist struct{}

func (strictPersist) Name() string                 { return "strict" }
func (strictPersist) LeafDigestsDurable() bool     { return true }
func (strictPersist) DurableInnerLevels(n int) int { return n }
func (strictPersist) EagerCoWMeta() bool           { return true }
func (strictPersist) NodesPerCounterPersist(treeLevels int) uint64 {
	if treeLevels < 1 {
		return 0
	}
	return uint64(treeLevels)
}

type phoenixPersist struct{}

func (phoenixPersist) Name() string               { return "phoenix" }
func (phoenixPersist) LeafDigestsDurable() bool   { return true }
func (phoenixPersist) DurableInnerLevels(int) int { return 0 }
func (phoenixPersist) EagerCoWMeta() bool         { return false }
func (phoenixPersist) NodesPerCounterPersist(treeLevels int) uint64 {
	if treeLevels < 1 {
		return 0
	}
	return 1 // the leaf digest only; the interior is volatile
}

type triadPersist struct{ level int }

func (t triadPersist) Name() string             { return fmt.Sprintf("triad:%d", t.level) }
func (t triadPersist) LeafDigestsDurable() bool { return t.level >= 2 }
func (t triadPersist) DurableInnerLevels(innerLevels int) int {
	n := t.level - 2 // level 1 = counters, level 2 = +leaf digests, 3+ = inner
	if n < 0 {
		n = 0
	}
	if n > innerLevels {
		n = innerLevels
	}
	return n
}
func (t triadPersist) EagerCoWMeta() bool { return t.level >= 2 }
func (t triadPersist) NodesPerCounterPersist(treeLevels int) uint64 {
	n := t.level - 1 // persisted tree levels: digests + inner
	if n < 0 {
		n = 0
	}
	if n > treeLevels {
		n = treeLevels
	}
	return uint64(n)
}

// StrictPersist returns the strict write-through strategy: every metadata
// persist point lands durably in program order. This is the default — a
// nil Config.Persist behaves identically.
func StrictPersist() PersistStrategy { return strictPersist{} }

// PhoenixPersist returns the Phoenix-style lazy-tree strategy: counter
// blocks and leaf digests persist eagerly, the tree interior and the
// supplementary CoW-table inserts are volatile until eviction or drain,
// and recovery rebuilds the interior bottom-up.
func PhoenixPersist() PersistStrategy { return phoenixPersist{} }

// TriadPersist returns the Triad-NVM-style leveled strategy persisting the
// given number of metadata levels: 1 persists counters only, 2 adds the
// leaf digests (and eager CoW metadata), each further level one more inner
// tree level. Levels below 1 are clamped to 1.
func TriadPersist(level int) PersistStrategy {
	if level < 1 {
		level = 1
	}
	return triadPersist{level: level}
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
			return nil, fmt.Errorf("core: bad triad persistence level in %q (want triad:N with N >= 1)", name)
		}
		return TriadPersist(n), nil
	}
	return nil, fmt.Errorf("core: unknown persistence strategy %q (want strict, phoenix or triad:N)", name)
}

// strategy returns the engine's persistence strategy, defaulting a nil
// Config.Persist to strict write-through so the zero-value configuration
// keeps the historical behaviour bit for bit.
func (e *Engine) strategy() PersistStrategy {
	if e.cfg.Persist == nil {
		return strictPersist{}
	}
	return e.cfg.Persist
}
