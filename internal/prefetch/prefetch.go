// Package prefetch implements the metadata prefetch unit of the secure
// memory controller: a compact delta-pattern predictor over counter-block
// and CoW-table page accesses plus a redirect-chain-walk trigger filter.
//
// The unit is pure prediction state — it owns no caches, issues no device
// traffic and charges no time. The core engine consults it on every demand
// metadata access and performs the actual timed fills (see core's
// prefetch.go), so the unit stays trivially testable and the engine keeps
// the single-writer discipline over banks, MSHRs and statistics.
//
// Everything prefetched is volatile-ahead state: a speculatively fetched
// counter block or CoW entry is a clean copy of durable NVM bytes placed in
// an on-chip cache, exactly like a demand fill. A crash discards it with the
// rest of the cache contents, so crash consistency is unaffected by
// construction (the Phoenix/Triad durable-volatile split in DESIGN.md §13).
package prefetch

import (
	"fmt"
	"strings"
)

// Mode selects which prefetch mechanisms run.
type Mode int

const (
	// Off disables the unit entirely: the engine never allocates one and
	// every hook site pays a single nil compare — byte-identical reports.
	Off Mode = iota
	// Delta runs the delta-pattern prefetcher over metadata page accesses.
	Delta
	// Chain runs the redirect-chain walker on first touch of a redirected
	// page.
	Chain
	// Both runs both mechanisms.
	Both
)

var modeNames = [...]string{"off", "delta", "chain", "both"}

func (m Mode) String() string {
	if int(m) < len(modeNames) {
		return modeNames[m]
	}
	return fmt.Sprintf("prefetch.Mode(%d)", int(m))
}

// ParseMode maps a -prefetch flag value to a Mode (empty means Off).
func ParseMode(s string) (Mode, error) {
	switch strings.ToLower(s) {
	case "off", "":
		return Off, nil
	case "delta":
		return Delta, nil
	case "chain":
		return Chain, nil
	case "both":
		return Both, nil
	}
	return Off, fmt.Errorf("unknown prefetch mode %q (want off, delta, chain or both)", s)
}

// DefaultDepth is the prefetch degree when Config.Depth is unset: how many
// pages ahead the delta prefetcher runs once a stride is confident.
const DefaultDepth = 4

// Config tunes the unit. The zero value is disabled — every report byte
// then matches the prefetch-free engine.
type Config struct {
	Mode Mode
	// Depth is the delta prefetch degree (<= 0 selects DefaultDepth).
	Depth int
}

// depth resolves the configured prefetch degree.
func (c Config) depth() int {
	if c.Depth > 0 {
		return c.Depth
	}
	return DefaultDepth
}

// Enabled reports whether the configuration activates the unit at all.
func (c Config) Enabled() bool { return c.Mode != Off }

// tableSize is the delta-pattern table size (direct-mapped). 64 entries of
// four words each keep the structure within a few hundred on-chip bytes —
// the compact-engine budget of the SupraX-style delta predictors.
const tableSize = 64

// regionShift groups pages into 64-page (256 KB) training regions: one
// table entry tracks one region's access stride, so concurrent streams
// (parent pages, child pages, metadata sweeps) train independent entries
// instead of destroying each other's pattern.
const regionShift = 6

// confMax and confThreshold are the saturating-confidence bounds of the
// classic stride FSM: two consecutive confirmations arm the entry.
const (
	confMax       = 3
	confThreshold = 2
)

// filterSize is the chain-walk trigger filter (direct-mapped, one recently
// walked destination page per slot). A hash collision merely re-admits a
// walk; the walker itself skips hops whose metadata is already cached.
const filterSize = 256

// walkCap bounds one chain walk — chains this deep never arise (the engine
// caps pages at 64 lines and every hop needs a live mapping), but the
// walker must not loop if metadata is corrupt.
const walkCap = 64

type deltaEntry struct {
	tag   uint64 // region id + 1 (0 = empty)
	last  uint64 // last page seen in the region
	delta int64  // last learned stride
	conf  uint8
}

// Unit is the prefetch predictor state owned by one engine. Not safe for
// concurrent use, like the engine that holds it.
type Unit struct {
	cfg   Config
	table [tableSize]deltaEntry

	// walked is the chain-walk admission filter: slot -> dst page + 1.
	walked [filterSize]uint64
}

// New creates a unit for the configuration (nil when cfg is disabled, so
// the engine's hook sites stay a single nil compare).
func New(cfg Config) *Unit {
	if !cfg.Enabled() {
		return nil
	}
	return &Unit{cfg: cfg}
}

// DeltaOn reports whether the delta-pattern prefetcher is active.
func (u *Unit) DeltaOn() bool { return u.cfg.Mode == Delta || u.cfg.Mode == Both }

// ChainOn reports whether the redirect-chain walker is active.
func (u *Unit) ChainOn() bool { return u.cfg.Mode == Chain || u.cfg.Mode == Both }

// Observe trains the delta table on one demand metadata access to a page
// and returns the armed stride and prefetch count (n == 0: no prediction).
// The caller issues fills for page+delta .. page+n*delta, skipping anything
// already cached or out of range.
func (u *Unit) Observe(page uint64) (delta int64, n int) {
	region := page >> regionShift
	e := &u.table[region%tableSize]
	if e.tag != region+1 {
		*e = deltaEntry{tag: region + 1, last: page}
		return 0, 0
	}
	d := int64(page) - int64(e.last)
	if d == 0 {
		// Same page again (line sweep within a page): no stride information.
		return 0, 0
	}
	if d == e.delta {
		if e.conf < confMax {
			e.conf++
		}
	} else if e.conf > 0 {
		// Mispredict: decay confidence but keep the learned stride — one
		// outlier in a steady stream should not retrain the entry.
		e.conf--
	} else {
		e.delta = d
	}
	e.last = page
	if e.conf >= confThreshold {
		return e.delta, u.cfg.depth()
	}
	return 0, 0
}

// AdmitChainWalk decides whether a redirect observed on destination page
// dst should trigger a chain walk. Each admission records dst in the
// filter, so steady re-reads of the same redirected page walk once.
func (u *Unit) AdmitChainWalk(dst uint64) bool {
	slot := &u.walked[dst%filterSize]
	if *slot == dst+1 {
		return false
	}
	*slot = dst + 1
	return true
}

// WalkCap returns the per-walk hop bound.
func (u *Unit) WalkCap() int { return walkCap }

// Reset clears all predictor state — the power cycle that also
// cold-starts the metadata caches the unit fills (an in-flight fill's
// completion time lives in its cache entry and is lost with it).
func (u *Unit) Reset() {
	u.table = [tableSize]deltaEntry{}
	u.walked = [filterSize]uint64{}
}
