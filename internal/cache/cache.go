// Package cache models the on-chip cache hierarchy (Table III: 64 KB L1,
// 512 KB L2, 8 MB L3; 8-way; LRU; 64 B lines). L1 and L2 are tag-only and
// contribute latency and hit statistics; the inclusive L3 holds the actual
// line data and produces the dirty write-backs that reach the secure memory
// controller. Page-granularity flush and invalidate mirror the clwb/clflush
// sequences the kernel issues around CoW commands (paper Section IV-B).
package cache

import "lelantus/internal/mem"

// Victim describes a line evicted from the data level.
type Victim struct {
	LineAddr uint64
	Dirty    bool
	Data     [mem.LineBytes]byte
}

// invalidTag marks an empty way. Tags are line-aligned byte addresses, so
// the all-ones pattern can never collide with a real line.
const invalidTag = ^uint64(0)

// Level is one set-associative cache level. The ways of a set are stored
// as parallel arrays — an 8-way set's tags (and, separately, its LRU
// ticks) each span exactly one 64 B cache line of the host — because the
// set scan in Lookup sits under every simulated memory access and
// dominates the simulator's own runtime.
type Level struct {
	name      string
	sets      uint64
	setMask   uint64 // sets-1 when sets is a power of two, else 0
	ways      uint64
	latency   uint64 // ns charged when the lookup reaches this level
	holdsData bool
	tags      []uint64
	ticks     []uint64
	dirty     []bool
	data      []*[mem.LineBytes]byte // nil slice for tag-only levels
	tick      uint64

	Hits, Misses uint64
}

// NewLevel builds a level of sizeBytes capacity with the given
// associativity. Only the data level (L3) materialises line contents.
func NewLevel(name string, sizeBytes uint64, ways int, latencyNs uint64, holdsData bool) *Level {
	sets := sizeBytes / mem.LineBytes / uint64(ways)
	if sets == 0 {
		sets = 1
	}
	n := sets * uint64(ways)
	l := &Level{
		name:      name,
		sets:      sets,
		ways:      uint64(ways),
		latency:   latencyNs,
		holdsData: holdsData,
		tags:      make([]uint64, n),
		ticks:     make([]uint64, n),
		dirty:     make([]bool, n),
	}
	for i := range l.tags {
		l.tags[i] = invalidTag
	}
	if holdsData {
		l.data = make([]*[mem.LineBytes]byte, n)
	}
	if sets&(sets-1) == 0 {
		// All standard geometries are powers of two; the mask turns the
		// per-probe set index into an AND instead of a hardware division.
		l.setMask = sets - 1
	}
	return l
}

// setBase returns the index of the first way of the line's set.
func (l *Level) setBase(lineAddr uint64) uint64 {
	var s uint64
	if l.setMask != 0 {
		s = (lineAddr >> mem.LineShift) & l.setMask
	} else {
		s = (lineAddr >> mem.LineShift) % l.sets
	}
	return s * l.ways
}

// find returns the way index holding the line, or -1.
func (l *Level) find(lineAddr uint64) int {
	base := l.setBase(lineAddr)
	tags := l.tags[base : base+l.ways]
	for i, t := range tags {
		if t == lineAddr {
			return int(base) + i
		}
	}
	return -1
}

// Lookup probes for a line; on hit it refreshes LRU state and optionally
// marks the line dirty.
func (l *Level) Lookup(lineAddr uint64, makeDirty bool) bool {
	l.tick++
	if i := l.find(lineAddr); i >= 0 {
		l.ticks[i] = l.tick
		if makeDirty {
			l.dirty[i] = true
		}
		l.Hits++
		return true
	}
	l.Misses++
	return false
}

// Peek probes without touching LRU or statistics.
func (l *Level) Peek(lineAddr uint64) bool { return l.find(lineAddr) >= 0 }

// Data returns a pointer to the cached copy of the line, or nil.
func (l *Level) Data(lineAddr uint64) *[mem.LineBytes]byte {
	if i := l.find(lineAddr); i >= 0 && l.holdsData {
		return l.data[i]
	}
	return nil
}

// findOrVictim scans the line's set once: it returns (way, true) when the
// line is present, else (way to fill, false) — the first invalid way if one
// exists, otherwise the LRU way.
func (l *Level) findOrVictim(lineAddr uint64) (int, bool) {
	base := l.setBase(lineAddr)
	tags := l.tags[base : base+l.ways]
	invalid := -1
	for i, t := range tags {
		if t == lineAddr {
			return int(base) + i, true
		}
		if invalid < 0 && t == invalidTag {
			invalid = int(base) + i
		}
	}
	if invalid >= 0 {
		return invalid, false
	}
	ticks := l.ticks[base : base+l.ways]
	pick := 0
	for i, tk := range ticks {
		if tk < ticks[pick] {
			pick = i
		}
	}
	return int(base) + pick, false
}

// Insert fills the line, evicting the LRU way if the set is full. The
// victim (with its data if this level holds data) is returned so the caller
// can write dirty lines back and maintain inclusion.
func (l *Level) Insert(lineAddr uint64, dirty bool, data *[mem.LineBytes]byte) (victim Victim, evicted bool) {
	l.tick++
	// Already present (e.g. refill racing an earlier insert): update.
	pick, present := l.findOrVictim(lineAddr)
	if present {
		l.ticks[pick] = l.tick
		l.dirty[pick] = l.dirty[pick] || dirty
		if l.holdsData && data != nil {
			if l.data[pick] == nil {
				l.data[pick] = new([mem.LineBytes]byte)
			}
			*l.data[pick] = *data
		}
		return Victim{}, false
	}
	if l.tags[pick] != invalidTag {
		victim.LineAddr = l.tags[pick]
		victim.Dirty = l.dirty[pick]
		if l.holdsData && l.data[pick] != nil {
			victim.Data = *l.data[pick]
		}
		evicted = true
	}
	l.tags[pick] = lineAddr
	l.ticks[pick] = l.tick
	l.dirty[pick] = dirty
	if l.holdsData {
		// Recycle the slot's line buffer: a data level churns through fills
		// at memory speed and must not allocate one 64 B block per fill.
		buf := l.data[pick]
		if buf == nil {
			buf = new([mem.LineBytes]byte)
			l.data[pick] = buf
		}
		if data != nil {
			*buf = *data
		} else {
			*buf = [mem.LineBytes]byte{}
		}
	}
	return victim, evicted
}

// insertTag is Insert for the tag-only levels: same placement and LRU
// behaviour, but no victim is materialised (L1/L2 victims carry no state the
// hierarchy needs — inclusion back-invalidates come from L3 evictions).
func (l *Level) insertTag(lineAddr uint64, dirty bool) {
	l.tick++
	pick, present := l.findOrVictim(lineAddr)
	if present {
		l.ticks[pick] = l.tick
		l.dirty[pick] = l.dirty[pick] || dirty
		return
	}
	l.tags[pick] = lineAddr
	l.ticks[pick] = l.tick
	l.dirty[pick] = dirty
}

// Invalidate drops the line if present, returning its state.
func (l *Level) Invalidate(lineAddr uint64) (victim Victim, present bool) {
	if i := l.find(lineAddr); i >= 0 {
		victim.LineAddr = lineAddr
		victim.Dirty = l.dirty[i]
		if l.holdsData && l.data[i] != nil {
			victim.Data = *l.data[i]
		}
		l.tags[i] = invalidTag // the data buffer stays for reuse
		l.ticks[i] = 0
		l.dirty[i] = false
		return victim, true
	}
	return Victim{}, false
}

// drop invalidates the line without materialising a victim (bulk flush and
// invalidate paths that do not need the line's state).
func (l *Level) drop(lineAddr uint64) {
	if i := l.find(lineAddr); i >= 0 {
		l.tags[i] = invalidTag
		l.ticks[i] = 0
		l.dirty[i] = false
	}
}

// Config parameterises the three-level hierarchy.
type Config struct {
	L1Bytes, L2Bytes, L3Bytes uint64
	Ways                      int
	L1Ns, L2Ns, L3Ns          uint64
}

// DefaultConfig mirrors Table III (latencies in ns at 1 GHz: 2/8/25 cycles).
func DefaultConfig() Config {
	return Config{
		L1Bytes: 64 << 10, L2Bytes: 512 << 10, L3Bytes: 8 << 20,
		Ways: 8,
		L1Ns: 2, L2Ns: 8, L3Ns: 25,
	}
}

// Hierarchy is the inclusive three-level hierarchy. Line data lives in L3.
type Hierarchy struct {
	L1, L2, L3 *Level

	// flushBuf backs the slice FlushPage returns; reused across calls so
	// page flushes (every fork flushes the parent's pages) don't allocate.
	flushBuf []Victim
}

// NewHierarchy builds the hierarchy from the configuration.
func NewHierarchy(cfg Config) *Hierarchy {
	return &Hierarchy{
		L1: NewLevel("L1", cfg.L1Bytes, cfg.Ways, cfg.L1Ns, false),
		L2: NewLevel("L2", cfg.L2Bytes, cfg.Ways, cfg.L2Ns, false),
		L3: NewLevel("L3", cfg.L3Bytes, cfg.Ways, cfg.L3Ns, true),
	}
}

// peekData returns the data pointer without touching LRU or statistics
// (data level only).
func (l *Level) peekData(lineAddr uint64) *[mem.LineBytes]byte {
	if i := l.find(lineAddr); i >= 0 {
		return l.data[i]
	}
	return nil
}

// touchData is Lookup plus the data access in a single set scan (data
// level only): on hit it refreshes LRU state, optionally marks the line
// dirty, and returns the cached copy.
func (l *Level) touchData(lineAddr uint64, makeDirty bool) *[mem.LineBytes]byte {
	l.tick++
	if i := l.find(lineAddr); i >= 0 {
		l.ticks[i] = l.tick
		if makeDirty {
			l.dirty[i] = true
		}
		l.Hits++
		return l.data[i]
	}
	l.Misses++
	return nil
}

// Access performs a load or store probe. On a full miss the caller must
// fetch the line from memory and call Fill. The returned latency covers the
// levels traversed; missToMem reports whether memory must be consulted.
func (h *Hierarchy) Access(lineAddr uint64, write bool) (latencyNs uint64, missToMem bool) {
	latencyNs = h.L1.latency
	if h.L1.Lookup(lineAddr, write) {
		if write {
			// Keep the data level's copy authoritative and dirty.
			h.L3.Lookup(lineAddr, true)
		}
		return latencyNs, false
	}
	latencyNs += h.L2.latency
	if h.L2.Lookup(lineAddr, write) {
		h.L1.insertTag(lineAddr, false)
		if write {
			h.L3.Lookup(lineAddr, true)
		}
		return latencyNs, false
	}
	latencyNs += h.L3.latency
	if h.L3.Lookup(lineAddr, write) {
		h.L1.insertTag(lineAddr, false)
		h.L2.insertTag(lineAddr, false)
		return latencyNs, false
	}
	return latencyNs, true
}

// AccessData is Access fused with the data lookup: on a hit it also
// returns the authoritative L3 copy (already marked dirty for writes), so
// the hit path costs one L3 set scan instead of separate Access + Data +
// MarkDirty probes. Replacement decisions are identical to Access: loads
// hitting in L1/L2 do not refresh L3 recency, stores always do.
func (h *Hierarchy) AccessData(lineAddr uint64, write bool) (latencyNs uint64, data *[mem.LineBytes]byte, missToMem bool) {
	latencyNs = h.L1.latency
	if h.L1.Lookup(lineAddr, write) {
		if write {
			return latencyNs, h.L3.touchData(lineAddr, true), false
		}
		return latencyNs, h.L3.peekData(lineAddr), false
	}
	latencyNs += h.L2.latency
	if h.L2.Lookup(lineAddr, write) {
		h.L1.insertTag(lineAddr, false)
		if write {
			return latencyNs, h.L3.touchData(lineAddr, true), false
		}
		return latencyNs, h.L3.peekData(lineAddr), false
	}
	latencyNs += h.L3.latency
	if d := h.L3.touchData(lineAddr, write); d != nil {
		h.L1.insertTag(lineAddr, false)
		h.L2.insertTag(lineAddr, false)
		return latencyNs, d, false
	}
	return latencyNs, nil, true
}

// Fill installs a line fetched from memory into all levels and returns any
// dirty L3 victim that must be written back. Inclusion is maintained by
// back-invalidating victims from L1/L2.
func (h *Hierarchy) Fill(lineAddr uint64, dirty bool, data *[mem.LineBytes]byte) (wb Victim, needWB bool) {
	h.L1.insertTag(lineAddr, false)
	h.L2.insertTag(lineAddr, false)
	v, evicted := h.L3.Insert(lineAddr, dirty, data)
	if evicted {
		h.L1.drop(v.LineAddr)
		h.L2.drop(v.LineAddr)
		if v.Dirty {
			return v, true
		}
	}
	return Victim{}, false
}

// Data exposes the authoritative cached copy of a line (nil if not cached).
func (h *Hierarchy) Data(lineAddr uint64) *[mem.LineBytes]byte {
	return h.L3.Data(lineAddr)
}

// Cached reports whether the line is resident on chip.
func (h *Hierarchy) Cached(lineAddr uint64) bool { return h.L3.Peek(lineAddr) }

// MarkDirty flags a resident line dirty (store hit path helper).
func (h *Hierarchy) MarkDirty(lineAddr uint64) { h.L3.Lookup(lineAddr, true) }

// FlushPage writes back and invalidates every resident line of the 4 KB
// page, returning the dirty lines in page order. This models the kernel's
// cache flush of a source page before write-protecting it. The returned
// slice aliases an internal scratch buffer and is only valid until the next
// FlushPage call — callers consume it immediately.
func (h *Hierarchy) FlushPage(pfn uint64) []Victim {
	dirty := h.flushBuf[:0]
	for i := 0; i < mem.LinesPerPage; i++ {
		la := mem.LineAddr(pfn, i)
		h.L1.drop(la)
		h.L2.drop(la)
		if v, present := h.L3.Invalidate(la); present && v.Dirty {
			dirty = append(dirty, v)
		}
	}
	h.flushBuf = dirty
	return dirty
}

// InvalidatePage drops every resident line of the page without write-back,
// modelling the invalidation of a freshly allocated destination page.
func (h *Hierarchy) InvalidatePage(pfn uint64) {
	for i := 0; i < mem.LinesPerPage; i++ {
		la := mem.LineAddr(pfn, i)
		h.L1.drop(la)
		h.L2.drop(la)
		h.L3.drop(la)
	}
}

// DrainDirty writes back every dirty line (end-of-run accounting), calling
// sink for each. Lines remain resident but clean.
func (h *Hierarchy) DrainDirty(sink func(Victim)) {
	l := h.L3
	for i, tag := range l.tags {
		if tag != invalidTag && l.dirty[i] {
			v := Victim{LineAddr: tag, Dirty: true}
			if l.data[i] != nil {
				v.Data = *l.data[i]
			}
			l.dirty[i] = false
			sink(v)
		}
	}
}
