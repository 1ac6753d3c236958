// Package cache models the on-chip cache hierarchy (Table III: 64 KB L1,
// 512 KB L2, 8 MB L3; 8-way; LRU; 64 B lines). L1 and L2 are tag-only and
// contribute latency and hit statistics; the inclusive L3 holds the actual
// line data and produces the dirty write-backs that reach the secure memory
// controller. Page-granularity flush and invalidate mirror the clwb/clflush
// sequences the kernel issues around CoW commands (paper Section IV-B).
package cache

import "lelantus/internal/mem"

// Victim describes a line evicted or dropped from a level. Data points at
// the line's bytes inside the data level (nil for the tag-only levels), so
// handing a victim out copies nothing. It stays valid until the level's
// next Insert (the hierarchy's next Fill): callers write it back before
// touching the cache again.
type Victim struct {
	LineAddr uint64
	Dirty    bool
	Data     *[mem.LineBytes]byte
}

// validBit is set in the tag of every valid way. Line addresses are
// line-aligned, so bit 0 is free, and the zero way is invalid: a new level
// needs no initialisation pass over its ways.
const validBit = 1

// way is one way of a set: its tag (the line address plus validBit, 0 when
// invalid) and the level tick of its last use. An invalid way always holds
// tick 0 and a valid one a tick of at least 1, so the first way with the
// least tick is the first invalid way if there is one, else the LRU way.
type way struct{ tag, tick uint64 }

// Level is one set-associative cache level. A set's ways are packed side
// by side — an 8-way set is 128 B of adjacent host memory — because the
// set scan sits under every simulated memory access and dominates the
// simulator's own runtime. Every lineAddr argument is line-aligned.
type Level struct {
	sets      uint64
	setMask   uint64 // sets-1 when sets is a power of two, else 0
	ways      uint64
	latency   uint64 // ns charged when the lookup reaches this level
	holdsData bool
	slots     []way
	dirty     []bool                 // false on every invalid way
	data      []*[mem.LineBytes]byte // data level only; set on a way's first fill
	spare     *[mem.LineBytes]byte   // data level: swapped in for an evicted way's buffer
	tick      uint64

	Hits, Misses uint64
}

// NewLevel builds a level of sizeBytes capacity with the given
// associativity. Only the data level (L3) materialises line contents.
func NewLevel(sizeBytes uint64, ways int, latencyNs uint64, holdsData bool) *Level {
	sets := sizeBytes / mem.LineBytes / uint64(ways)
	if sets == 0 {
		sets = 1
	}
	n := sets * uint64(ways)
	l := &Level{
		sets:      sets,
		ways:      uint64(ways),
		latency:   latencyNs,
		holdsData: holdsData,
		slots:     make([]way, n),
		dirty:     make([]bool, n),
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

// set returns the line's set and the index of its first way.
func (l *Level) set(lineAddr uint64) ([]way, int) {
	var s uint64
	if l.setMask != 0 {
		s = (lineAddr >> mem.LineShift) & l.setMask
	} else {
		s = (lineAddr >> mem.LineShift) % l.sets
	}
	base := s * l.ways
	return l.slots[base : base+l.ways], int(base)
}

// find returns the way index holding the line, or -1.
func (l *Level) find(lineAddr uint64) int {
	set, base := l.set(lineAddr)
	key := lineAddr | validBit
	for i := range set {
		if set[i].tag == key {
			return base + i
		}
	}
	return -1
}

// findOrVictim scans the line's set once: it returns (way, true) when the
// line is present, else (way to fill, false) — the first way with the
// least tick, which by the tick-0 invariant is the first invalid way if
// one exists, otherwise the LRU way.
func (l *Level) findOrVictim(lineAddr uint64) (int, bool) {
	set, base := l.set(lineAddr)
	key := lineAddr | validBit
	pick, least := 0, ^uint64(0)
	for i, w := range set {
		if w.tag == key {
			return base + i, true
		}
		// Written so the argmin compiles to conditional moves: which way
		// is least recently used is data the branch predictor cannot learn.
		if w.tick < least {
			pick = i
		}
		least = min(least, w.tick)
	}
	return base + pick, false
}

// probe looks the line up, counting a hit or miss; on a hit it refreshes
// LRU state, optionally marks the line dirty and returns its way index,
// else -1.
func (l *Level) probe(lineAddr uint64, makeDirty bool) int {
	l.tick++
	i := l.find(lineAddr)
	if i < 0 {
		l.Misses++
		return -1
	}
	l.slots[i].tick = l.tick
	if makeDirty {
		l.dirty[i] = true
	}
	l.Hits++
	return i
}

// Lookup probes for a line; on hit it refreshes LRU state and optionally
// marks the line dirty.
func (l *Level) Lookup(lineAddr uint64, makeDirty bool) bool {
	return l.probe(lineAddr, makeDirty) >= 0
}

// Insert fills the line, evicting the LRU way if the set is full. The
// victim (with its data if this level holds data) is returned so the caller
// can write dirty lines back and maintain inclusion.
func (l *Level) Insert(lineAddr uint64, dirty bool, data *[mem.LineBytes]byte) (victim Victim, evicted bool) {
	l.tick++
	i, present := l.findOrVictim(lineAddr)
	w := &l.slots[i]
	if present {
		// Already present (e.g. refill racing an earlier insert): update.
		dirty = dirty || l.dirty[i]
	} else if w.tag != 0 {
		victim, evicted = Victim{LineAddr: w.tag &^ validBit, Dirty: l.dirty[i]}, true
		if l.holdsData {
			// The victim keeps the slot's buffer and the spare takes its
			// place, so an eviction copies no line.
			if l.spare == nil {
				l.spare = new([mem.LineBytes]byte)
			}
			victim.Data = l.data[i]
			l.data[i], l.spare = l.spare, victim.Data
		}
	}
	*w = way{tag: lineAddr | validBit, tick: l.tick}
	l.dirty[i] = dirty
	if l.holdsData {
		// A data level churns through fills at memory speed; each way's
		// buffer is allocated once and recycled.
		buf := l.data[i]
		if buf == nil {
			buf = new([mem.LineBytes]byte)
			l.data[i] = buf
		}
		if data != nil {
			*buf = *data
		} else if !present {
			*buf = [mem.LineBytes]byte{}
		}
	}
	return victim, evicted
}

// insertTag is Insert for the tag-only levels: same placement and LRU
// behaviour, but a new line is clean and no victim is materialised (L1/L2
// victims carry no state the hierarchy needs — inclusion back-invalidates
// come from L3 evictions).
func (l *Level) insertTag(lineAddr uint64) {
	l.tick++
	i, present := l.findOrVictim(lineAddr)
	l.slots[i] = way{tag: lineAddr | validBit, tick: l.tick}
	l.dirty[i] = present && l.dirty[i]
}

// clear invalidates way i; its data buffer stays for the next fill.
func (l *Level) clear(i int) {
	l.slots[i] = way{}
	l.dirty[i] = false
}

// Invalidate drops the line if present, returning its state. The victim's
// Data is the way's own buffer, valid until the level's next Insert.
func (l *Level) Invalidate(lineAddr uint64) (victim Victim, present bool) {
	i := l.find(lineAddr)
	if i < 0 {
		return Victim{}, false
	}
	victim = Victim{LineAddr: lineAddr, Dirty: l.dirty[i]}
	if l.holdsData {
		victim.Data = l.data[i]
	}
	l.clear(i)
	return victim, true
}

// drop invalidates the line without materialising a victim (bulk flush and
// invalidate paths that do not need the line's state), reporting whether
// it was present.
func (l *Level) drop(lineAddr uint64) bool {
	i := l.find(lineAddr)
	if i >= 0 {
		l.clear(i)
	}
	return i >= 0
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
// L1 and L2 hold a subset of L3's lines: every fill goes to all three
// levels and every L3 eviction back-invalidates L1 and L2.
type Hierarchy struct {
	L1, L2, L3 *Level

	// flushBuf backs the slice FlushPage returns; reused across calls so
	// page flushes (every fork flushes the parent's pages) don't allocate.
	flushBuf []Victim
}

// NewHierarchy builds the hierarchy from the configuration.
func NewHierarchy(cfg Config) *Hierarchy {
	return &Hierarchy{
		L1: NewLevel(cfg.L1Bytes, cfg.Ways, cfg.L1Ns, false),
		L2: NewLevel(cfg.L2Bytes, cfg.Ways, cfg.L2Ns, false),
		L3: NewLevel(cfg.L3Bytes, cfg.Ways, cfg.L3Ns, true),
	}
}

// Reset empties every level in place, as a power cycle does: tags, dirty
// bits, LRU ticks and hit/miss counts return to NewHierarchy's, while the
// way arrays and the L3 line buffers are kept for the next fills (a fill
// overwrites or zeroes its buffer, so old contents never show).
func (h *Hierarchy) Reset() {
	for _, l := range []*Level{h.L1, h.L2, h.L3} {
		clear(l.slots)
		clear(l.dirty)
		l.tick, l.Hits, l.Misses = 0, 0, 0
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
	if i := l.probe(lineAddr, makeDirty); i >= 0 {
		return l.data[i]
	}
	return nil
}

// AccessData performs a load or store probe. On a hit it returns the
// authoritative L3 copy (already marked dirty for writes); on a full miss
// the caller must fetch the line from memory and call Fill. The returned
// latency covers the levels traversed; missToMem reports whether memory
// must be consulted. Loads hitting in L1/L2 do not refresh L3 recency,
// stores always do.
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
		h.L1.insertTag(lineAddr)
		if write {
			return latencyNs, h.L3.touchData(lineAddr, true), false
		}
		return latencyNs, h.L3.peekData(lineAddr), false
	}
	latencyNs += h.L3.latency
	if d := h.L3.touchData(lineAddr, write); d != nil {
		h.L1.insertTag(lineAddr)
		h.L2.insertTag(lineAddr)
		return latencyNs, d, false
	}
	return latencyNs, nil, true
}

// Fill installs a line fetched from memory into all levels and returns any
// dirty L3 victim that must be written back (its Data is valid until the
// next Fill). Inclusion is maintained by back-invalidating victims from
// L1/L2.
func (h *Hierarchy) Fill(lineAddr uint64, dirty bool, data *[mem.LineBytes]byte) (wb Victim, needWB bool) {
	h.L1.insertTag(lineAddr)
	h.L2.insertTag(lineAddr)
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

// FlushPage writes back and invalidates every resident line of the 4 KB
// page, returning the dirty lines in page order. This models the kernel's
// cache flush of a source page before write-protecting it. The returned
// slice aliases an internal scratch buffer and its victims' Data the L3
// ways' buffers: both are valid until the next FlushPage or Fill — callers
// consume them immediately.
func (h *Hierarchy) FlushPage(pfn uint64) []Victim {
	dirty := h.flushBuf[:0]
	for i := 0; i < mem.LinesPerPage; i++ {
		la := mem.LineAddr(pfn, i)
		v, present := h.L3.Invalidate(la)
		if !present {
			continue // by inclusion, L1 and L2 do not hold it either
		}
		h.L1.drop(la)
		h.L2.drop(la)
		if v.Dirty {
			dirty = append(dirty, v)
		}
	}
	h.flushBuf = dirty
	return dirty
}

// InvalidateLine drops the line from every level without write-back, as
// a non-temporal store does. By inclusion, only a line L3 held can be in
// L1 or L2, so an absent line costs one probe.
func (h *Hierarchy) InvalidateLine(lineAddr uint64) {
	if h.L3.drop(lineAddr) {
		h.L1.drop(lineAddr)
		h.L2.drop(lineAddr)
	}
}

// InvalidatePage drops every resident line of the page without write-back,
// modelling the invalidation of a freshly allocated destination page.
func (h *Hierarchy) InvalidatePage(pfn uint64) {
	for i := 0; i < mem.LinesPerPage; i++ {
		h.InvalidateLine(mem.LineAddr(pfn, i))
	}
}

// DrainDirty writes back every dirty line (end-of-run accounting), calling
// sink for each with the way's own buffer. Lines remain resident but clean.
// The walk stops at the first error sink returns and hands it back: the
// lines after it stay dirty.
func (h *Hierarchy) DrainDirty(sink func(Victim) error) error {
	l := h.L3
	for i, dirty := range l.dirty {
		if dirty {
			l.dirty[i] = false
			if err := sink(Victim{LineAddr: l.slots[i].tag &^ validBit, Dirty: true, Data: l.data[i]}); err != nil {
				return err
			}
		}
	}
	return nil
}
