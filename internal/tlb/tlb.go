// Package tlb models the translation lookaside buffers and the page-table
// walk cost. The paper's introduction motivates huge pages on NVM with
// exactly this trade-off: terabyte-scale memories make 4 KB translation
// bookkeeping expensive, while 2 MB pages cover 512× the reach per TLB
// entry. The kernel charges translation through this model, so huge-page
// runs show the reach benefit alongside the CoW behaviour.
package tlb

// Config sizes the two-level TLB and the walk cost.
type Config struct {
	L1Entries int
	L2Entries int
	L1Ns      uint64 // charged on every translation
	L2Ns      uint64 // added on an L1 miss
	WalkNs    uint64 // added on a full miss (page-table walk)
}

// DefaultConfig matches a contemporary core: 64-entry L1, 1536-entry L2,
// with a multi-level page walk costing tens of nanoseconds.
func DefaultConfig() Config {
	return Config{
		L1Entries: 64,
		L2Entries: 1536,
		L1Ns:      0, // fully overlapped with the L1 cache access
		L2Ns:      4,
		WalkNs:    40,
	}
}

type entry struct {
	key        uint64 // (vpn << 1) | hugeBit
	prev, next int32  // intrusive LRU list (MRU at head, LRU at tail)
}

// level is a fully associative translation cache with LRU replacement:
// TLB reach, not associativity conflicts, is what matters at this
// fidelity. Full associativity is modelled exactly but implemented as a
// key→slot map plus an intrusive recency list, so lookup, insert and
// invalidate are O(1) — the L2 TLB has 1536 entries and sits under every
// L1 miss, where a linear scan is the simulator's single hottest loop.
type level struct {
	ways []entry
	idx  map[uint64]int32
	head int32 // most recently used, -1 when empty
	tail int32 // least recently used, -1 when empty
	free []int32
}

func newLevel(entries int) *level {
	if entries < 1 {
		entries = 1
	}
	l := &level{
		ways: make([]entry, entries),
		idx:  make(map[uint64]int32, entries),
		free: make([]int32, 0, entries),
		head: -1, tail: -1,
	}
	for i := entries - 1; i >= 0; i-- {
		l.free = append(l.free, int32(i))
	}
	return l
}

func (l *level) unlink(i int32) {
	e := &l.ways[i]
	if e.prev >= 0 {
		l.ways[e.prev].next = e.next
	} else {
		l.head = e.next
	}
	if e.next >= 0 {
		l.ways[e.next].prev = e.prev
	} else {
		l.tail = e.prev
	}
}

func (l *level) pushFront(i int32) {
	e := &l.ways[i]
	e.prev, e.next = -1, l.head
	if l.head >= 0 {
		l.ways[l.head].prev = i
	}
	l.head = i
	if l.tail < 0 {
		l.tail = i
	}
}

func (l *level) lookup(key uint64) bool {
	// MRU fast path: line-sequential access streams re-translate the same
	// page, so most lookups hit the head without touching the map.
	if l.head >= 0 && l.ways[l.head].key == key {
		return true
	}
	i, ok := l.idx[key]
	if !ok {
		return false
	}
	if l.head != i {
		l.unlink(i)
		l.pushFront(i)
	}
	return true
}

func (l *level) insert(key uint64) {
	if i, ok := l.idx[key]; ok {
		if l.head != i {
			l.unlink(i)
			l.pushFront(i)
		}
		return
	}
	var slot int32
	if n := len(l.free); n > 0 {
		slot = l.free[n-1]
		l.free = l.free[:n-1]
	} else {
		slot = l.tail
		l.unlink(slot)
		delete(l.idx, l.ways[slot].key)
	}
	l.ways[slot].key = key
	l.pushFront(slot)
	l.idx[key] = slot
}

func (l *level) invalidate(key uint64) {
	if i, ok := l.idx[key]; ok {
		l.unlink(i)
		delete(l.idx, key)
		l.free = append(l.free, i)
	}
}

func (l *level) flushAll() {
	clear(l.idx)
	l.head, l.tail = -1, -1
	l.free = l.free[:0]
	for i := len(l.ways) - 1; i >= 0; i-- {
		l.free = append(l.free, int32(i))
	}
}

// TLB is one process-visible translation cache. A single structure caches
// both 4 KB and 2 MB translations (keys are tagged with the page size).
type TLB struct {
	cfg Config
	l1  *level
	l2  *level

	L1Hits, L2Hits, Walks uint64
}

// New builds a TLB.
func New(cfg Config) *TLB {
	return &TLB{cfg: cfg, l1: newLevel(cfg.L1Entries), l2: newLevel(cfg.L2Entries)}
}

func key(vpnOrHuge uint64, huge bool) uint64 {
	k := vpnOrHuge << 1
	if huge {
		k |= 1
	}
	return k
}

// Translate charges the translation of the virtual page (vpn is the 4 KB
// VPN, or the 2 MB VPN when huge) and returns the latency.
func (t *TLB) Translate(vpn uint64, huge bool) (latencyNs uint64) {
	k := key(vpn, huge)
	latencyNs = t.cfg.L1Ns
	if t.l1.lookup(k) {
		t.L1Hits++
		return latencyNs
	}
	latencyNs += t.cfg.L2Ns
	if t.l2.lookup(k) {
		t.L2Hits++
		t.l1.insert(k)
		return latencyNs
	}
	t.Walks++
	latencyNs += t.cfg.WalkNs
	t.l2.insert(k)
	t.l1.insert(k)
	return latencyNs
}

// Invalidate drops one translation (mapping change / CoW fix-up), the
// TLB-shootdown effect of a permission change.
func (t *TLB) Invalidate(vpn uint64, huge bool) {
	k := key(vpn, huge)
	t.l1.invalidate(k)
	t.l2.invalidate(k)
}

// FlushAll models a context switch without PCID (process destruction).
func (t *TLB) FlushAll() {
	t.l1.flushAll()
	t.l2.flushAll()
}
