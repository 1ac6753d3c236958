package ctrcache

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// The property tests below drive the caches with long random operation
// mixes against independent reference models. The counter-cache model is a
// plain per-set scan over the documented policy (LRU demand order, prefetch
// victims before demand victims, dirty blocks never displaced by a
// speculative fill); the CoW model is a recency-ordered slice. Divergence
// in any return value, hit/miss counter, write-back victim, prefetch-evict
// callback or final residency fails the test with the op trace position.
// Reset is one more op: both models return to their constructor state.

// cmEntry mirrors one cache way in the reference model.
type cmEntry struct {
	page  uint64
	valid bool
	dirty bool
	ready uint64 // untouched prefetch fill's completion time, else 0
	tick  uint64
}

// cacheModel is the reference implementation of Cache's replacement policy.
type cacheModel struct {
	sets, ways int
	tick       uint64
	ents       [][]cmEntry
	evicts     []uint64 // prefetch-evict callback trace
}

func newCacheModel(sets, ways int) *cacheModel {
	m := &cacheModel{sets: sets, ways: ways, ents: make([][]cmEntry, sets)}
	for i := range m.ents {
		m.ents[i] = make([]cmEntry, ways)
	}
	return m
}

// reset returns the model to its constructor state; the callback trace,
// which belongs to the test, is kept.
func (m *cacheModel) reset() {
	evicts := m.evicts
	*m = *newCacheModel(m.sets, m.ways)
	m.evicts = evicts
}

func (m *cacheModel) set(page uint64) []cmEntry { return m.ents[page%uint64(m.sets)] }

func (m *cacheModel) find(page uint64) *cmEntry {
	set := m.set(page)
	for i := range set {
		if set[i].valid && set[i].page == page {
			return &set[i]
		}
	}
	return nil
}

func (m *cacheModel) get(page uint64) (hit bool, ready uint64) {
	m.tick++
	if e := m.find(page); e != nil {
		e.tick = m.tick
		ready, e.ready = e.ready, 0
		return true, ready
	}
	return false, 0
}

func (m *cacheModel) put(page uint64, dirtyNew bool) (victim uint64, needWB bool) {
	m.tick++
	set := m.set(page)
	if e := m.find(page); e != nil {
		if e.ready != 0 {
			e.ready = 0
			m.evicts = append(m.evicts, page)
		}
		e.tick = m.tick
		e.dirty = e.dirty || dirtyNew
		return 0, false
	}
	pick := -1
	for i := range set {
		if !set[i].valid {
			pick = i
			break
		}
	}
	if pick < 0 {
		for i := range set {
			if set[i].ready != 0 && (pick < 0 || set[i].tick < set[pick].tick) {
				pick = i
			}
		}
		if pick >= 0 {
			m.evicts = append(m.evicts, set[pick].page)
		}
	}
	if pick < 0 {
		pick = 0
		for i := 1; i < len(set); i++ {
			if set[i].tick < set[pick].tick {
				pick = i
			}
		}
		if set[pick].dirty {
			victim, needWB = set[pick].page, true
		}
	}
	set[pick] = cmEntry{page: page, valid: true, dirty: dirtyNew, tick: m.tick}
	return victim, needWB
}

func (m *cacheModel) putPrefetched(page, ready uint64) bool {
	m.tick++
	set := m.set(page)
	if m.find(page) != nil {
		return false
	}
	pick := -1
	for i := range set {
		if !set[i].valid {
			pick = i
			break
		}
	}
	if pick < 0 {
		for i := range set {
			if set[i].ready != 0 && (pick < 0 || set[i].tick < set[pick].tick) {
				pick = i
			}
		}
		if pick >= 0 {
			m.evicts = append(m.evicts, set[pick].page)
		}
	}
	if pick < 0 {
		for i := range set {
			if !set[i].dirty && (pick < 0 || set[i].tick < set[pick].tick) {
				pick = i
			}
		}
		if pick < 0 {
			return false
		}
	}
	set[pick] = cmEntry{page: page, valid: true, ready: ready, tick: m.tick}
	return true
}

func (m *cacheModel) prefetchRoom(page uint64) bool {
	if m.find(page) != nil {
		return false
	}
	for _, e := range m.set(page) {
		if !e.valid || e.ready != 0 || !e.dirty {
			return true
		}
	}
	return false
}

// TestCachePropertyVsModel runs a long random mix of Get, Put, Peek,
// MarkDirty, PutPrefetched, PrefetchRoom and Reset on a small cache
// and checks every observable — return values, hit/miss counters, dirty
// write-back victims, the prefetch-evict callback trace and the final
// residency of every page — against the reference model. In particular the
// model encodes that a speculative fill reclaims an invalid way, then the
// oldest untouched prefetched block, then the oldest clean demand block,
// and is dropped rather than ever displacing a dirty block.
func TestCachePropertyVsModel(t *testing.T) {
	const (
		ways  = 4
		sets  = 2
		pages = 24 // 12 pages per set: several times the associativity
		ops   = 20000
	)
	c := New(uint64(sets*ways*64), ways, WriteBack, 0)
	var implEvicts []uint64
	c.OnPrefetchEvict = func(page uint64) { implEvicts = append(implEvicts, page) }
	m := newCacheModel(sets, ways)
	rng := rand.New(rand.NewSource(7))

	var hits, misses uint64
	for op := 0; op < ops; op++ {
		page := uint64(rng.Intn(pages))
		// Reset is rare, so the sets reach steady-state eviction between
		// power cycles; the state it discards is checked first.
		if rng.Intn(500) == 0 {
			checkCacheVsModel(t, op, c, m, hits, misses, pages)
			c.Reset()
			m.reset()
			hits, misses = 0, 0
			checkCacheVsModel(t, op, c, m, hits, misses, pages)
			continue
		}
		switch rng.Intn(9) {
		case 0, 1, 2: // Get
			b, gotReady := c.Get(page)
			got := b != nil
			want, wantReady := m.get(page)
			if want {
				hits++
			} else {
				misses++
			}
			if got != want || gotReady != wantReady {
				t.Fatalf("op %d: Get(%d) hit=%v ready=%d, model %v %d", op, page, got, gotReady, want, wantReady)
			}
		case 3, 4, 5: // Put, sometimes marking dirty afterwards
			dirty := rng.Intn(2) == 0
			v, wb := c.Put(page, blk(page))
			if dirty {
				c.MarkDirty(page)
			}
			mv, mwb := m.put(page, dirty)
			if wb != mwb || (wb && v.Page != mv) {
				t.Fatalf("op %d: Put(%d) victim=(%v,%v), model (%v,%v)", op, page, v.Page, wb, mv, mwb)
			}
		case 6: // Peek must be side-effect free; the model is untouched
			got := c.Peek(page) != nil
			if want := m.find(page) != nil; got != want {
				t.Fatalf("op %d: Peek(%d)=%v, model %v", op, page, got, want)
			}
		case 7: // PutPrefetched
			ready := uint64(op) + 1
			got := c.PutPrefetched(page, blk(page), ready)
			if want := m.putPrefetched(page, ready); got != want {
				t.Fatalf("op %d: PutPrefetched(%d)=%v, model %v", op, page, got, want)
			}
		case 8: // PrefetchRoom is a pure predicate
			got := c.PrefetchRoom(page)
			if want := m.prefetchRoom(page); got != want {
				t.Fatalf("op %d: PrefetchRoom(%d)=%v, model %v", op, page, got, want)
			}
		}
		if len(implEvicts) != len(m.evicts) {
			t.Fatalf("op %d: %d prefetch-evict callbacks, model %d", op, len(implEvicts), len(m.evicts))
		}
	}
	checkCacheVsModel(t, ops, c, m, hits, misses, pages)
	for i := range implEvicts {
		if implEvicts[i] != m.evicts[i] {
			t.Errorf("prefetch-evict trace diverges at %d: %d vs model %d", i, implEvicts[i], m.evicts[i])
			break
		}
	}
}

// checkCacheVsModel compares the demand counters and the residency of
// every page with the model's.
func checkCacheVsModel(t *testing.T, op int, c *Cache, m *cacheModel, hits, misses uint64, pages int) {
	t.Helper()
	if c.Hits != hits || c.Misses != misses {
		t.Fatalf("op %d: counters %d/%d, model %d/%d — a non-demand path moved demand accounting",
			op, c.Hits, c.Misses, hits, misses)
	}
	for page := uint64(0); page < uint64(pages); page++ {
		if got, want := c.Peek(page) != nil, m.find(page) != nil; got != want {
			t.Fatalf("op %d: residency of page %d: %v, model %v", op, page, got, want)
		}
	}
}

// cowModel is the reference recency order for CoWCache.
type cowModel struct {
	order  []uint64 // most-recent-first
	state  map[uint64]*cowEntry
	cap    int
	evicts []uint64
}

func (m *cowModel) unlink(dst uint64) {
	for i, d := range m.order {
		if d == dst {
			m.order = append(m.order[:i], m.order[i+1:]...)
			return
		}
	}
}

func (m *cowModel) remove(dst uint64) {
	m.unlink(dst)
	delete(m.state, dst)
}

func (m *cowModel) front(dst uint64) {
	m.unlink(dst)
	m.order = append([]uint64{dst}, m.order...)
}

func (m *cowModel) lookup(dst uint64) (src uint64, present, cached bool, ready uint64) {
	e, ok := m.state[dst]
	if !ok {
		return 0, false, false, 0
	}
	m.front(dst)
	ready, e.pfReady = e.pfReady, 0
	return e.src, e.present, true, ready
}

// reset returns the model to its constructor state, keeping the test's
// callback trace.
func (m *cowModel) reset() {
	m.order, m.state = nil, map[uint64]*cowEntry{}
}

func (m *cowModel) insert(dst, src uint64, present, dirty bool) (victim uint64, needWB bool) {
	if e, ok := m.state[dst]; ok {
		if e.pfReady != 0 {
			e.pfReady = 0
			m.evicts = append(m.evicts, dst)
		}
		e.src, e.present, e.dirty = src, present, dirty
		m.front(dst)
		return 0, false
	}
	if len(m.order) == m.cap {
		tail := m.order[len(m.order)-1]
		old := m.state[tail]
		if old.dirty {
			victim, needWB = tail, true
		}
		if old.pfReady != 0 {
			m.evicts = append(m.evicts, tail)
		}
		m.remove(tail)
	}
	m.state[dst] = &cowEntry{dst: dst, src: src, present: present, dirty: dirty}
	m.order = append([]uint64{dst}, m.order...)
	return victim, needWB
}

func (m *cowModel) insertPrefetched(dst, src uint64, present bool, ready uint64) bool {
	if _, ok := m.state[dst]; ok {
		return false
	}
	if len(m.order) == m.cap {
		tail := m.order[len(m.order)-1]
		old := m.state[tail]
		if old.dirty {
			return false
		}
		if old.pfReady != 0 {
			m.evicts = append(m.evicts, tail)
		}
		m.remove(tail)
	}
	m.state[dst] = &cowEntry{dst: dst, src: src, present: present, pfReady: ready}
	m.order = append(m.order, dst)
	return true
}

func (m *cowModel) drainDirty() []uint64 {
	var out []uint64
	for dst, e := range m.state {
		if e.dirty {
			out = append(out, dst)
			e.dirty = false
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// checkCoWIntegrity walks the intrusive recency list and cross-checks every
// structural invariant: prev/next symmetry, head/tail endpoints, no cycles,
// exact agreement between the list, the dst index and the free-slot pool,
// and that the walked order matches the model's recency order.
func checkCoWIntegrity(t *testing.T, op int, c *CoWCache, m *cowModel) {
	t.Helper()
	var walked []uint64
	seen := map[int32]bool{}
	prev := int32(-1)
	for i := c.head; i >= 0; i = c.ents[i].next {
		if seen[i] {
			t.Fatalf("op %d: recency list cycles at slot %d", op, i)
		}
		seen[i] = true
		if c.ents[i].prev != prev {
			t.Fatalf("op %d: slot %d prev=%d, want %d", op, i, c.ents[i].prev, prev)
		}
		if got, ok := c.idx[c.ents[i].dst]; !ok || got != i {
			t.Fatalf("op %d: slot %d (dst %d) not indexed back to itself", op, i, c.ents[i].dst)
		}
		walked = append(walked, c.ents[i].dst)
		prev = i
	}
	if c.tail != prev {
		t.Fatalf("op %d: tail=%d, want %d", op, c.tail, prev)
	}
	if len(walked) != len(c.idx) {
		t.Fatalf("op %d: list holds %d entries, index %d", op, len(walked), len(c.idx))
	}
	for _, f := range c.free {
		if seen[f] {
			t.Fatalf("op %d: slot %d is both free and linked", op, f)
		}
	}
	if len(walked)+len(c.free) != len(c.ents) {
		t.Fatalf("op %d: %d linked + %d free != %d slots", op, len(walked), len(c.free), len(c.ents))
	}
	if len(walked) != len(m.order) {
		t.Fatalf("op %d: %d entries, model %d", op, len(walked), len(m.order))
	}
	for i := range walked {
		if walked[i] != m.order[i] {
			t.Fatalf("op %d: recency order diverges at %d: %v vs model %v", op, i, walked, m.order)
		}
	}
}

// TestCoWCachePropertyVsModel runs a long random mix of Lookup, Insert,
// InsertDirty, InsertPrefetched, Peek, DrainDirty, PrefetchRoom and Reset
// on a small CoWCache, checking every return value against the recency model
// and the intrusive list's structural integrity after every operation.
func TestCoWCachePropertyVsModel(t *testing.T) {
	const (
		capacity = 8
		pages    = 24
		ops      = 20000
	)
	c := NewCoW(capacity * 8)
	var implEvicts []uint64
	c.OnPrefetchEvict = func(dst uint64) { implEvicts = append(implEvicts, dst) }
	m := &cowModel{cap: capacity, state: map[uint64]*cowEntry{}}
	rng := rand.New(rand.NewSource(11))

	var hits, misses uint64
	for op := 0; op < ops; op++ {
		dst := uint64(rng.Intn(pages))
		src := dst + 1000
		// Reset is rare, so the cache fills between power cycles; the
		// counters it discards are checked first (checkCoWIntegrity below
		// covers residency and recency order after every op).
		if rng.Intn(500) == 0 {
			checkCoWCounters(t, op, c, hits, misses)
			c.Reset()
			m.reset()
			hits, misses = 0, 0
			checkCoWCounters(t, op, c, hits, misses)
			if fresh := NewCoW(capacity * 8); !slices.Equal(c.free, fresh.free) {
				t.Fatalf("op %d: free slots after Reset %v, a new cache's %v", op, c.free, fresh.free)
			}
			checkCoWIntegrity(t, op, c, m)
			continue
		}
		switch rng.Intn(11) {
		case 0, 1, 2: // Lookup
			gs, gp, gc, gr := c.Lookup(dst)
			ws, wp, wc, wr := m.lookup(dst)
			if wc {
				hits++
			} else {
				misses++
			}
			if gs != ws || gp != wp || gc != wc || gr != wr {
				t.Fatalf("op %d: Lookup(%d)=(%d,%v,%v,%d), model (%d,%v,%v,%d)", op, dst, gs, gp, gc, gr, ws, wp, wc, wr)
			}
		case 3, 4: // Insert (clean)
			present := rng.Intn(4) != 0
			v, wb := c.Insert(dst, src, present)
			mv, mwb := m.insert(dst, src, present, false)
			if wb != mwb || (wb && v.Dst != mv) {
				t.Fatalf("op %d: Insert(%d) victim=(%v,%v), model (%v,%v)", op, dst, v.Dst, wb, mv, mwb)
			}
		case 5, 6: // InsertDirty
			v, wb := c.InsertDirty(dst, src, true)
			mv, mwb := m.insert(dst, src, true, true)
			if wb != mwb || (wb && v.Dst != mv) {
				t.Fatalf("op %d: InsertDirty(%d) victim=(%v,%v), model (%v,%v)", op, dst, v.Dst, wb, mv, mwb)
			}
		case 7, 8: // InsertPrefetched
			present := rng.Intn(4) != 0
			ready := uint64(op) + 1
			got := c.InsertPrefetched(dst, src, present, ready)
			if want := m.insertPrefetched(dst, src, present, ready); got != want {
				t.Fatalf("op %d: InsertPrefetched(%d)=%v, model %v", op, dst, got, want)
			}
		case 9: // DrainDirty: same victim set, then nothing left dirty
			var drained []uint64
			c.DrainDirty(func(v CoWVictim) error { drained = append(drained, v.Dst); return nil })
			sort.Slice(drained, func(i, j int) bool { return drained[i] < drained[j] })
			want := m.drainDirty()
			if len(drained) != len(want) {
				t.Fatalf("op %d: DrainDirty flushed %v, model %v", op, drained, want)
			}
			for i := range drained {
				if drained[i] != want[i] {
					t.Fatalf("op %d: DrainDirty flushed %v, model %v", op, drained, want)
				}
			}
		case 10: // Peek and PrefetchRoom are pure
			_, cachedIn := m.state[dst]
			if _, _, gc := c.Peek(dst); gc != cachedIn {
				t.Fatalf("op %d: Peek(%d)=%v, model %v", op, dst, gc, cachedIn)
			}
			got := c.PrefetchRoom(dst)
			want := !cachedIn && (len(m.order) < m.cap ||
				(len(m.order) > 0 && !m.state[m.order[len(m.order)-1]].dirty))
			if got != want {
				t.Fatalf("op %d: PrefetchRoom(%d)=%v, model %v", op, dst, got, want)
			}
		}
		checkCoWIntegrity(t, op, c, m)
		if len(implEvicts) != len(m.evicts) {
			t.Fatalf("op %d: %d prefetch-evict callbacks, model %d", op, len(implEvicts), len(m.evicts))
		}
	}
	checkCoWCounters(t, ops, c, hits, misses)
	for i := range implEvicts {
		if implEvicts[i] != m.evicts[i] {
			t.Errorf("prefetch-evict trace diverges at %d: %d vs model %d", i, implEvicts[i], m.evicts[i])
			break
		}
	}
}

// checkCoWCounters compares the demand counters with the model's.
func checkCoWCounters(t *testing.T, op int, c *CoWCache, hits, misses uint64) {
	t.Helper()
	if c.Hits != hits || c.Misses != misses {
		t.Fatalf("op %d: counters %d/%d, model %d/%d — a non-demand path moved demand accounting",
			op, c.Hits, c.Misses, hits, misses)
	}
}
