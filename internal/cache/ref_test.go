package cache

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"lelantus/internal/mem"
)

// This file checks Hierarchy against an obviously correct reference model
// driven by the same random operation stream. The reference keeps each set
// as a recency-ordered list of resident lines (least recent first) with the
// remaining ways explicitly free, so its replacement rule reads directly as
// "fill a free way if there is one, else evict the list head".

// refLine is one resident line of the reference.
type refLine struct {
	addr  uint64
	dirty bool
	data  *[mem.LineBytes]byte // data level only
}

// refLevel is one set-associative LRU level of the reference.
type refLevel struct {
	sets         uint64
	ways         int
	holdsData    bool
	set          [][]refLine // per set, resident lines in recency order
	free         []int       // per set, invalid ways left
	hits, misses uint64
}

func newRefLevel(sizeBytes uint64, ways int, holdsData bool) *refLevel {
	sets := sizeBytes / mem.LineBytes / uint64(ways)
	if sets == 0 {
		sets = 1
	}
	r := &refLevel{sets: sets, ways: ways, holdsData: holdsData,
		set: make([][]refLine, sets), free: make([]int, sets)}
	for s := range r.free {
		r.free[s] = ways
	}
	return r
}

// locate returns the line's set and its position in the recency list, or
// -1 when it is not resident.
func (r *refLevel) locate(addr uint64) (uint64, int) {
	s := (addr >> mem.LineShift) % r.sets
	for i, l := range r.set[s] {
		if l.addr == addr {
			return s, i
		}
	}
	return s, -1
}

func (r *refLevel) resident(addr uint64) bool {
	_, i := r.locate(addr)
	return i >= 0
}

// remove takes the line at position i out of set s, freeing its way.
func (r *refLevel) remove(s uint64, i int) refLine {
	l := r.set[s][i]
	r.set[s] = append(append([]refLine(nil), r.set[s][:i]...), r.set[s][i+1:]...)
	r.free[s]++
	return l
}

// touch makes the line at position i the most recently used and returns it.
func (r *refLevel) touch(s uint64, i int) *refLine {
	l := r.remove(s, i)
	r.free[s]--
	r.set[s] = append(r.set[s], l)
	return &r.set[s][len(r.set[s])-1]
}

// lookup is a counted probe: a hit refreshes recency and optionally dirties.
func (r *refLevel) lookup(addr uint64, makeDirty bool) *refLine {
	s, i := r.locate(addr)
	if i < 0 {
		r.misses++
		return nil
	}
	r.hits++
	l := r.touch(s, i)
	l.dirty = l.dirty || makeDirty
	return l
}

// insert installs the line as most recently used, evicting the least
// recently used line when no way is free.
func (r *refLevel) insert(addr uint64, dirty bool, data *[mem.LineBytes]byte) (victim refLine, evicted bool) {
	s, i := r.locate(addr)
	if i >= 0 {
		l := r.touch(s, i)
		l.dirty = l.dirty || dirty
		if r.holdsData && data != nil {
			*l.data = *data
		}
		return refLine{}, false
	}
	if r.free[s] == 0 {
		victim, evicted = r.remove(s, 0), true
	}
	l := refLine{addr: addr, dirty: dirty}
	if r.holdsData {
		l.data = new([mem.LineBytes]byte)
		if data != nil {
			*l.data = *data
		}
	}
	r.free[s]--
	r.set[s] = append(r.set[s], l)
	return victim, evicted
}

func (r *refLevel) invalidate(addr uint64) (refLine, bool) {
	s, i := r.locate(addr)
	if i < 0 {
		return refLine{}, false
	}
	return r.remove(s, i), true
}

// refHierarchy is the reference three-level inclusive hierarchy.
type refHierarchy struct {
	l1, l2, l3       *refLevel
	l1Ns, l2Ns, l3Ns uint64
}

func newRefHierarchy(cfg Config) *refHierarchy {
	return &refHierarchy{
		l1:   newRefLevel(cfg.L1Bytes, cfg.Ways, false),
		l2:   newRefLevel(cfg.L2Bytes, cfg.Ways, false),
		l3:   newRefLevel(cfg.L3Bytes, cfg.Ways, true),
		l1Ns: cfg.L1Ns, l2Ns: cfg.L2Ns, l3Ns: cfg.L3Ns,
	}
}

// l3Data returns the data level's copy without touching recency or stats.
func (h *refHierarchy) l3Data(addr uint64) *[mem.LineBytes]byte {
	if s, i := h.l3.locate(addr); i >= 0 {
		return h.l3.set[s][i].data
	}
	return nil
}

// l3Touch is a counted data-level probe returning the line's data.
func (h *refHierarchy) l3Touch(addr uint64, write bool) *[mem.LineBytes]byte {
	if l := h.l3.lookup(addr, write); l != nil {
		return l.data
	}
	return nil
}

func (h *refHierarchy) accessData(addr uint64, write bool) (uint64, *[mem.LineBytes]byte, bool) {
	lat := h.l1Ns
	if h.l1.lookup(addr, write) != nil {
		if write {
			return lat, h.l3Touch(addr, true), false
		}
		return lat, h.l3Data(addr), false
	}
	lat += h.l2Ns
	if h.l2.lookup(addr, write) != nil {
		h.l1.insert(addr, false, nil)
		if write {
			return lat, h.l3Touch(addr, true), false
		}
		return lat, h.l3Data(addr), false
	}
	lat += h.l3Ns
	if d := h.l3Touch(addr, write); d != nil {
		h.l1.insert(addr, false, nil)
		h.l2.insert(addr, false, nil)
		return lat, d, false
	}
	return lat, nil, true
}

func (h *refHierarchy) fill(addr uint64, dirty bool, data *[mem.LineBytes]byte) (refLine, bool) {
	h.l1.insert(addr, false, nil)
	h.l2.insert(addr, false, nil)
	v, evicted := h.l3.insert(addr, dirty, data)
	if !evicted {
		return refLine{}, false
	}
	h.l1.invalidate(v.addr)
	h.l2.invalidate(v.addr)
	return v, v.dirty
}

func (h *refHierarchy) flushPage(pfn uint64) []refLine {
	var dirty []refLine
	for i := 0; i < mem.LinesPerPage; i++ {
		la := mem.LineAddr(pfn, i)
		h.l1.invalidate(la)
		h.l2.invalidate(la)
		if v, ok := h.l3.invalidate(la); ok && v.dirty {
			dirty = append(dirty, v)
		}
	}
	return dirty
}

func (h *refHierarchy) invalidatePage(pfn uint64) {
	for i := 0; i < mem.LinesPerPage; i++ {
		la := mem.LineAddr(pfn, i)
		h.l1.invalidate(la)
		h.l2.invalidate(la)
		h.l3.invalidate(la)
	}
}

func (h *refHierarchy) invalidateLine(addr uint64) {
	h.l1.invalidate(addr)
	h.l2.invalidate(addr)
	h.l3.invalidate(addr)
}

func (h *refHierarchy) drainDirty() []refLine {
	var out []refLine
	for s := range h.l3.set {
		for i := range h.l3.set[s] {
			if l := &h.l3.set[s][i]; l.dirty {
				out = append(out, *l)
				l.dirty = false
			}
		}
	}
	return out
}

// refConfigs are the geometries the differential test runs: direct-mapped,
// two-way and eight-way levels, with non-power-of-two set counts in the
// last two. Capacities are a few dozen lines, so the random streams below
// evict constantly.
var refConfigs = []Config{
	{L1Bytes: 256, L2Bytes: 512, L3Bytes: 1 << 10, Ways: 1, L1Ns: 2, L2Ns: 8, L3Ns: 25},
	{L1Bytes: 1 << 10, L2Bytes: 2 << 10, L3Bytes: 4 << 10, Ways: 2, L1Ns: 2, L2Ns: 8, L3Ns: 25},
	{L1Bytes: 1 << 10, L2Bytes: 3 << 10, L3Bytes: 6 << 10, Ways: 8, L1Ns: 2, L2Ns: 8, L3Ns: 25},
	{L1Bytes: 512, L2Bytes: 1536, L3Bytes: 2560, Ways: 8, L1Ns: 1, L2Ns: 3, L3Ns: 7},
	{L1Bytes: 384, L2Bytes: 640, L3Bytes: 1792, Ways: 2, L1Ns: 2, L2Ns: 8, L3Ns: 25},
}

// refPages is the address universe: the first refPages page frames.
const refPages = 6

// refAddr decodes two stream bytes into a line address. Half the stream
// stays inside a 24-line hot region so hits are common; the rest spreads
// over the whole universe.
func refAddr(hi, lo byte) uint64 {
	n := uint64(hi)<<8 | uint64(lo)
	line := (n >> 1) % (refPages * mem.LinesPerPage)
	if n&1 == 0 {
		line %= 24
	}
	return line << mem.LineShift
}

// diffChecker runs one op stream against both models, failing at the
// first divergence.
type diffChecker struct {
	t     *testing.T
	h     *Hierarchy
	ref   *refHierarchy
	op    int
	stamp byte
}

func (c *diffChecker) fatalf(format string, args ...any) {
	c.t.Helper()
	c.t.Fatalf("op %d: "+format, append([]any{c.op}, args...)...)
}

func (c *diffChecker) nextData() *[mem.LineBytes]byte {
	c.stamp++
	var d [mem.LineBytes]byte
	for i := range d {
		d[i] = c.stamp + byte(i)
	}
	return &d
}

func (c *diffChecker) sameBytes(what string, got []byte, want *[mem.LineBytes]byte) {
	c.t.Helper()
	if !bytes.Equal(got, want[:]) {
		c.fatalf("%s bytes = %x, want %x", what, got, want[:])
	}
}

// access is AccessData on both sides; a write hit then stores into the
// returned line, as the memory controller does.
func (c *diffChecker) access(addr uint64, write bool) bool {
	c.t.Helper()
	lat, d, miss := c.h.AccessData(addr, write)
	rlat, rd, rmiss := c.ref.accessData(addr, write)
	if lat != rlat || miss != rmiss || (d == nil) != (rd == nil) {
		c.fatalf("AccessData(%#x, %v) = (%d, nil=%v, %v), want (%d, nil=%v, %v)",
			addr, write, lat, d == nil, miss, rlat, rd == nil, rmiss)
	}
	if d != nil {
		c.sameBytes("AccessData", d[:], rd)
		if write {
			s := c.nextData()
			k := int(c.stamp) % mem.LineBytes
			d[k], rd[k] = s[0], s[0]
		}
	}
	return miss
}

func (c *diffChecker) fill(addr uint64, dirty bool, data *[mem.LineBytes]byte) {
	c.t.Helper()
	wb, need := c.h.Fill(addr, dirty, data)
	rwb, rneed := c.ref.fill(addr, dirty, data)
	if need != rneed {
		c.fatalf("Fill(%#x) needWB = %v, want %v", addr, need, rneed)
	}
	if need {
		if wb.LineAddr != rwb.addr || !wb.Dirty {
			c.fatalf("Fill(%#x) victim = %#x dirty=%v, want %#x dirty", addr, wb.LineAddr, wb.Dirty, rwb.addr)
		}
		c.sameBytes("Fill victim", wb.Data[:], rwb.data)
	}
}

func (c *diffChecker) flushPage(pfn uint64) {
	c.t.Helper()
	got := c.h.FlushPage(pfn)
	want := c.ref.flushPage(pfn)
	if len(got) != len(want) {
		c.fatalf("FlushPage(%d) returned %d victims, want %d", pfn, len(got), len(want))
	}
	for i := range got {
		if got[i].LineAddr != want[i].addr || !got[i].Dirty {
			c.fatalf("FlushPage(%d)[%d] = %#x dirty=%v, want %#x dirty", pfn, i, got[i].LineAddr, got[i].Dirty, want[i].addr)
		}
		c.sameBytes("FlushPage victim", got[i].Data[:], want[i].data)
	}
}

// invalidate drops the line from all three levels one by one, through
// each Level's Invalidate, and compares every victim.
func (c *diffChecker) invalidate(addr uint64) {
	c.t.Helper()
	levels := []struct {
		l *Level
		r *refLevel
	}{{c.h.L1, c.ref.l1}, {c.h.L2, c.ref.l2}, {c.h.L3, c.ref.l3}}
	for n, lv := range levels {
		v, present := lv.l.Invalidate(addr)
		rv, rpresent := lv.r.invalidate(addr)
		if present != rpresent {
			c.fatalf("L%d.Invalidate(%#x) present = %v, want %v", n+1, addr, present, rpresent)
		}
		if !present {
			continue
		}
		if v.LineAddr != addr || v.Dirty != rv.dirty {
			c.fatalf("L%d.Invalidate(%#x) = %#x dirty=%v, want dirty=%v", n+1, addr, v.LineAddr, v.Dirty, rv.dirty)
		}
		if lv.r.holdsData {
			c.sameBytes("Invalidate victim", v.Data[:], rv.data)
		}
	}
}

func (c *diffChecker) drain() {
	c.t.Helper()
	type drained struct {
		addr uint64
		data [mem.LineBytes]byte
	}
	var got []drained
	c.h.DrainDirty(func(v Victim) error {
		if !v.Dirty {
			c.fatalf("DrainDirty handed out clean line %#x", v.LineAddr)
		}
		d := drained{addr: v.LineAddr}
		copy(d.data[:], v.Data[:])
		got = append(got, d)
		return nil
	})
	want := c.ref.drainDirty()
	sort.Slice(got, func(i, j int) bool { return got[i].addr < got[j].addr })
	sort.Slice(want, func(i, j int) bool { return want[i].addr < want[j].addr })
	if len(got) != len(want) {
		c.fatalf("DrainDirty drained %d lines, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].addr != want[i].addr {
			c.fatalf("DrainDirty line %d = %#x, want %#x", i, got[i].addr, want[i].addr)
		}
		c.sameBytes("DrainDirty", got[i].data[:], want[i].data)
	}
}

// checkState compares per-level statistics and residency of every line in
// the universe, and asserts inclusion (L1 ∪ L2 ⊆ L3) on the hierarchy.
func (c *diffChecker) checkState() {
	c.t.Helper()
	levels := []struct {
		l *Level
		r *refLevel
	}{{c.h.L1, c.ref.l1}, {c.h.L2, c.ref.l2}, {c.h.L3, c.ref.l3}}
	for n, lv := range levels {
		if lv.l.Hits != lv.r.hits || lv.l.Misses != lv.r.misses {
			c.fatalf("L%d hits/misses = %d/%d, want %d/%d", n+1, lv.l.Hits, lv.l.Misses, lv.r.hits, lv.r.misses)
		}
	}
	for line := uint64(0); line < refPages*mem.LinesPerPage; line++ {
		addr := line << mem.LineShift
		in3 := c.h.L3.find(addr) >= 0
		for n, lv := range levels {
			in := lv.l.find(addr) >= 0
			if in != lv.r.resident(addr) {
				c.fatalf("L%d residency of %#x = %v, want %v", n+1, addr, in, !in)
			}
			if in && !in3 {
				c.fatalf("inclusion violated: %#x in L%d but not in L3", addr, n+1)
			}
		}
	}
}

// runDiff decodes a byte stream (a config byte, then three bytes per op)
// and drives both models with it.
func runDiff(t *testing.T, stream []byte) {
	if len(stream) == 0 {
		return
	}
	cfg := refConfigs[int(stream[0])%len(refConfigs)]
	c := &diffChecker{t: t, h: NewHierarchy(cfg), ref: newRefHierarchy(cfg)}
	ops := stream[1:]
	if len(ops) > 3*4096 {
		ops = ops[:3*4096]
	}
	for ; len(ops) >= 3; ops = ops[3:] {
		c.op++
		kind, addr := ops[0]&15, refAddr(ops[1], ops[2])
		pfn := mem.PageOf(addr)
		switch {
		case kind < 4: // a load or store as the memory controller issues it
			write := kind&1 == 1
			if c.access(addr, write) {
				c.fill(addr, write, c.nextData())
			}
		case kind < 7:
			c.access(addr, kind == 6)
		case kind < 9:
			c.fill(addr, kind == 8, c.nextData())
		case kind == 9:
			c.fill(addr, ops[0]&16 != 0, nil)
		case kind == 10:
			c.flushPage(pfn)
		case kind == 11:
			c.h.InvalidatePage(pfn)
			c.ref.invalidatePage(pfn)
		case kind == 12:
			c.invalidate(addr)
		case kind == 13: // a non-temporal store's invalidate
			c.h.InvalidateLine(addr)
			c.ref.invalidateLine(addr)
		case kind == 14:
			c.drain()
		default:
			// A page-sized sweep of stores, the shape of a CoW copy.
			for i := 0; i < mem.LinesPerPage; i += 8 {
				if la := mem.LineAddr(pfn, i); c.access(la, true) {
					c.fill(la, true, c.nextData())
				}
			}
		}
		c.checkState()
	}
}

// refSeeds builds the seed corpus: per geometry, streams of random ops.
func refSeeds() [][]byte {
	var seeds [][]byte
	rng := rand.New(rand.NewSource(17))
	for cfg := range refConfigs {
		for k := 0; k < 3; k++ {
			s := make([]byte, 1+3*1500)
			rng.Read(s)
			s[0] = byte(cfg)
			seeds = append(seeds, s)
		}
	}
	return seeds
}

// FuzzHierarchyVsReference drives Hierarchy and the reference with the same
// op stream and compares every observable after every op: latency,
// missToMem, returned bytes, per-level hits and misses, every victim's
// address, dirty flag and bytes, the drained set and per-line residency.
func FuzzHierarchyVsReference(f *testing.F) {
	for _, s := range refSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, stream []byte) { runDiff(t, stream) })
}

// TestReferenceGeometries pins the set counts the differential test
// relies on, so a config edit cannot silently drop the non-power-of-two
// or direct-mapped cases.
func TestReferenceGeometries(t *testing.T) {
	var got []string
	for _, cfg := range refConfigs {
		h := NewHierarchy(cfg)
		got = append(got, fmt.Sprintf("%d:%d/%d/%d", cfg.Ways, h.L1.sets, h.L2.sets, h.L3.sets))
	}
	want := "[1:4/8/16 2:8/16/32 8:2/6/12 8:1/3/5 2:3/5/14]"
	if s := fmt.Sprint(got); s != want {
		t.Fatalf("geometries = %s, want %s", s, want)
	}
}
