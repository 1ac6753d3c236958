package cache

import (
	"testing"

	"lelantus/internal/mem"
)

func smallConfig() Config {
	return Config{
		L1Bytes: 1 << 10, L2Bytes: 2 << 10, L3Bytes: 4 << 10,
		Ways: 2,
		L1Ns: 2, L2Ns: 8, L3Ns: 25,
	}
}

func lineData(v byte) *[mem.LineBytes]byte {
	var d [mem.LineBytes]byte
	for i := range d {
		d[i] = v
	}
	return &d
}

func TestAccessMissThenHit(t *testing.T) {
	h := NewHierarchy(smallConfig())
	lat, _, miss := h.AccessData(0x1000, false)
	if !miss {
		t.Fatal("cold access must miss")
	}
	if lat != 2+8+25 {
		t.Fatalf("miss latency = %d, want 35", lat)
	}
	h.Fill(0x1000, false, lineData(1))
	lat, _, miss = h.AccessData(0x1000, false)
	if miss || lat != 2 {
		t.Fatalf("L1 hit: miss=%v lat=%d", miss, lat)
	}
}

func TestStoreDirtiesDataLevel(t *testing.T) {
	h := NewHierarchy(smallConfig())
	h.Fill(0x40, false, lineData(7))
	if _, _, miss := h.AccessData(0x40, true); miss {
		t.Fatal("store should hit after fill")
	}
	var found bool
	h.DrainDirty(func(v Victim) {
		if v.LineAddr == 0x40 {
			found = true
			if v.Data[0] != 7 {
				t.Fatalf("drained data = %#x, want 7", v.Data[0])
			}
		}
	})
	if !found {
		t.Fatal("dirty line not drained")
	}
}

func TestEvictionWritesBackDirty(t *testing.T) {
	h := NewHierarchy(smallConfig())
	// L3: 4KB/64B/2 ways = 32 sets. Fill one set (2 ways) plus one more.
	setStride := uint64(32 * mem.LineBytes)
	a, b, c := uint64(0), setStride*1000, setStride*2000 // hmm: same set needs same index
	_ = a
	// Use addresses with identical set index: index = (addr>>6) % 32.
	a = 0
	b = 32 * mem.LineBytes
	c = 64 * mem.LineBytes
	h.Fill(a, true, lineData(1))
	h.Fill(b, true, lineData(2))
	wb, need := h.Fill(c, true, lineData(3))
	if !need {
		t.Fatal("third fill into a 2-way set must evict a dirty line")
	}
	if wb.LineAddr != a {
		t.Fatalf("LRU victim = %#x, want %#x", wb.LineAddr, a)
	}
	if wb.Data[0] != 1 {
		t.Fatalf("victim data = %d, want 1", wb.Data[0])
	}
}

func TestInclusionBackInvalidate(t *testing.T) {
	h := NewHierarchy(smallConfig())
	a := uint64(0)
	b := uint64(32 * mem.LineBytes)
	c := uint64(64 * mem.LineBytes)
	h.Fill(a, false, lineData(1))
	h.AccessData(a, false) // promote into L1/L2
	h.Fill(b, false, lineData(2))
	h.Fill(c, false, lineData(3)) // evicts a from L3
	if h.L1.find(a) >= 0 || h.L2.find(a) >= 0 {
		t.Fatal("inclusion violated: L3 victim still present in L1/L2")
	}
}

func TestLRUOrder(t *testing.T) {
	h := NewHierarchy(smallConfig())
	a := uint64(0)
	b := uint64(32 * mem.LineBytes)
	c := uint64(64 * mem.LineBytes)
	h.Fill(a, false, lineData(1))
	h.Fill(b, false, lineData(2))
	h.L3.Lookup(a, false) // make b the L3 LRU way
	wb, evicted := h.L3.Insert(c, false, lineData(3))
	if !evicted || wb.LineAddr != b {
		t.Fatalf("victim = %#x (evicted=%v), want %#x", wb.LineAddr, evicted, b)
	}
}

func TestFlushPage(t *testing.T) {
	h := NewHierarchy(smallConfig())
	pfn := uint64(3)
	h.Fill(mem.LineAddr(pfn, 0), true, lineData(1))
	h.Fill(mem.LineAddr(pfn, 1), false, lineData(2))
	dirty := h.FlushPage(pfn)
	if len(dirty) != 1 || dirty[0].LineAddr != mem.LineAddr(pfn, 0) {
		t.Fatalf("FlushPage dirty = %+v", dirty)
	}
	if h.L3.find(mem.LineAddr(pfn, 0)) >= 0 || h.L3.find(mem.LineAddr(pfn, 1)) >= 0 {
		t.Fatal("flush must invalidate all lines of the page")
	}
}

func TestInvalidatePageDropsDirty(t *testing.T) {
	h := NewHierarchy(smallConfig())
	pfn := uint64(5)
	h.Fill(mem.LineAddr(pfn, 2), true, lineData(9))
	h.InvalidatePage(pfn)
	count := 0
	h.DrainDirty(func(Victim) { count++ })
	if count != 0 {
		t.Fatal("InvalidatePage must drop dirty lines without write-back")
	}
}

func TestDataPointerIsAuthoritative(t *testing.T) {
	h := NewHierarchy(smallConfig())
	h.Fill(0x80, false, lineData(4))
	_, d, _ := h.AccessData(0x80, true)
	if d == nil || d[0] != 4 {
		t.Fatal("AccessData must expose the cached line")
	}
	d[5] = 99
	var got byte
	h.DrainDirty(func(v Victim) {
		if v.LineAddr == 0x80 {
			got = v.Data[5]
		}
	})
	if got != 99 {
		t.Fatal("in-place mutation through AccessData must be visible at write-back")
	}
}

func TestFillUpdatesExisting(t *testing.T) {
	h := NewHierarchy(smallConfig())
	h.Fill(0xC0, false, lineData(1))
	h.Fill(0xC0, true, lineData(2))
	if _, d, _ := h.AccessData(0xC0, false); d == nil || d[0] != 2 {
		t.Fatal("refill must update data in place")
	}
	dirty := false
	h.DrainDirty(func(v Victim) { dirty = dirty || v.LineAddr == 0xC0 })
	if !dirty {
		t.Fatal("refill with dirty=true must keep the line dirty")
	}
}

func TestHitStats(t *testing.T) {
	h := NewHierarchy(smallConfig())
	h.AccessData(0, false)
	h.Fill(0, false, lineData(0))
	h.AccessData(0, false)
	if h.L1.Misses != 1 || h.L1.Hits != 1 {
		t.Fatalf("L1 hits=%d misses=%d", h.L1.Hits, h.L1.Misses)
	}
}

// warmHierarchy returns a Table III hierarchy whose L3 is full of dirty
// lines, so every further fill of a new line evicts a dirty victim and
// every slot's line buffer exists.
func warmHierarchy() (*Hierarchy, uint64) {
	h := NewHierarchy(DefaultConfig())
	d := lineData(1)
	next := uint64(0)
	for i := 0; i < 2*int(DefaultConfig().L3Bytes/mem.LineBytes); i++ {
		h.Fill(next, true, d)
		next += mem.LineBytes
	}
	return h, next
}

// benchSink keeps the benchmarks' reads of line bytes observable.
var benchSink byte

// BenchmarkCacheAccessDataHit cycles loads and stores over an L1-sized
// working set: every probe hits, and stores also refresh the L3 copy.
func BenchmarkCacheAccessDataHit(b *testing.B) {
	h := NewHierarchy(DefaultConfig())
	const lines = 1024 // 64 KB, the L1 capacity
	for i := uint64(0); i < lines; i++ {
		h.Fill(i*mem.LineBytes, false, lineData(byte(i)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		la := uint64(i%lines) * mem.LineBytes
		_, d, miss := h.AccessData(la, i&1 == 1)
		if miss || d == nil {
			b.Fatal("working set must stay resident")
		}
		benchSink += d[0]
	}
}

// BenchmarkCacheFillEvictDirty streams dirty fills of new lines through a
// full L3, so each one evicts and hands back a dirty victim.
func BenchmarkCacheFillEvictDirty(b *testing.B) {
	h, next := warmHierarchy()
	d := lineData(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wb, need := h.Fill(next, true, d)
		if !need {
			b.Fatal("a fill into a full dirty L3 must write back")
		}
		benchSink += wb.Data[0]
		next += mem.LineBytes
	}
}

// BenchmarkCacheFlushPage flushes pages of which 8 of 64 lines are dirty
// and resident, the shape of a partially cached CoW source page.
func BenchmarkCacheFlushPage(b *testing.B) {
	h, _ := warmHierarchy()
	d := lineData(3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pfn := uint64(1<<20 + i%256)
		for j := 0; j < mem.LinesPerPage; j += 8 {
			h.Fill(mem.LineAddr(pfn, j), true, d)
		}
		if n := len(h.FlushPage(pfn)); n != mem.LinesPerPage/8 {
			b.Fatalf("flushed %d dirty lines, want %d", n, mem.LinesPerPage/8)
		}
	}
}

// TestWarmPathsDoNotAllocate gates the hot paths at zero allocations once
// every slot's line buffer exists: hits, dirty fills that evict, and page
// flushes.
func TestWarmPathsDoNotAllocate(t *testing.T) {
	h := NewHierarchy(smallConfig())
	d := lineData(4)
	next := uint64(0)
	step := func() {
		for i := 0; i < 4; i++ {
			if wb, need := h.Fill(next, true, d); need && wb.LineAddr >= next {
				t.Fatalf("victim %#x is not an older line", wb.LineAddr)
			}
			h.AccessData(next, true)
			next += mem.LineBytes
		}
		h.FlushPage(mem.PageOf(next - mem.LineBytes))
	}
	for i := 0; i < 256; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(200, step); avg != 0 {
		t.Fatalf("warm fill/evict/flush path allocates %.1f times per run", avg)
	}
}
