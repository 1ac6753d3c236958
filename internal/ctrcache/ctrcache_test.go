package ctrcache

import (
	"errors"
	"testing"

	"lelantus/internal/ctr"
)

func blk(major uint64) ctr.Block {
	return ctr.Block{Format: ctr.Classic, Major: major}
}

func TestGetMissThenHit(t *testing.T) {
	c := New(4<<10, 4, WriteBack, 2)
	if b, _ := c.Get(7); b != nil {
		t.Fatal("cold lookup must miss")
	}
	c.Put(7, blk(1))
	got, _ := c.Get(7)
	if got == nil || got.Major != 1 {
		t.Fatal("hit must return the cached block")
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestPeekHasNoSideEffects(t *testing.T) {
	c := New(4<<10, 4, WriteBack, 2)
	if c.Peek(7) != nil {
		t.Fatal("peek of an absent page must return nil")
	}
	c.Put(7, blk(1))
	got := c.Peek(7)
	if got == nil || got.Major != 1 {
		t.Fatal("peek must return the cached block")
	}
	if c.Hits != 0 || c.Misses != 0 {
		t.Fatalf("peek touched the hit/miss counters: hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestPeekDoesNotPromoteLRU(t *testing.T) {
	// 1 set x 2 ways: pages 0 and 1 fill the set, 0 being LRU.
	c := New(2*ctr.BlockBytes, 2, WriteBack, 2)
	c.Put(0, blk(10))
	c.Put(1, blk(11))
	// A Get would promote page 0; Peek must not, so the next insert still
	// evicts page 0.
	if c.Peek(0) == nil {
		t.Fatal("peek hit expected")
	}
	c.Put(2, blk(12))
	if c.Peek(0) != nil {
		t.Fatal("page 0 should have been evicted: Peek promoted it in the LRU order")
	}
	if c.Peek(1) == nil {
		t.Fatal("page 1 should have survived the eviction")
	}
}

func TestPointerMutationSticks(t *testing.T) {
	c := New(4<<10, 4, WriteBack, 2)
	c.Put(3, blk(1))
	b, _ := c.Get(3)
	b.Major = 42
	if b, _ := c.Get(3); b.Major != 42 {
		t.Fatal("mutation through Get pointer lost")
	}
}

func TestEvictionReturnsDirtyVictim(t *testing.T) {
	// 2 sets x 2 ways.
	c := New(4*ctr.BlockBytes, 2, WriteBack, 2)
	c.Put(0, blk(10))
	c.MarkDirty(0)
	c.Put(2, blk(20)) // same set (page % 2 == 0)
	v, need := c.Put(4, blk(30))
	if !need || v.Page != 0 || v.Blk.Major != 10 {
		t.Fatalf("victim = %+v (need=%v)", v, need)
	}
}

func TestCleanEvictionSilent(t *testing.T) {
	c := New(4*ctr.BlockBytes, 2, WriteBack, 2)
	c.Put(0, blk(10))
	c.Put(2, blk(20))
	if _, need := c.Put(4, blk(30)); need {
		t.Fatal("clean victim must not be written back")
	}
}

func TestWriteThroughMode(t *testing.T) {
	c := New(4<<10, 4, WriteThrough, 2)
	c.Put(1, blk(5))
	if !c.MarkDirty(1) {
		t.Fatal("write-through must demand an immediate flush")
	}
	// Nothing is held dirty, so eviction is silent.
	drained := 0
	c.DrainDirty(func(Victim) error { drained++; return nil })
	if drained != 0 {
		t.Fatal("write-through cache must hold no dirty blocks")
	}
}

func TestDrainDirty(t *testing.T) {
	c := New(4<<10, 4, WriteBack, 2)
	c.Put(1, blk(1))
	c.Put(2, blk(2))
	c.MarkDirty(1)
	seen := map[uint64]bool{}
	c.DrainDirty(func(v Victim) error { seen[v.Page] = true; return nil })
	if !seen[1] || seen[2] {
		t.Fatalf("drained wrong set: %v", seen)
	}
	// Second drain: nothing left.
	count := 0
	c.DrainDirty(func(Victim) error { count++; return nil })
	if count != 0 {
		t.Fatal("drain must clean blocks")
	}
}

// TestDrainDirtyStopsAtError: both caches end the walk at the sink's first
// error and return it; the entry that failed and those after it stay dirty.
func TestDrainDirtyStopsAtError(t *testing.T) {
	stop := errors.New("stop")
	c := New(4<<10, 4, WriteBack, 2)
	for p := uint64(1); p <= 3; p++ {
		c.Put(p, blk(p))
		c.MarkDirty(p)
	}
	calls := 0
	if err := c.DrainDirty(func(Victim) error { calls++; return stop }); err != stop || calls != 1 {
		t.Fatalf("Cache.DrainDirty = %v after %d sink calls, want the sink's error after 1", err, calls)
	}
	rest := 0
	if err := c.DrainDirty(func(Victim) error { rest++; return nil }); err != nil || rest != 3 {
		t.Fatalf("second Cache drain = %v over %d blocks, want nil over 3", err, rest)
	}

	w := NewCoW(4 << 10)
	for d := uint64(1); d <= 3; d++ {
		w.InsertDirty(d, d+100, true)
	}
	calls = 0
	if err := w.DrainDirty(func(CoWVictim) error { calls++; return stop }); err != stop || calls != 1 {
		t.Fatalf("CoWCache.DrainDirty = %v after %d sink calls, want the sink's error after 1", err, calls)
	}
	rest = 0
	if err := w.DrainDirty(func(CoWVictim) error { rest++; return nil }); err != nil || rest != 3 {
		t.Fatalf("second CoWCache drain = %v over %d entries, want nil over 3", err, rest)
	}
}

func TestMissRate(t *testing.T) {
	c := New(4<<10, 4, WriteBack, 2)
	c.Get(1)
	c.Put(1, blk(1))
	c.Get(1)
	if r := c.MissRate(); r != 0.5 {
		t.Fatalf("miss rate = %v, want 0.5", r)
	}
}

func TestModeString(t *testing.T) {
	if WriteBack.String() != "write-back" || WriteThrough.String() != "write-through" {
		t.Fatal("mode names")
	}
}

func TestCoWCacheLRU(t *testing.T) {
	c := NewCoW(3 * 8) // capacity 3 mappings
	c.Insert(1, 101, true)
	c.Insert(2, 102, true)
	c.Insert(3, 103, true)
	if _, _, cached, _ := c.Lookup(1); !cached {
		t.Fatal("mapping 1 lost prematurely")
	}
	c.Insert(4, 104, true) // evicts LRU = 2
	if _, _, cached, _ := c.Lookup(2); cached {
		t.Fatal("LRU mapping should have been evicted")
	}
	if src, present, cached, _ := c.Lookup(4); !cached || !present || src != 104 {
		t.Fatal("fresh mapping missing")
	}
	// Negative results are cached too, distinct from source pfn 0.
	c.Insert(5, 0, false)
	if _, present, cached, _ := c.Lookup(5); !cached || present {
		t.Fatal("negative mapping must be cached as absent")
	}
	c.Insert(6, 0, true) // pfn 0 is a legal source page
	if src, present, _, _ := c.Lookup(6); !present || src != 0 {
		t.Fatal("source pfn 0 must be representable")
	}
}

// TestCoWCacheUpdateAndDrop: a mapping updates in place, and page_phyc /
// page_free drop it by caching it absent.
func TestCoWCacheUpdateAndDrop(t *testing.T) {
	c := NewCoW(64)
	c.Insert(5, 50, true)
	c.Insert(5, 51, true)
	if src, _, _, _ := c.Lookup(5); src != 51 {
		t.Fatalf("update lost: src=%d", src)
	}
	c.Insert(5, 0, false)
	if _, present, cached, _ := c.Lookup(5); present || !cached {
		t.Fatalf("dropped mapping: present=%v cached=%v, want an absent entry", present, cached)
	}
}

func TestCoWCacheMissRate(t *testing.T) {
	c := NewCoW(64)
	c.Lookup(1)
	c.Insert(1, 10, true)
	c.Lookup(1)
	if r := c.MissRate(); r != 0.5 {
		t.Fatalf("miss rate = %v", r)
	}
}

// TestFillLifecycle pins the in-flight prefetch bookkeeping the cache
// entries carry: a fill's completion time comes back on its first demand
// touch and never again, a fill overwritten or evicted before that touch
// is reported through OnPrefetchEvict and forgotten, and a reset cache
// forgets every fill without a callback.
func TestFillLifecycle(t *testing.T) {
	c := New(2*ctr.BlockBytes, 2, WriteBack, 2) // one set, two ways
	var evicted []uint64
	c.OnPrefetchEvict = func(page uint64) { evicted = append(evicted, page) }
	c.PutPrefetched(7, blk(1), 100)
	if _, ready := c.Get(7); ready != 100 {
		t.Errorf("first Get of a fill hands back %d, want 100", ready)
	}
	if _, ready := c.Get(7); ready != 0 {
		t.Errorf("second Get of one fill hands back %d, want 0", ready)
	}
	c.PutPrefetched(9, blk(2), 300)
	c.Put(9, blk(3)) // demand overwrites the untouched fill
	if _, ready := c.Get(9); ready != 0 || len(evicted) != 1 || evicted[0] != 9 {
		t.Errorf("overwritten fill: ready %d, evictions %v, want 0 and [9]", ready, evicted)
	}
	c.PutPrefetched(11, blk(4), 400)
	c.Reset()
	c.Put(11, blk(5))
	if _, ready := c.Get(11); ready != 0 || len(evicted) != 1 {
		t.Errorf("fill survived Reset: ready %d, evictions %v", ready, evicted)
	}

	w := NewCoW(2 * 8)
	var wEvicted []uint64
	w.OnPrefetchEvict = func(dst uint64) { wEvicted = append(wEvicted, dst) }
	w.InsertPrefetched(7, 70, true, 200)
	if _, _, _, ready := w.Lookup(7); ready != 200 {
		t.Errorf("first Lookup of a fill hands back %d, want 200", ready)
	}
	if _, _, _, ready := w.Lookup(7); ready != 0 {
		t.Errorf("second Lookup of one fill hands back %d, want 0", ready)
	}
	w.InsertPrefetched(9, 90, true, 300)
	w.Insert(1, 10, true)
	w.Insert(2, 20, true) // evicts the untouched fill at the cold end
	if _, _, cached, _ := w.Lookup(9); cached || len(wEvicted) != 1 || wEvicted[0] != 9 {
		t.Errorf("evicted fill: cached %v, evictions %v, want false and [9]", cached, wEvicted)
	}
}
