package tlb

import "testing"

func small() Config {
	return Config{L1Entries: 2, L2Entries: 4, L1Ns: 1, L2Ns: 4, WalkNs: 40}
}

func TestHitMissLatencies(t *testing.T) {
	tl := New(small())
	if lat := tl.Translate(1, false); lat != 45 {
		t.Fatalf("cold translation = %d, want 45", lat)
	}
	if lat := tl.Translate(1, false); lat != 1 {
		t.Fatalf("L1 hit = %d, want 1", lat)
	}
	if tl.Walks != 1 || tl.L1Hits != 1 {
		t.Fatalf("walks=%d l1=%d", tl.Walks, tl.L1Hits)
	}
}

func TestL2Promotion(t *testing.T) {
	tl := New(small())
	tl.Translate(1, false)
	tl.Translate(2, false)
	tl.Translate(3, false) // evicts 1 from the 2-entry L1, still in L2
	if lat := tl.Translate(1, false); lat != 1+4 {
		t.Fatalf("L2 hit = %d, want 5", lat)
	}
	if tl.L2Hits != 1 {
		t.Fatalf("L2Hits = %d", tl.L2Hits)
	}
}

func TestLRUReplacement(t *testing.T) {
	tl := New(small())
	for vpn := uint64(1); vpn <= 5; vpn++ {
		tl.Translate(vpn, false)
	}
	// 5 distinct pages through a 4-entry L2: vpn 1 must have been evicted.
	walks := tl.Walks
	tl.Translate(1, false)
	if tl.Walks != walks+1 {
		t.Fatal("evicted translation still resident")
	}
}

func TestHugeAndRegularDistinct(t *testing.T) {
	tl := New(small())
	tl.Translate(7, false)
	walks := tl.Walks
	tl.Translate(7, true) // same number, different page size: a new entry
	if tl.Walks != walks+1 {
		t.Fatal("huge and regular translations must not alias")
	}
}

func TestInvalidate(t *testing.T) {
	tl := New(small())
	tl.Translate(9, true)
	tl.Invalidate(9, true)
	walks := tl.Walks
	tl.Translate(9, true)
	if tl.Walks != walks+1 {
		t.Fatal("invalidated translation still resident")
	}
}

func TestFlushAll(t *testing.T) {
	tl := New(small())
	tl.Translate(1, false)
	tl.Translate(2, false)
	tl.FlushAll()
	walks := tl.Walks
	tl.Translate(1, false)
	tl.Translate(2, false)
	if tl.Walks != walks+2 {
		t.Fatal("flush left translations")
	}
}

// missRate is the fraction of translations that needed a walk.
func missRate(tl *TLB) float64 {
	return float64(tl.Walks) / float64(tl.L1Hits+tl.L2Hits+tl.Walks)
}

func TestHugeReach(t *testing.T) {
	// The motivating property: the same footprint needs 512x fewer huge
	// translations, so a small TLB covers it.
	cfg := Config{L1Entries: 8, L2Entries: 16, WalkNs: 40}
	regular := New(cfg)
	huge := New(cfg)
	// 32 MB of footprint = 8192 regular pages vs 16 huge pages: the huge
	// translations fit the TLB, the regular ones cannot.
	for pass := 0; pass < 2; pass++ {
		for p := uint64(0); p < 8192; p++ {
			regular.Translate(p, false)
		}
		for p := uint64(0); p < 16; p++ {
			huge.Translate(p, true)
		}
	}
	if missRate(regular) < 0.9 {
		t.Fatalf("regular pages should thrash: %v", missRate(regular))
	}
	if missRate(huge) > 0.6 {
		t.Fatalf("huge pages should mostly hit on the second pass: %v", missRate(huge))
	}
}

func TestDegenerateConfig(t *testing.T) {
	tl := New(Config{})
	if lat := tl.Translate(1, false); lat != 0 {
		t.Fatalf("zero-cost config latency = %d", lat)
	}
	tl.Translate(1, false) // must not panic with 1-entry levels
}
