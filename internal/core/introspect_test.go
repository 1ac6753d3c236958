package core

import (
	"testing"

	"lelantus/internal/ctr"
	"lelantus/internal/ctrcache"
)

// engineFingerprint captures every piece of engine state that pure
// introspection must not disturb: statistics, cache accounting, device
// traffic, and the LRU clock of the counter cache.
type engineFingerprint struct {
	stats                Stats
	ctrHits, ctrMisses   uint64
	cowHits, cowMisses   uint64
	devReads, devWrites  uint64
	initialised, written int
}

// isCoW reports whether pfn is a CoW destination, side-effect free.
func isCoW(e *Engine, pfn uint64) bool {
	_, ok := e.SourceOf(pfn)
	return ok
}

// uncopied counts pfn's lines still redirected to a source page (0 for a
// page that is not a CoW destination), side-effect free.
func uncopied(e *Engine, pfn uint64) int {
	blk, ok := e.peekBlock(pfn)
	if !ok || !isCoW(e, pfn) {
		return 0
	}
	return blk.UncopiedCount()
}

func fingerprint(e *Engine) engineFingerprint {
	return engineFingerprint{
		stats:       e.Stats,
		ctrHits:     e.CtrCache.Hits,
		ctrMisses:   e.CtrCache.Misses,
		cowHits:     e.CoWCache.Hits,
		cowMisses:   e.CoWCache.Misses,
		devReads:    e.Dev.Reads,
		devWrites:   e.Dev.Writes,
		initialised: e.img.initialised.Count(),
		written:     e.img.written.Count(),
	}
}

// TestIntrospectionSideEffectFree is the regression test for the
// loadBlock-based introspection (SourceOf, peekBlock): it used to charge
// counter reads, move the device clock and churn the cache LRU on every
// call, so merely observing a page changed the measurement.
func TestIntrospectionSideEffectFree(t *testing.T) {
	for _, s := range []Scheme{Lelantus, LelantusCoW} {
		t.Run(s.String(), func(t *testing.T) {
			e := testEngine(t, s, nil)
			const src, dst, untouched = 3, 7, 200
			writeLine(t, e, src, 0, 0x11)
			writeLine(t, e, src, 9, 0x22)
			if _, err := e.PageCopy(0, src, dst); err != nil {
				t.Fatal(err)
			}

			before := fingerprint(e)
			for i := 0; i < 100; i++ {
				if !isCoW(e, dst) {
					t.Fatal("dst must be CoW after PageCopy")
				}
				if got, ok := e.SourceOf(dst); !ok || got != src {
					t.Fatalf("SourceOf(dst) = (%d,%v), want (%d,true)", got, ok, src)
				}
				if n := uncopied(e, dst); n != ctr.LinesPerPage {
					t.Fatalf("uncopied(dst) = %d, want %d", n, ctr.LinesPerPage)
				}
				if isCoW(e, src) {
					t.Fatal("src page must not read as CoW")
				}
				if isCoW(e, untouched) {
					t.Fatal("untouched page must not read as CoW")
				}
				if n := uncopied(e, untouched); n != 0 {
					t.Fatalf("uncopied(untouched) = %d, want 0", n)
				}
			}
			if after := fingerprint(e); after != before {
				t.Fatalf("introspection perturbed the engine:\n before %+v\n after  %+v",
					before, after)
			}

			// Observing must also not change what a later timed operation
			// sees: the device clock position is part of the fingerprint
			// via Dev.Reads/Writes, but double-check the data path still
			// works and the CoW state is intact.
			wantByte(t, readLine(t, e, dst, 9), 0x22, "redirected read after introspection")
		})
	}
}

// TestIntrospectionAfterEviction covers peekBlock's NVM fallback: once the
// destination's counter block has left the cache, SourceOf must decode the
// packed NVM image (write-through keeps it current) — still without
// charging a single counter read.
func TestIntrospectionAfterEviction(t *testing.T) {
	e := testEngine(t, Lelantus, nil)
	// Write-through so the NVM image is always current and a cold cache
	// loses nothing.
	e.CtrCache = ctrcache.New(8<<10, 4, ctrcache.WriteThrough, 2)
	const src, dst = 3, 7
	writeLine(t, e, src, 0, 0x11)
	if _, err := e.PageCopy(0, src, dst); err != nil {
		t.Fatal(err)
	}
	e.CtrCache = ctrcache.New(8<<10, 4, ctrcache.WriteThrough, 2)

	before := fingerprint(e)
	if got, ok := e.SourceOf(dst); !ok || got != src {
		t.Fatalf("SourceOf(dst) = (%d,%v), want (%d,true)", got, ok, src)
	}
	if after := fingerprint(e); after != before {
		t.Fatalf("NVM-fallback introspection perturbed the engine:\n before %+v\n after  %+v",
			before, after)
	}
}

// TestPeekDoesNotMaterialiseBlocks: peeking at a page whose counter block
// was never installed must not install one (materialising would draw from
// the counter-init RNG and shift every later random counter).
func TestPeekDoesNotMaterialiseBlocks(t *testing.T) {
	e := testEngine(t, Lelantus, func(c *Config) { c.RandomInitCounters = true })
	writeLine(t, e, 1, 0, 0xAA)
	before := fingerprint(e)
	for pfn := uint64(50); pfn < 60; pfn++ {
		if isCoW(e, pfn) {
			t.Fatalf("uninitialised page %d reads as CoW", pfn)
		}
	}
	if after := fingerprint(e); after != before {
		t.Fatalf("peeking uninitialised pages materialised state:\n before %+v\n after  %+v",
			before, after)
	}
	// The RNG stream must be unperturbed: this write draws the same initial
	// counters as it would have without the peeks, so the engine stays
	// deterministic. (A perturbed stream shows up as a different counter
	// block for page 2 across two engines.)
	e2 := testEngine(t, Lelantus, func(c *Config) { c.RandomInitCounters = true })
	writeLine(t, e2, 1, 0, 0xAA)
	writeLine(t, e, 2, 0, 0xBB)
	writeLine(t, e2, 2, 0, 0xBB)
	b1, ok1 := e.peekBlock(2)
	b2, ok2 := e2.peekBlock(2)
	if !ok1 || !ok2 || b1 != b2 {
		t.Fatalf("RNG stream perturbed by introspection: %+v vs %+v", b1, b2)
	}
}

// TestMinorIncrementAccounting is the regression test for the
// unconditional MinorIncrements++ in WriteLine: the counter must advance
// only when a minor actually moves.
func TestMinorIncrementAccounting(t *testing.T) {
	t.Run("first-write-and-rewrites", func(t *testing.T) {
		e := testEngine(t, Baseline, nil)
		writeLine(t, e, 3, 0, 1) // 0 -> 1
		if e.Stats.MinorIncrements != 1 {
			t.Fatalf("after first write: MinorIncrements = %d, want 1", e.Stats.MinorIncrements)
		}
		writeLine(t, e, 3, 0, 2) // 1 -> 2
		writeLine(t, e, 3, 0, 3) // 2 -> 3
		if e.Stats.MinorIncrements != 3 {
			t.Fatalf("after rewrites: MinorIncrements = %d, want 3", e.Stats.MinorIncrements)
		}
	})

	t.Run("nonsecure-rewrite-not-counted", func(t *testing.T) {
		e := testEngine(t, Lelantus, func(c *Config) { c.NonSecure = true })
		writeLine(t, e, 3, 0, 1) // materialises the line: one real advance
		writeLine(t, e, 3, 0, 2) // plaintext rewrite: counter untouched
		writeLine(t, e, 3, 0, 3)
		if e.Stats.MinorIncrements != 1 {
			t.Fatalf("NonSecure: MinorIncrements = %d, want 1", e.Stats.MinorIncrements)
		}
	})

	t.Run("overflow-not-counted", func(t *testing.T) {
		e := testEngine(t, Baseline, nil)
		max := uint64((&ctr.Block{Format: ctr.Classic}).MinorMax())
		// Writes 1..max advance the minor 0->1->...->max; the next write
		// overflows: the page re-encrypts and the minor resets without an
		// increment having happened.
		for i := uint64(0); i <= max; i++ {
			writeLine(t, e, 3, 0, byte(i))
		}
		if e.Stats.Overflows != 1 {
			t.Fatalf("Overflows = %d, want 1", e.Stats.Overflows)
		}
		if e.Stats.MinorIncrements != max {
			t.Fatalf("MinorIncrements = %d, want %d (overflow write must not count)",
				e.Stats.MinorIncrements, max)
		}
	})
}
