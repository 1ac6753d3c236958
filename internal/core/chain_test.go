package core

import (
	"testing"

	"lelantus/internal/ctr"
	"lelantus/internal/mem"
)

// TestDeepSnapshotChain builds the snapshot-of-snapshot pattern of
// Section II-C: a chain A -> B -> C -> D where every generation modifies a
// different line, and verifies each generation reads exactly its own view.
func TestDeepSnapshotChain(t *testing.T) {
	for _, s := range []Scheme{Lelantus, LelantusCoW} {
		t.Run(s.String(), func(t *testing.T) {
			e := testEngine(t, s, nil)
			pages := []uint64{100, 101, 102, 103}
			for i := 0; i < ctr.LinesPerPage; i++ {
				writeLine(t, e, pages[0], i, 0xA0)
			}
			for g := 1; g < len(pages); g++ {
				if _, err := e.PageCopy(0, pages[g-1], pages[g]); err != nil {
					t.Fatal(err)
				}
				// Each generation overwrites its own line index.
				writeLine(t, e, pages[g], g, byte(0xB0+g))
			}
			// Generation 3 sees: its own line 3, gen-2's line 2, gen-1's
			// line 1, and the ancestor everywhere else.
			last := pages[3]
			wantByte(t, readLine(t, e, last, 3), 0xB3, "own line")
			wantByte(t, readLine(t, e, last, 2), 0xB2, "parent line")
			wantByte(t, readLine(t, e, last, 1), 0xB1, "grandparent line")
			wantByte(t, readLine(t, e, last, 0), 0xA0, "ancestor line")
			wantByte(t, readLine(t, e, last, 9), 0xA0, "ancestor line")
			// Earlier generations are unaffected by later writes.
			wantByte(t, readLine(t, e, pages[1], 3), 0xA0, "gen-1 line 3")
			wantByte(t, readLine(t, e, pages[2], 3), 0xA0, "gen-2 line 3")
			if e.Stats.MaxChain < 3 {
				t.Fatalf("MaxChain = %d, want >= 3", e.Stats.MaxChain)
			}
		})
	}
}

// TestChainCollapseOnPhyc materialises the middle of a chain and checks
// the ends still read correctly.
func TestChainCollapseOnPhyc(t *testing.T) {
	for _, s := range []Scheme{Lelantus, LelantusCoW} {
		t.Run(s.String(), func(t *testing.T) {
			e := testEngine(t, s, nil)
			const a, b, c = 110, 111, 112
			for i := 0; i < ctr.LinesPerPage; i++ {
				writeLine(t, e, a, i, 0x1A)
			}
			if _, err := e.PageCopy(0, a, b); err != nil {
				t.Fatal(err)
			}
			writeLine(t, e, b, 0, 0x1B) // b diverges so c chains to b
			if _, err := e.PageCopy(0, b, c); err != nil {
				t.Fatal(err)
			}
			// Materialise b fully; c still references b.
			if _, _, err := e.PagePhyc(0, a, b); err != nil {
				t.Fatal(err)
			}
			// Now destroy a (free + new epoch): c must be unaffected since
			// its chain goes through the now-materialised b.
			if _, err := e.PageFree(0, a); err != nil {
				t.Fatal(err)
			}
			wantByte(t, readLine(t, e, c, 0), 0x1B, "line via b")
			wantByte(t, readLine(t, e, c, 5), 0x1A, "line via b (copied from a)")
		})
	}
}

// TestRandomInitOverflowEndToEnd forces minor-counter overflows through a
// real rewrite-heavy trace with randomly initialised counters and checks
// data integrity across the re-encryptions.
func TestRandomInitOverflowEndToEnd(t *testing.T) {
	for _, s := range Schemes() {
		t.Run(s.String(), func(t *testing.T) {
			e := testEngine(t, s, func(c *Config) {
				c.RandomInitCounters = true
				c.Seed = 42
			})
			const pfn = 120
			// Establish data on several lines.
			for i := 0; i < 8; i++ {
				writeLine(t, e, pfn, i, byte(0x10+i))
			}
			// Hammer one line far beyond any minor width.
			for n := 0; n < 3*ctr.MinorMaxClassic; n++ {
				writeLine(t, e, pfn, 0, byte(n))
			}
			if e.Stats.Overflows == 0 {
				t.Fatal("expected at least one overflow")
			}
			// Every other line survived the epoch changes.
			for i := 1; i < 8; i++ {
				wantByte(t, readLine(t, e, pfn, i), byte(0x10+i), "surviving line")
			}
		})
	}
}

// TestCoWOverflowPreservesRedirects: an overflow on a partially
// materialised CoW page must not disturb the uncopied lines.
func TestCoWOverflowPreservesRedirects(t *testing.T) {
	e := testEngine(t, Lelantus, nil)
	const src, dst = 130, 131
	for i := 0; i < ctr.LinesPerPage; i++ {
		writeLine(t, e, src, i, byte(0x40+i%8))
	}
	if _, err := e.PageCopy(0, src, dst); err != nil {
		t.Fatal(err)
	}
	writeLine(t, e, dst, 1, 0x99)
	for n := 0; n < 2*int(ctr.MinorMaxCoW); n++ {
		writeLine(t, e, dst, 0, byte(n))
	}
	if e.Stats.Overflows == 0 {
		t.Fatal("expected a 6-bit overflow")
	}
	wantByte(t, readLine(t, e, dst, 1), 0x99, "materialised line after overflow")
	got := readLine(t, e, dst, 7)
	if got[0] != byte(0x40+7%8) {
		t.Fatalf("uncopied line after overflow = %#x", got[0])
	}
	if uncopied(e, dst) != ctr.LinesPerPage-2 {
		t.Fatalf("uncopied = %d", uncopied(e, dst))
	}
}

// TestWriteToLineAddrBounds exercises the highest page the test layout
// admits, guarding the metadata address arithmetic.
func TestWriteToLineAddrBounds(t *testing.T) {
	e := testEngine(t, LelantusCoW, nil)
	lastPage := uint64(testDataBytes/mem.PageBytes - 1)
	writeLine(t, e, lastPage, 63, 0x7F)
	wantByte(t, readLine(t, e, lastPage, 63), 0x7F, "last line of last page")
	if _, err := e.PageCopy(0, lastPage, 0); err != nil {
		t.Fatal(err)
	}
	wantByte(t, readLine(t, e, 0, 63), 0x7F, "copy from last page")
}
