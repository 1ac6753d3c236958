package core

import (
	"errors"
	"testing"

	"lelantus/internal/bmt"
	"lelantus/internal/ctr"
	"lelantus/internal/ctrcache"
	"lelantus/internal/enc"
	"lelantus/internal/mem"
	"lelantus/internal/nvm"
)

const testDataBytes = 1 << 20 // 256 pages

func testEngine(t testing.TB, scheme Scheme, mutate func(*Config)) *Engine {
	t.Helper()
	return sizedEngine(t, scheme, testDataBytes/mem.PageBytes, ctrcache.WriteBack, mutate)
}

// sizedEngine builds an engine over a data region of the given page count,
// with the shared zero frame on its last page.
func sizedEngine(t testing.TB, scheme Scheme, pages uint64, mode ctrcache.Mode, mutate func(*Config)) *Engine {
	t.Helper()
	cfg := DefaultConfig(scheme)
	if mutate != nil {
		mutate(&cfg)
	}
	layout := LayoutFor(pages * mem.PageBytes)
	phys := mem.NewPhysical(layout.CoWBase + pages*8)
	dev := nvm.New(nvm.DefaultConfig())
	encEng, err := enc.New([]byte("unit-test-key-16"))
	if err != nil {
		t.Fatal(err)
	}
	tree := bmt.New([]byte("tree"), pages)
	macs, err := bmt.NewMACStore([]byte("macs"), pages*mem.LinesPerPage)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(cfg, layout, phys, dev, encEng, tree, macs, ctrcache.New(8<<10, 4, mode, 2), ctrcache.NewCoW(512))
	e.ZeroPFN = pages - 1
	return e
}

func writeLine(t testing.TB, e *Engine, pfn uint64, li int, val byte) {
	t.Helper()
	var plain [mem.LineBytes]byte
	for i := range plain {
		plain[i] = val
	}
	if _, err := e.WriteLine(0, mem.LineAddr(pfn, li), &plain); err != nil {
		t.Fatalf("WriteLine(%d,%d): %v", pfn, li, err)
	}
}

func readLine(t testing.TB, e *Engine, pfn uint64, li int) [mem.LineBytes]byte {
	t.Helper()
	plain, _, err := e.ReadLine(0, mem.LineAddr(pfn, li))
	if err != nil {
		t.Fatalf("ReadLine(%d,%d): %v", pfn, li, err)
	}
	return plain
}

func wantByte(t *testing.T, got [mem.LineBytes]byte, val byte, msg string) {
	t.Helper()
	for i := range got {
		if got[i] != val {
			t.Fatalf("%s: byte %d = %#x, want %#x", msg, i, got[i], val)
		}
	}
}

func TestWriteReadRoundTripAllSchemes(t *testing.T) {
	for _, s := range Schemes() {
		t.Run(s.String(), func(t *testing.T) {
			e := testEngine(t, s, nil)
			writeLine(t, e, 3, 5, 0xAB)
			wantByte(t, readLine(t, e, 3, 5), 0xAB, "written line")
			writeLine(t, e, 3, 5, 0xCD)
			wantByte(t, readLine(t, e, 3, 5), 0xCD, "overwritten line")
		})
	}
}

// TestWriteBeyondMACStoreIsCorrupt: a data line the MAC store does not
// cover fails its write with ErrMetadataCorrupt wrapping the store's
// *bmt.LineRangeError; a covered line still writes.
func TestWriteBeyondMACStoreIsCorrupt(t *testing.T) {
	e := testEngine(t, Baseline, nil)
	macs, err := bmt.NewMACStore([]byte("macs"), mem.LinesPerPage) // page 0 only
	if err != nil {
		t.Fatal(err)
	}
	e.img.MACs = macs
	writeLine(t, e, 0, 3, 5)
	line := [mem.LineBytes]byte{5}
	_, err = e.WriteLine(0, mem.LineAddr(1, 0), &line)
	var lre *bmt.LineRangeError
	if !errors.Is(err, ErrMetadataCorrupt) || !errors.As(err, &lre) || lre.Line != mem.LinesPerPage {
		t.Fatalf("line beyond the MAC store: %v, want ErrMetadataCorrupt wrapping a LineRangeError at line %d", err, mem.LinesPerPage)
	}
}

func TestDataRemanence(t *testing.T) {
	// The paper's threat model: an attacker dumping the NVM must not see
	// plaintext — the data at rest is ciphertext.
	e := testEngine(t, Lelantus, nil)
	writeLine(t, e, 4, 0, 0x77)
	var raw [mem.LineBytes]byte
	e.img.Phys.ReadLine(mem.LineAddr(4, 0), &raw)
	same := true
	for i := range raw {
		if raw[i] != 0x77 {
			same = false
			break
		}
	}
	if same {
		t.Fatal("plaintext found in NVM")
	}
	wantByte(t, readLine(t, e, 4, 0), 0x77, "read through controller")
}

func TestPageCopySemantics(t *testing.T) {
	for _, s := range []Scheme{Lelantus, LelantusCoW} {
		t.Run(s.String(), func(t *testing.T) {
			e := testEngine(t, s, nil)
			const src, dst = 10, 11
			for i := 0; i < ctr.LinesPerPage; i++ {
				writeLine(t, e, src, i, byte(i))
			}
			if _, err := e.PageCopy(0, src, dst); err != nil {
				t.Fatalf("PageCopy: %v", err)
			}
			if !isCoW(e, dst) {
				t.Fatal("destination must be a CoW page")
			}
			if got, _ := e.SourceOf(dst); got != src {
				t.Fatalf("SourceOf = %d, want %d", got, src)
			}
			if uncopied(e, dst) != ctr.LinesPerPage {
				t.Fatal("all lines must be uncopied after page_copy")
			}
			// Every line reads the source's content without being copied.
			w0 := e.Stats.DataWrites
			for i := 0; i < ctr.LinesPerPage; i++ {
				got := readLine(t, e, dst, i)
				if got[0] != byte(i) {
					t.Fatalf("line %d: got %#x want %#x", i, got[0], byte(i))
				}
			}
			if e.Stats.DataWrites != w0 {
				t.Fatal("reading a CoW page must not write data")
			}
			// Writing one destination line isolates it from the source.
			writeLine(t, e, dst, 7, 0xEE)
			wantByte(t, readLine(t, e, dst, 7), 0xEE, "materialised line")
			got := readLine(t, e, src, 7)
			if got[0] != 7 {
				t.Fatal("source modified by destination write")
			}
			if uncopied(e, dst) != ctr.LinesPerPage-1 {
				t.Fatal("exactly one line must be materialised")
			}
			if e.Stats.CopiedOnDemand != 1 {
				t.Fatalf("CopiedOnDemand = %d, want 1", e.Stats.CopiedOnDemand)
			}
			// Source writes after the copy must not leak into the
			// destination's already-materialised line, and uncopied lines
			// still reflect the live source (phyc protocol is the kernel's
			// job; the engine redirects as designed).
			writeLine(t, e, src, 7, 0x99)
			wantByte(t, readLine(t, e, dst, 7), 0xEE, "materialised line after src write")
		})
	}
}

func TestPageCopyUnsupported(t *testing.T) {
	for _, s := range []Scheme{Baseline, SilentShredder} {
		e := testEngine(t, s, nil)
		if _, err := e.PageCopy(0, 1, 2); err != ErrUnsupported {
			t.Fatalf("%v: err = %v, want ErrUnsupported", s, err)
		}
	}
	e := testEngine(t, Lelantus, nil)
	if _, err := e.PageCopy(0, 3, 3); err != ErrSamePage {
		t.Fatalf("same page: err = %v", err)
	}
}

func TestRecursiveChain(t *testing.T) {
	for _, s := range []Scheme{Lelantus, LelantusCoW} {
		t.Run(s.String(), func(t *testing.T) {
			e := testEngine(t, s, nil)
			const a, b, c = 20, 21, 22
			for i := 0; i < ctr.LinesPerPage; i++ {
				writeLine(t, e, a, i, 0xA0)
			}
			if _, err := e.PageCopy(0, a, b); err != nil {
				t.Fatal(err)
			}
			// Modify two lines of B, then copy B to C.
			writeLine(t, e, b, 0, 0xB0)
			writeLine(t, e, b, 1, 0xB1)
			if _, err := e.PageCopy(0, b, c); err != nil {
				t.Fatal(err)
			}
			if src, _ := e.SourceOf(c); src != b {
				t.Fatalf("modified middle page: C.src = %d, want %d", src, b)
			}
			wantByte(t, readLine(t, e, c, 0), 0xB0, "line via B")
			wantByte(t, readLine(t, e, c, 1), 0xB1, "line via B")
			wantByte(t, readLine(t, e, c, 2), 0xA0, "line via B then A")
			if e.Stats.MaxChain < 2 {
				t.Fatalf("MaxChain = %d, want >= 2", e.Stats.MaxChain)
			}
		})
	}
}

func TestChainShortCircuit(t *testing.T) {
	// Paper Section III-E: copying an unmodified CoW page records the
	// grandparent, so the middle page drops out of the chain.
	for _, s := range []Scheme{Lelantus, LelantusCoW} {
		t.Run(s.String(), func(t *testing.T) {
			e := testEngine(t, s, nil)
			const a, b, c = 30, 31, 32
			writeLine(t, e, a, 0, 0xAA)
			if _, err := e.PageCopy(0, a, b); err != nil {
				t.Fatal(err)
			}
			if _, err := e.PageCopy(0, b, c); err != nil {
				t.Fatal(err)
			}
			if src, _ := e.SourceOf(c); src != a {
				t.Fatalf("C.src = %d, want grandparent %d", src, a)
			}
			wantByte(t, readLine(t, e, c, 0), 0xAA, "grandchild line")
		})
	}
}

func TestPagePhyc(t *testing.T) {
	for _, s := range []Scheme{Lelantus, LelantusCoW} {
		t.Run(s.String(), func(t *testing.T) {
			e := testEngine(t, s, nil)
			const src, dst = 40, 41
			for i := 0; i < ctr.LinesPerPage; i++ {
				writeLine(t, e, src, i, byte(0x40+i%16))
			}
			if _, err := e.PageCopy(0, src, dst); err != nil {
				t.Fatal(err)
			}
			writeLine(t, e, dst, 3, 0xDD)

			_, copied, err := e.PagePhyc(0, src, dst)
			if err != nil {
				t.Fatal(err)
			}
			if copied != ctr.LinesPerPage-1 {
				t.Fatalf("copied = %d, want %d", copied, ctr.LinesPerPage-1)
			}
			if isCoW(e, dst) {
				t.Fatal("phyc must clear the CoW state")
			}
			// Destination content survives mutation of the former source.
			for i := 0; i < ctr.LinesPerPage; i++ {
				writeLine(t, e, src, i, 0x00)
			}
			wantByte(t, readLine(t, e, dst, 3), 0xDD, "written line after phyc")
			got := readLine(t, e, dst, 5)
			if got[0] != byte(0x40+5%16) {
				t.Fatalf("materialised line lost: %#x", got[0])
			}
			if e.Stats.Redirects != 0 {
				// All redirect stats below came from pre-phyc reads; reset
				// and confirm reads no longer redirect.
				e.Stats.Redirects = 0
				readLine(t, e, dst, 9)
				if e.Stats.Redirects != 0 {
					t.Fatal("reads after phyc must not redirect")
				}
			}
		})
	}
}

func TestPagePhycStaleIsNoop(t *testing.T) {
	e := testEngine(t, Lelantus, nil)
	const src, other, dst = 50, 51, 52
	writeLine(t, e, src, 0, 1)
	writeLine(t, e, other, 0, 2)
	if _, err := e.PageCopy(0, src, dst); err != nil {
		t.Fatal(err)
	}
	_, copied, err := e.PagePhyc(0, other, dst)
	if err != nil {
		t.Fatal(err)
	}
	if copied != 0 {
		t.Fatal("phyc with a stale source must be a no-op")
	}
	if !isCoW(e, dst) {
		t.Fatal("stale phyc must leave the CoW state intact")
	}
}

func TestPageFreeElides(t *testing.T) {
	for _, s := range []Scheme{Lelantus, LelantusCoW} {
		t.Run(s.String(), func(t *testing.T) {
			e := testEngine(t, s, nil)
			const src, dst = 60, 61
			for i := 0; i < ctr.LinesPerPage; i++ {
				writeLine(t, e, src, i, 0x66)
			}
			if _, err := e.PageCopy(0, src, dst); err != nil {
				t.Fatal(err)
			}
			writeLine(t, e, dst, 0, 0x01)
			w0 := e.Stats.DataWrites
			if _, err := e.PageFree(0, dst); err != nil {
				t.Fatal(err)
			}
			if e.Stats.DataWrites != w0 {
				t.Fatal("page_free must not write data")
			}
			if e.Stats.ElidedLines != ctr.LinesPerPage-1 {
				t.Fatalf("ElidedLines = %d, want %d", e.Stats.ElidedLines, ctr.LinesPerPage-1)
			}
			// The recycled page reads as fresh zeros.
			wantByte(t, readLine(t, e, dst, 0), 0, "freed line")
			wantByte(t, readLine(t, e, dst, 9), 0, "freed line")
		})
	}
}

func TestPageFreeFreshPads(t *testing.T) {
	// A freed and reused frame must never reuse a one-time pad: the same
	// plaintext written to the same line across two lifetimes must yield
	// different ciphertext.
	e := testEngine(t, Lelantus, nil)
	const pfn = 70
	writeLine(t, e, pfn, 0, 0x11)
	var c1 [mem.LineBytes]byte
	e.img.Phys.ReadLine(mem.LineAddr(pfn, 0), &c1)
	if _, err := e.PageFree(0, pfn); err != nil {
		t.Fatal(err)
	}
	writeLine(t, e, pfn, 0, 0x11)
	var c2 [mem.LineBytes]byte
	e.img.Phys.ReadLine(mem.LineAddr(pfn, 0), &c2)
	if c1 == c2 {
		t.Fatal("one-time pad reused across page lifetimes")
	}
}

func TestPageInit(t *testing.T) {
	for _, s := range []Scheme{SilentShredder, Lelantus, LelantusCoW} {
		t.Run(s.String(), func(t *testing.T) {
			e := testEngine(t, s, nil)
			const pfn = 80
			writeLine(t, e, pfn, 4, 0xFF) // stale prior-life content
			w0 := e.Stats.DataWrites
			if _, err := e.PageInit(0, pfn); err != nil {
				t.Fatal(err)
			}
			if e.Stats.DataWrites != w0 {
				t.Fatal("page_init must write no data lines")
			}
			for _, li := range []int{0, 4, 63} {
				wantByte(t, readLine(t, e, pfn, li), 0, "initialised line")
			}
			// Writes after init behave normally.
			writeLine(t, e, pfn, 4, 0x21)
			wantByte(t, readLine(t, e, pfn, 4), 0x21, "post-init write")
			wantByte(t, readLine(t, e, pfn, 5), 0, "untouched line stays zero")
		})
	}
	e := testEngine(t, Baseline, nil)
	if _, err := e.PageInit(0, 80); err != ErrUnsupported {
		t.Fatalf("baseline page_init err = %v", err)
	}
}

func TestSilentShredderZeroWriteElision(t *testing.T) {
	e := testEngine(t, SilentShredder, nil)
	const pfn = 90
	writeLine(t, e, pfn, 0, 0x55)
	w0 := e.Stats.DataWrites
	var zero [mem.LineBytes]byte
	if _, err := e.WriteLine(0, mem.LineAddr(pfn, 0), &zero); err != nil {
		t.Fatal(err)
	}
	if e.Stats.DataWrites != w0 {
		t.Fatal("zero-line write must be elided")
	}
	if e.Stats.ZeroWriteElisions != 1 {
		t.Fatalf("ZeroWriteElisions = %d", e.Stats.ZeroWriteElisions)
	}
	wantByte(t, readLine(t, e, pfn, 0), 0, "shredded line")
	// A later non-zero write resurrects the line normally.
	writeLine(t, e, pfn, 0, 0x56)
	wantByte(t, readLine(t, e, pfn, 0), 0x56, "rewritten line")
}

func TestMinorOverflowReencrypts(t *testing.T) {
	e := testEngine(t, Baseline, nil)
	const pfn = 100
	writeLine(t, e, pfn, 1, 0x31) // neighbour that must survive re-encryption
	for n := 0; n < ctr.MinorMaxClassic+5; n++ {
		writeLine(t, e, pfn, 0, byte(n))
	}
	if e.Stats.Overflows != 1 {
		t.Fatalf("Overflows = %d, want 1", e.Stats.Overflows)
	}
	if e.Stats.ReencryptedLines == 0 {
		t.Fatal("overflow must re-encrypt materialised neighbours")
	}
	wantByte(t, readLine(t, e, pfn, 1), 0x31, "neighbour after re-encryption")
	wantByte(t, readLine(t, e, pfn, 0), byte(ctr.MinorMaxClassic+4), "hammered line")
}

func TestCoWMinorOverflowAt6Bits(t *testing.T) {
	// Lelantus CoW pages have 6-bit minors: overflow after ~62 writes, the
	// drawback Table I and Fig. 10a quantify.
	e := testEngine(t, Lelantus, nil)
	const src, dst = 101, 102
	writeLine(t, e, src, 1, 0x13)
	if _, err := e.PageCopy(0, src, dst); err != nil {
		t.Fatal(err)
	}
	for n := 0; n <= ctr.MinorMaxCoW+1; n++ {
		writeLine(t, e, dst, 0, byte(n))
	}
	if e.Stats.Overflows != 1 {
		t.Fatalf("Overflows = %d, want 1 after %d writes", e.Stats.Overflows, ctr.MinorMaxCoW+2)
	}
	// Uncopied lines must still redirect after the epoch change.
	wantByte(t, readLine(t, e, dst, 1), 0x13, "uncopied line after overflow")
}

func TestCounterTamperDetected(t *testing.T) {
	e := testEngine(t, Lelantus, nil)
	const pfn = 110
	writeLine(t, e, pfn, 0, 0x42)
	// Force the counter block to NVM and out of the cache.
	if _, err := e.DrainMetadata(0); err != nil {
		t.Fatal(err)
	}
	e.ResetVolatile()
	addr := e.img.ctrAddr(pfn)
	var raw [mem.LineBytes]byte
	e.img.Phys.ReadLine(addr, &raw)
	raw[3] ^= 0x10
	e.img.Phys.WriteLine(addr, &raw)
	if _, _, err := e.ReadLine(0, mem.LineAddr(pfn, 0)); err == nil {
		t.Fatal("tampered counter block accepted")
	}
}

func TestDataTamperDetected(t *testing.T) {
	e := testEngine(t, Lelantus, nil)
	const pfn = 111
	writeLine(t, e, pfn, 2, 0x55)
	la := mem.LineAddr(pfn, 2)
	var raw [mem.LineBytes]byte
	e.img.Phys.ReadLine(la, &raw)
	raw[0] ^= 1
	e.img.Phys.WriteLine(la, &raw)
	if _, _, err := e.ReadLine(0, la); err == nil {
		t.Fatal("tampered data line accepted")
	}
}

func TestRandomInitCounters(t *testing.T) {
	e := testEngine(t, Baseline, func(c *Config) { c.RandomInitCounters = true })
	blk, _, err := e.loadBlock(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	nonzero := 0
	for _, m := range blk.Minor {
		if m == 0 {
			t.Fatal("random init must avoid the reserved zero value")
		}
		if m > 1 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Fatal("random init produced all-ones minors")
	}
}

func TestFootprintTracking(t *testing.T) {
	e := testEngine(t, Lelantus, nil)
	const pfn = 120
	e.Track(pfn)
	writeLine(t, e, pfn, 0, 1)
	writeLine(t, e, pfn, 63, 1)
	readLine(t, e, pfn, 5)
	fp := e.Footprints()[pfn]
	want := uint64(1)<<0 | uint64(1)<<63 | uint64(1)<<5
	if fp != want {
		t.Fatalf("footprint = %#x, want %#x", fp, want)
	}
	if e.Footprints()[pfn+1] != 0 {
		t.Fatal("untracked page has a footprint")
	}
}

func TestParseScheme(t *testing.T) {
	for _, s := range Schemes() {
		got, err := ParseScheme(s.String())
		if err != nil || got != s {
			t.Fatalf("ParseScheme(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := ParseScheme("bogus"); err == nil {
		t.Fatal("bogus scheme accepted")
	}
	if Scheme(99).String() == "" {
		t.Fatal("unknown scheme must stringify")
	}
}

func TestStatsSub(t *testing.T) {
	a := Stats{LogicalWrites: 10, DataWrites: 8, Overflows: 2, PageCopies: 3}
	b := Stats{LogicalWrites: 4, DataWrites: 3, Overflows: 1, PageCopies: 1}
	d := a.Sub(b)
	if d.LogicalWrites != 6 || d.DataWrites != 5 || d.Overflows != 1 || d.PageCopies != 2 {
		t.Fatalf("Sub = %+v", d)
	}
}

func TestSchemeTextMarshalling(t *testing.T) {
	for _, s := range Schemes() {
		b, err := s.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var got Scheme
		if err := got.UnmarshalText(b); err != nil {
			t.Fatal(err)
		}
		if got != s {
			t.Fatalf("round trip: %v != %v", got, s)
		}
	}
	var s Scheme
	if err := s.UnmarshalText([]byte("nope")); err == nil {
		t.Fatal("bad name accepted")
	}
}
