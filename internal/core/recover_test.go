package core

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"lelantus/internal/ctr"
	"lelantus/internal/ctrcache"
	"lelantus/internal/mem"
)

// recoverPages sizes the engines below: 3000 pages put the CoW table at a
// base that is not frame-aligned and spread it over seven frames, so the
// table scan's frame arithmetic meets both a partial first frame and a
// partial last one.
const recoverPages = 3000

// randomCommands drives a seeded random mix of stores and page_copy,
// page_init and page_free commands, with an occasional metadata drain,
// over a few clusters of pages, the first and the next-to-last included.
// Clusters sit 1024 pages apart, two CoW-table frames' worth of entries,
// so every other table frame stays absent. Commands the engine refuses are
// skipped: only the resulting durable image matters.
func randomCommands(e *Engine, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	page := func() uint64 {
		if rng.Intn(8) == 0 {
			return recoverPages - 2
		}
		return uint64(rng.Intn(3))*1024 + uint64(rng.Intn(12))
	}
	var line [mem.LineBytes]byte
	for i := 0; i < 400; i++ {
		line[0] = byte(i)
		src, dst := page(), page()
		if rng.Intn(50) == 0 {
			// Write-back blocks reach NVM only by eviction or drain.
			e.DrainMetadata(0)
		}
		switch rng.Intn(4) {
		case 0:
			e.WriteLine(0, mem.LineAddr(dst, rng.Intn(mem.LinesPerPage)), &line)
		case 1:
			e.PageCopy(0, src, dst)
		case 2:
			e.PageInit(0, dst)
		default:
			e.PageFree(0, dst)
		}
	}
}

// TestRecoverMatchesFullScan: after a seeded random command sequence and a
// power cycle, Recover's enumeration (the initialised blocks, the resident
// CoW-table frames) finds the same live blocks and chain starts as the
// capacity-wide scan, and the full recovery reports are equal. Twin
// engines take the two paths, since a scrub rebuilds the tree it reports
// on.
func TestRecoverMatchesFullScan(t *testing.T) {
	for _, s := range []Scheme{Lelantus, LelantusCoW} {
		for _, mode := range []ctrcache.Mode{ctrcache.WriteBack, ctrcache.WriteThrough} {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%v/%v/%d", s, mode, seed), func(t *testing.T) {
					twin := func() *Engine {
						e := sizedEngine(t, s, recoverPages, mode, nil)
						randomCommands(e, seed)
						e.ResetVolatile()
						return e
					}
					got, ref := twin(), twin()
					live, starts := got.RecoveryScan()
					refLive, refStarts := ref.ReferenceScan()
					if !slices.Equal(live, refLive) || !slices.Equal(starts, refStarts) {
						t.Fatalf("scan found %d blocks and starts %v, full scan %d blocks and starts %v",
							len(live), starts, len(refLive), refStarts)
					}
					if len(starts) == 0 {
						t.Fatal("the command mix left no CoW mapping: the comparison is vacuous")
					}
					rep, err := got.Recover()
					if err != nil {
						t.Fatal(err)
					}
					refRep, err := ref.RecoverReference()
					if err != nil {
						t.Fatal(err)
					}
					a, _ := json.Marshal(rep)
					b, _ := json.Marshal(refRep)
					if string(a) != string(b) {
						t.Fatalf("reports differ:\n%s\n%s", a, b)
					}
				})
			}
		}
	}
}

// plantRedirect writes a CoW redirect dst -> src straight into the NVM
// metadata, behind the caches' back: into dst's counter block (Lelantus,
// refreshing its leaf digest so the block does not read as torn) or into
// dst's supplementary-table entry (Lelantus-CoW).
func plantRedirect(t *testing.T, e *Engine, dst, src uint64) {
	t.Helper()
	switch e.cfg.Scheme {
	case Lelantus:
		blk := ctr.Block{Format: ctr.Resized, Major: 1, CoW: true, Src: src}
		var raw [ctr.BlockBytes]byte
		if err := blk.PackInto(&raw); err != nil {
			t.Fatal(err)
		}
		e.img.Phys.WriteLine(e.img.ctrAddr(dst), &raw)
		e.img.Tree.Update(dst, raw[:])
	case LelantusCoW:
		var raw [mem.LineBytes]byte
		addr := e.img.cowMetaAddr(dst)
		e.img.Phys.ReadLine(addr, &raw)
		off := (dst * 8) % mem.LineBytes
		binary.LittleEndian.PutUint64(raw[off:off+8], src|cowPresent)
		e.img.Phys.WriteLine(addr, &raw)
	}
}

// TestRecoverFlagsPlantedChains plants bad redirects straight into NVM,
// power-cycles and recovers, and asserts the exact pass-3 counts. Each
// case initialises the pages it names "live" with a store, so their
// counter blocks exist; every other page is never touched.
func TestRecoverFlagsPlantedChains(t *testing.T) {
	type redirect struct{ dst, src uint64 }
	const a, b, c = 700, 701, 1500 // c is never initialised
	last := uint64(recoverPages - 2)
	zero := uint64(recoverPages - 1) // sizedEngine's zero frame
	cases := []struct {
		name              string
		cowOnly           bool
		live              []uint64
		plant             []redirect
		invalid, cycles   uint64
		wantViolationText int
	}{
		{"self-redirect", false, []uint64{a}, []redirect{{a, a}}, 1, 0, 1},
		{"source-beyond-data", false, []uint64{a}, []redirect{{a, recoverPages}}, 1, 0, 1},
		{"uninitialised-source", false, []uint64{a}, []redirect{{a, c}}, 1, 0, 1},
		{"zero-frame-source", false, []uint64{a}, []redirect{{a, zero}}, 0, 0, 0},
		{"two-page-cycle", false, []uint64{a, b}, []redirect{{a, b}, {b, a}}, 0, 2, 1},
		{"no-counter-block", true, nil, []redirect{{c, c}}, 1, 0, 1},
		{"last-table-frame", true, []uint64{last}, []redirect{{last, last}}, 1, 0, 1},
	}
	for _, s := range []Scheme{Lelantus, LelantusCoW} {
		for _, tc := range cases {
			if tc.cowOnly && s != LelantusCoW {
				continue
			}
			t.Run(s.String()+"/"+tc.name, func(t *testing.T) {
				e := sizedEngine(t, s, recoverPages, ctrcache.WriteBack, nil)
				for _, pfn := range tc.live {
					writeLine(t, e, pfn, 0, 0x5A)
				}
				if _, err := e.DrainMetadata(0); err != nil {
					t.Fatal(err)
				}
				for _, r := range tc.plant {
					plantRedirect(t, e, r.dst, r.src)
				}
				e.ResetVolatile()
				_, starts := e.RecoveryScan()
				if _, refStarts := e.ReferenceScan(); !slices.Equal(starts, refStarts) {
					t.Fatalf("chain starts %v, full scan %v", starts, refStarts)
				}
				rep, err := e.Recover()
				if err != nil {
					t.Fatal(err)
				}
				if rep.CoWMappings != uint64(len(tc.plant)) || rep.InvalidSources != tc.invalid || rep.ChainCycles != tc.cycles {
					t.Fatalf("%d mappings, %d invalid sources, %d cycles; want %d, %d, %d: %s",
						rep.CoWMappings, rep.InvalidSources, rep.ChainCycles, len(tc.plant), tc.invalid, tc.cycles, rep)
				}
				if rep.TornBlocks != 0 {
					t.Fatalf("planted blocks read as torn: %s", rep)
				}
				if v := rep.Violations(); len(v) != tc.wantViolationText {
					t.Fatalf("Violations() = %q, want %d entries", v, tc.wantViolationText)
				}
			})
		}
	}
}
