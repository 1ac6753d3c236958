package memctrl

import (
	"testing"

	"lelantus/internal/core"
	"lelantus/internal/ctrcache"
	"lelantus/internal/mem"
	"lelantus/internal/nvm"
)

func nvmQueueCfg() nvm.QueueConfig { return nvm.DefaultQueueConfig() }

func crashCtl(t *testing.T, scheme core.Scheme, mode ctrcache.Mode) *Controller {
	t.Helper()
	cfg := DefaultConfig(scheme)
	cfg.MemBytes = 16 << 20
	cfg.CtrCacheMode = mode
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCrashBatteryBackedRecovers: the paper's default write-back counter
// cache is battery backed; after a power cycle all data written before the
// crash reads back correctly.
func TestCrashBatteryBackedRecovers(t *testing.T) {
	for _, s := range core.Schemes() {
		t.Run(s.String(), func(t *testing.T) {
			c := crashCtl(t, s, ctrcache.WriteBack)
			var line [mem.LineBytes]byte
			line[0] = 0x77
			if _, err := c.StoreNT(0, 0x4000, &line); err != nil {
				t.Fatal(err)
			}
			if err := c.Crash(0, true); err != nil {
				t.Fatal(err)
			}
			got, _, err := c.Load(0, 0x4000)
			if err != nil {
				t.Fatalf("read after battery-backed crash: %v", err)
			}
			if got[0] != 0x77 {
				t.Fatalf("data lost: %#x", got[0])
			}
		})
	}
}

// TestCrashWriteThroughRecovers: write-through counters are always durable
// regardless of batteries (Fig. 12's trade-off: pay writes, gain crash
// consistency for free).
func TestCrashWriteThroughRecovers(t *testing.T) {
	c := crashCtl(t, core.Lelantus, ctrcache.WriteThrough)
	var line [mem.LineBytes]byte
	line[0] = 0x55
	if _, err := c.StoreNT(0, 0x8000, &line); err != nil {
		t.Fatal(err)
	}
	if err := c.Crash(0, false); err != nil { // no battery, no drain
		t.Fatal(err)
	}
	got, _, err := c.Load(0, 0x8000)
	if err != nil {
		t.Fatalf("read after WT crash: %v", err)
	}
	if got[0] != 0x55 {
		t.Fatalf("data lost: %#x", got[0])
	}
}

// TestCrashWriteBackWithoutBatteryDetected: losing dirty counter updates
// leaves NVM data encrypted under counters newer than the NVM-resident
// counter blocks. The mismatch must be *detected* on the next read (MAC
// failure) — stale counters silently decrypting garbage would be a
// correctness and security disaster (the Osiris/Anubis problem).
func TestCrashWriteBackWithoutBatteryDetected(t *testing.T) {
	c := crashCtl(t, core.Lelantus, ctrcache.WriteBack)
	var line [mem.LineBytes]byte
	// First write: persist everything (establish an NVM-resident counter
	// epoch), so the block is clean in NVM.
	line[0] = 1
	if _, err := c.StoreNT(0, 0xC000, &line); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Engine.DrainMetadata(0); err != nil {
		t.Fatal(err)
	}
	// Second write: data reaches NVM, counter increment stays dirty in the
	// (volatile, unbattery-backed) counter cache.
	line[0] = 2
	if _, err := c.StoreNT(0, 0xC000, &line); err != nil {
		t.Fatal(err)
	}
	if err := c.Crash(0, false); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Load(0, 0xC000); err == nil {
		t.Fatal("stale counter decrypted silently after crash; must be detected")
	}
}

// TestCrashPreservesCoWMappings: the supplementary CoW table lives in NVM;
// a battery-backed crash must not lose source mappings (uncopied lines
// still redirect afterwards).
func TestCrashPreservesCoWMappings(t *testing.T) {
	for _, s := range []core.Scheme{core.Lelantus, core.LelantusCoW} {
		t.Run(s.String(), func(t *testing.T) {
			c := crashCtl(t, s, ctrcache.WriteBack)
			var line [mem.LineBytes]byte
			for i := 0; i < mem.LinesPerPage; i++ {
				line[0] = byte(i)
				if _, err := c.StoreNT(0, mem.LineAddr(3, i), &line); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := c.PageCopy(0, 3, 5); err != nil {
				t.Fatal(err)
			}
			if err := c.Crash(0, true); err != nil {
				t.Fatal(err)
			}
			got, _, err := c.Load(0, mem.LineAddr(5, 7))
			if err != nil {
				t.Fatal(err)
			}
			if got[0] != 7 {
				t.Fatalf("CoW redirect lost across crash: %#x", got[0])
			}
		})
	}
}

// TestWriteQueueEndToEnd drives the controller with a merging write queue:
// functional behaviour is unchanged and merging absorbs device writes.
func TestWriteQueueEndToEnd(t *testing.T) {
	cfg := DefaultConfig(core.Lelantus)
	cfg.MemBytes = 16 << 20
	q := nvmQueueCfg()
	cfg.WriteQueue = &q
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var line [mem.LineBytes]byte
	for i := 0; i < 20; i++ {
		line[0] = byte(i)
		if _, err := c.StoreNT(0, 0x4000, &line); err != nil {
			t.Fatal(err)
		}
	}
	if c.Queue.Merged == 0 {
		t.Fatal("repeated writes to one line must merge in the queue")
	}
	got, _, err := c.Load(0, 0x4000)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 19 {
		t.Fatalf("read %#x, want 0x13", got[0])
	}
	if err := c.Drain(0); err != nil {
		t.Fatal(err)
	}
	if c.Queue.Occupancy() != 0 {
		t.Fatal("drain must flush the queue")
	}
	// Battery-backed crash flushes; data survives.
	line[0] = 0x31
	if _, err := c.StoreNT(0, 0x8000, &line); err != nil {
		t.Fatal(err)
	}
	if err := c.Crash(0, true); err != nil {
		t.Fatal(err)
	}
	got, _, err = c.Load(0, 0x8000)
	if err != nil || got[0] != 0x31 {
		t.Fatalf("after battery crash: %v %#x", err, got[0])
	}
}

// TestCrashVolatileLossCorrectOrDetected pins the crash contract for every
// scheme and counter-cache mode: after an unbattery-backed power cycle, a
// read of any line written before the crash must be (a) correct, (b) refused
// (MAC/tree verification error — detected loss), or (c) a value the durable
// metadata legitimately resolves to (the pre-copy source content, or zeros
// for a lost epoch). A read returning any *other* bytes would be silent
// corruption — the Osiris/Anubis failure the design must exclude. In
// write-through mode nothing volatile holds metadata, so only (a) is
// acceptable.
func TestCrashVolatileLossCorrectOrDetected(t *testing.T) {
	for _, s := range core.Schemes() {
		for _, mode := range []ctrcache.Mode{ctrcache.WriteBack, ctrcache.WriteThrough} {
			name := s.String() + "/wb"
			if mode == ctrcache.WriteThrough {
				name = s.String() + "/wt"
			}
			t.Run(name, func(t *testing.T) {
				c := crashCtl(t, s, mode)
				const src, dst = 3, 5
				var line [mem.LineBytes]byte
				for i := 0; i < mem.LinesPerPage; i++ {
					line[0] = byte(i + 1)
					if _, err := c.StoreNT(0, mem.LineAddr(src, i), &line); err != nil {
						t.Fatal(err)
					}
				}
				target := uint64(src)
				usesCommands := s == core.Lelantus || s == core.LelantusCoW
				if usesCommands {
					// A volatile CoW mapping plus one materialised dst line:
					// crash loss of the mapping cache must degrade to
					// detected-on-read or stale-source, never a wrong-source
					// redirect.
					if _, err := c.PageCopy(0, src, dst); err != nil {
						t.Fatal(err)
					}
					line[0] = 0x99
					if _, err := c.StoreNT(0, mem.LineAddr(dst, 2), &line); err != nil {
						t.Fatal(err)
					}
					target = dst
				}
				if err := c.Crash(0, false); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < mem.LinesPerPage; i++ {
					got, _, err := c.Load(0, mem.LineAddr(target, i))
					if err != nil {
						if mode == ctrcache.WriteThrough {
							t.Fatalf("line %d: write-through metadata is durable, read must succeed: %v", i, err)
						}
						continue // detected loss: acceptable under write-back
					}
					want := byte(i + 1)
					if usesCommands && i == 2 {
						want = 0x99
					}
					switch {
					case got[0] == want:
					case mode == ctrcache.WriteBack && got[0] == 0:
						// Lost metadata epoch resolving to fresh/zero state:
						// stale but metadata-consistent.
					case mode == ctrcache.WriteBack && usesCommands && got[0] == byte(i+1):
						// Redirect to the still-live source content: the copy
						// epoch was lost as a whole — consistent staleness.
					default:
						t.Fatalf("line %d: silent corruption: read %#x, want %#x, stale source %#x, or an error",
							i, got[0], want, byte(i+1))
					}
				}
			})
		}
	}
}

// TestRecoverFlagsTornCounterBlock drives the recovery scrub against a
// hand-torn counter block: the persisted leaf digest disagrees with the NVM
// bytes, so the scrub must report the block as torn and subsequent reads of
// the page must keep failing loudly.
func TestRecoverFlagsTornCounterBlock(t *testing.T) {
	c := crashCtl(t, core.Lelantus, ctrcache.WriteBack)
	var line [mem.LineBytes]byte
	line[0] = 0x42
	if _, err := c.StoreNT(0, mem.LineAddr(3, 0), &line); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Engine.DrainMetadata(0); err != nil {
		t.Fatal(err)
	}
	// Tear the page's counter block in NVM: flip bytes behind the leaf
	// digest's back, as a write torn at the 8-byte boundary would.
	ctrAddr := core.LayoutFor(c.cfg.MemBytes).CounterBase + 3*64
	var blk [mem.LineBytes]byte
	c.Phys.ReadLine(ctrAddr, &blk)
	blk[8] ^= 0xFF
	c.Phys.WriteLine(ctrAddr, &blk)

	if err := c.Crash(0, false); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rep.TornBlocks != 1 {
		t.Fatalf("TornBlocks = %d, want 1: %s", rep.TornBlocks, rep)
	}
	if len(rep.TornPages) != 1 || rep.TornPages[0] != 3 {
		t.Fatalf("TornPages = %v, want [3]", rep.TornPages)
	}
	if v := rep.Violations(); len(v) != 0 {
		t.Fatalf("a detected torn block is not an invariant violation: %v", v)
	}
	if _, _, err := c.Load(0, mem.LineAddr(3, 0)); err == nil {
		t.Fatal("read of a torn-counter page must fail, not decrypt silently")
	}
}

// TestRecoverCleanImage: recovering an intact, drained image finds nothing
// wrong and reports a non-zero modeled scrub cost.
func TestRecoverCleanImage(t *testing.T) {
	c := crashCtl(t, core.LelantusCoW, ctrcache.WriteBack)
	var line [mem.LineBytes]byte
	line[0] = 0x11
	for i := 0; i < mem.LinesPerPage; i++ {
		if _, err := c.StoreNT(0, mem.LineAddr(3, i), &line); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.PageCopy(0, 3, 7); err != nil {
		t.Fatal(err)
	}
	if err := c.Crash(0, true); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rep.TornBlocks != 0 || rep.MACMismatches != 0 || len(rep.Violations()) != 0 {
		t.Fatalf("clean image reported damage: %s", rep)
	}
	if rep.CoWMappings != 1 {
		t.Fatalf("CoWMappings = %d, want the page_copy mapping", rep.CoWMappings)
	}
	if rep.BlocksScanned == 0 || rep.RecoveryNs == 0 {
		t.Fatalf("scrub cost not modeled: %s", rep)
	}
	if c.Engine.Stats.Recoveries != 1 {
		t.Fatalf("Stats.Recoveries = %d, want 1", c.Engine.Stats.Recoveries)
	}
}
