package memctrl

import (
	"testing"

	"lelantus/internal/core"
	"lelantus/internal/ctrcache"
	"lelantus/internal/mem"
	"lelantus/internal/probe"
)

func persistCtl(t *testing.T, scheme core.Scheme, strat core.PersistStrategy) *Controller {
	t.Helper()
	cfg := DefaultConfig(scheme)
	cfg.MemBytes = 16 << 20
	cfg.CtrCacheMode = ctrcache.WriteBack
	cfg.Core.Persist = strat
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// exerciseCoW writes two pages and chains two CoW copies off the first, so a
// recovery sees torn-able counter blocks, real redirect chains and written
// lines to scrub.
func exerciseCoW(t *testing.T, c *Controller) {
	t.Helper()
	var line [mem.LineBytes]byte
	for _, pfn := range []uint64{2, 9} {
		for i := 0; i < mem.LinesPerPage; i++ {
			line[0] = byte(pfn + uint64(i))
			if _, err := c.StoreNT(0, mem.LineAddr(pfn, i), &line); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := c.PageCopy(0, 2, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PageCopy(0, 5, 7); err != nil {
		t.Fatal(err)
	}
	line[0] = 0xA5
	if _, err := c.StoreNT(0, mem.LineAddr(5, 3), &line); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryNsFormulaPerPass pins the per-pass recovery-cost model: the
// reported RecoveryNs must be exactly recomputable from the report's own
// counters, the device read latency, the verification charge and the
// strategy's declared durability. Pass 3's chain-walk reads are part of the
// bill — a recovery formula that walks redirect chains for free undercharges
// exactly the schemes with the most durable pointers to chase.
func TestRecoveryNsFormulaPerPass(t *testing.T) {
	strategies := []core.PersistStrategy{
		core.StrictPersist(),
		core.PhoenixPersist(),
		core.TriadPersist(1),
		core.TriadPersist(2),
		core.TriadPersist(3),
	}
	for _, scheme := range []core.Scheme{core.Lelantus, core.LelantusCoW} {
		for _, strat := range strategies {
			t.Run(scheme.String()+"/"+strat.Name(), func(t *testing.T) {
				c := persistCtl(t, scheme, strat)
				exerciseCoW(t, c)
				if err := c.Crash(0, true); err != nil {
					t.Fatal(err)
				}
				rep, err := c.Recover()
				if err != nil {
					t.Fatal(err)
				}
				if rep.Strategy != strat.Name() {
					t.Fatalf("report strategy %q, want %q", rep.Strategy, strat.Name())
				}
				if rep.CoWMappings == 0 || rep.ChainReads == 0 {
					t.Fatalf("workload must exercise pass 3: %+v", rep)
				}
				if strat.LeafDigestsDurable() {
					if rep.LeavesRebuilt != 0 {
						t.Fatalf("durable leaves must not be rebuilt: %+v", rep)
					}
				} else {
					if rep.LeavesRebuilt != rep.BlocksScanned || rep.TornBlocks != 0 {
						t.Fatalf("without durable leaves every block is adopted: %+v", rep)
					}
				}

				R := c.Dev.Config().ReadNs
				V := c.Config().Core.VerifyNs
				durable := strat.DurableInnerLevels(len(rep.NodesByLevel))
				want := rep.BlocksScanned*(R+V) + rep.LeavesRebuilt*V
				for l, n := range rep.NodesByLevel {
					cost := V
					if l >= durable {
						cost += R
					}
					want += n * cost
				}
				want += rep.ChainReads * R
				want += rep.LinesScrubbed * (R + V)
				if rep.RecoveryNs != want {
					t.Fatalf("RecoveryNs = %d, want %d (recomputed per pass) in %v", rep.RecoveryNs, want, rep)
				}
			})
		}
	}
}

// TestDrainIssuesAtCurrentTime is the regression test for the drain
// backdating bug: Drain used to stamp its write-backs and metadata flushes
// with time zero, scheduling them before every operation that produced the
// dirty state. Drain-issued work must never start earlier than the last
// executed op's completion time.
func TestDrainIssuesAtCurrentTime(t *testing.T) {
	cfg := DefaultConfig(core.LelantusCoW)
	cfg.MemBytes = 16 << 20
	cfg.CtrCacheMode = ctrcache.WriteBack
	cfg.Probe = probe.New(probe.Config{RingCap: 1 << 12})
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var last uint64
	var line [mem.LineBytes]byte
	for i := 0; i < mem.LinesPerPage; i++ {
		line[0] = byte(i)
		done, err := c.Store(last, mem.LineAddr(4, i), line[:1])
		if err != nil {
			t.Fatal(err)
		}
		last = done
	}
	if _, err := c.PageCopy(last, 4, 6); err != nil {
		t.Fatal(err)
	}
	if last == 0 {
		t.Fatal("ops must advance simulated time")
	}
	before := cfg.Probe.EventsRetained()
	if err := c.Drain(last); err != nil {
		t.Fatal(err)
	}
	var idx, drained int
	cfg.Probe.Events(func(ev probe.Event) {
		defer func() { idx++ }()
		if idx < before {
			return
		}
		drained++
		if ev.Start < last {
			t.Errorf("drain-issued %v starts at %d ns, before the last op at %d ns", ev.Kind, ev.Start, last)
		}
	})
	if drained == 0 {
		t.Fatal("drain must flush dirty state through instrumented paths")
	}
}

// TestBatteryDrainPreservesLazyCoWMapping: under a lazy strategy a page_copy
// leaves its supplementary CoW mapping dirty in the reserved cache, not in
// NVM. The battery-backed drain at a crash must flush it — afterwards the
// durable table carries the mapping and uncopied destination lines still
// redirect to the source.
func TestBatteryDrainPreservesLazyCoWMapping(t *testing.T) {
	c := persistCtl(t, core.LelantusCoW, core.PhoenixPersist())
	var line [mem.LineBytes]byte
	line[0] = 0x42
	if _, err := c.StoreNT(0, mem.LineAddr(3, 6), &line); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PageCopy(0, 3, 8); err != nil {
		t.Fatal(err)
	}
	if src, ok := c.Engine.Image().CoWEntry(8); ok {
		t.Fatalf("lazy mapping already durable before drain (src %d)", src)
	}
	if src, ok := c.Engine.SourceOf(8); !ok || src != 3 {
		t.Fatalf("intended view must see the mapping: %d %v", src, ok)
	}
	if err := c.Crash(0, true); err != nil {
		t.Fatal(err)
	}
	if src, ok := c.Engine.Image().CoWEntry(8); !ok || src != 3 {
		t.Fatalf("battery drain lost the lazy CoW mapping: %d %v", src, ok)
	}
	got, _, err := c.Load(0, mem.LineAddr(8, 6))
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0x42 {
		t.Fatalf("uncopied line must redirect to source after crash: %#x", got[0])
	}
}
