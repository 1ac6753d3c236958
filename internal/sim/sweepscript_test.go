package sim_test

import (
	"testing"

	"lelantus/internal/core"
	"lelantus/internal/probe"
	"lelantus/internal/sim"
	"lelantus/internal/sim/simtest"
)

// The tests in this file run the crash sweep's script (simtest.Script) on
// a machine that is drained and power-cycled with battery backing.

// TestPersistTradeoff pins the axis the strategies exist for: relaxing
// persistence must cut runtime metadata-write overhead and pay for it with a
// longer recovery — never the reverse.
func TestPersistTradeoff(t *testing.T) {
	// The crash-sweep script (copies later erased by page_phyc/page_free)
	// rather than forkbench: a mapping that is inserted and erased before
	// any drain costs an eager strategy two table writes but a lazy one only
	// the erase — mappings that merely live to the end-of-run drain are
	// written once either way.
	recoveryNs := func(strat core.PersistStrategy) (sim.Result, uint64) {
		cfg := sim.DefaultConfig(core.LelantusCoW)
		cfg.Mem.MemBytes = 64 << 20
		cfg.Mem.Core.Fidelity = core.FidelityFull
		cfg.Mem.Core.Persist = strat
		m, err := sim.NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(simtest.Script())
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Ctl.Crash(m.Now(), true); err != nil {
			t.Fatal(err)
		}
		rep, err := m.Ctl.Recover()
		if err != nil {
			t.Fatal(err)
		}
		return res, rep.RecoveryNs
	}

	strict, strictNs := recoveryNs(core.StrictPersist())
	phoenix, phoenixNs := recoveryNs(core.PhoenixPersist())
	triad1, triad1Ns := recoveryNs(core.TriadPersist(1))
	triad2, triad2Ns := recoveryNs(core.TriadPersist(2))

	// Runtime write overhead: the modeled tree-node persists shrink as the
	// strategy persists less, and lazy CoW-table handling absorbs
	// supplementary-table device writes.
	if phoenix.Engine.TreePersistWrites >= strict.Engine.TreePersistWrites {
		t.Errorf("phoenix tree persists %d, want < strict %d",
			phoenix.Engine.TreePersistWrites, strict.Engine.TreePersistWrites)
	}
	if triad1.Engine.TreePersistWrites >= triad2.Engine.TreePersistWrites {
		t.Errorf("triad:1 tree persists %d, want < triad:2 %d",
			triad1.Engine.TreePersistWrites, triad2.Engine.TreePersistWrites)
	}
	if triad2.Engine.TreePersistWrites >= strict.Engine.TreePersistWrites {
		t.Errorf("triad:2 tree persists %d, want < strict %d",
			triad2.Engine.TreePersistWrites, strict.Engine.TreePersistWrites)
	}
	if phoenix.Engine.CoWMetaWrite >= strict.Engine.CoWMetaWrite {
		t.Errorf("lazy CoW-table writes %d, want < eager %d",
			phoenix.Engine.CoWMetaWrite, strict.Engine.CoWMetaWrite)
	}

	// Recovery cost: strict recovers cheapest; each relaxation pays more.
	// Phoenix and triad:2 declare the same durable set after a clean drain
	// (leaves durable, interior volatile), so equality is allowed there.
	if strictNs >= triad2Ns {
		t.Errorf("strict recovery %d ns, want < triad:2 %d ns", strictNs, triad2Ns)
	}
	if triad2Ns > phoenixNs {
		t.Errorf("triad:2 recovery %d ns, want <= phoenix %d ns", triad2Ns, phoenixNs)
	}
	if phoenixNs >= triad1Ns {
		t.Errorf("phoenix recovery %d ns, want < triad:1 (counters only) %d ns", phoenixNs, triad1Ns)
	}
}

// TestProbeRecoveryEventsPerStrategy pins that every strategy's recovery
// work — including the leaf-digest rebuild a counters-only strategy runs
// before the tree rebuild — flows through the existing EvRecovery event
// class: exactly four contiguous pass spans whose durations re-derive from
// the recovery report's per-pass cost model.
func TestProbeRecoveryEventsPerStrategy(t *testing.T) {
	strategies := []core.PersistStrategy{core.PersistStrategy{}, core.PhoenixPersist(), core.TriadPersist(1), core.TriadPersist(2)}
	for _, strat := range strategies {
		strat := strat
		t.Run(strat.Name(), func(t *testing.T) {
			cfg := sim.DefaultConfig(core.LelantusCoW)
			cfg.Mem.MemBytes = 16 << 20
			cfg.Mem.Core.Persist = strat
			pl := probe.New(probe.Config{})
			cfg.Mem.Probe = pl
			m, err := sim.NewMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Run(simtest.Script()); err != nil {
				t.Fatal(err)
			}
			if err := m.Ctl.Crash(m.Now(), true); err != nil {
				t.Fatal(err)
			}
			rep, err := m.Ctl.Recover()
			if err != nil {
				t.Fatal(err)
			}
			var spans []probe.Event
			pl.Events(func(e probe.Event) {
				if e.Kind == probe.EvRecovery {
					spans = append(spans, e)
				}
			})
			if len(spans) != 4 {
				t.Fatalf("recovery emitted %d EvRecovery spans, want 4", len(spans))
			}
			R := m.Ctl.Dev.Config().ReadNs
			V := cfg.Mem.Core.VerifyNs
			durable := strat.DurableInnerLevels(len(rep.NodesByLevel))
			var pass2 uint64
			for l, n := range rep.NodesByLevel {
				cost := V
				if l >= durable {
					cost += R
				}
				pass2 += n * cost
			}
			wantDur := [4]uint64{
				rep.BlocksScanned*(R+V) + rep.LeavesRebuilt*V,
				pass2,
				rep.ChainReads * R,
				rep.LinesScrubbed * (R + V),
			}
			wantArg := [4]uint64{rep.BlocksScanned, rep.NodesRebuilt, rep.CoWChains, rep.LinesScrubbed}
			for i, s := range spans {
				if s.Addr != uint64(i+1) {
					t.Errorf("span %d labels pass %d", i, s.Addr)
				}
				if got := s.End - s.Start; got != wantDur[i] {
					t.Errorf("pass %d span is %d ns, want %d", i+1, got, wantDur[i])
				}
				if s.Arg != wantArg[i] {
					t.Errorf("pass %d span carries %d items, want %d", i+1, s.Arg, wantArg[i])
				}
				if i > 0 && s.Start != spans[i-1].End {
					t.Errorf("pass %d span not contiguous with pass %d", i+1, i)
				}
			}
			if !strat.LeafDigestsDurable() && rep.LeavesRebuilt == 0 {
				t.Error("counters-only strategy must rebuild leaf digests in pass 1")
			}
			if rep.ChainReads == 0 {
				t.Error("pass 3 must bill chain-walk reads for lelantus-cow")
			}
		})
	}
}
