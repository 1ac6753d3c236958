package sim

import (
	"bytes"
	"encoding/json"
	"testing"

	"lelantus/internal/core"
	"lelantus/internal/workload"
)

func persistScript() workload.Script {
	p := workload.DefaultForkbench(false)
	p.RegionBytes = 1 << 20
	return workload.Forkbench(p)
}

func persistRun(t *testing.T, scheme core.Scheme, strat core.PersistStrategy) Result {
	t.Helper()
	cfg := DefaultConfig(scheme)
	cfg.Mem.MemBytes = 64 << 20
	cfg.Mem.Core.Fidelity = core.FidelityTiming
	cfg.Mem.Core.Persist = strat
	res, err := RunWith(cfg, persistScript())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestStrictPersistEquivalence is the end-to-end gate on the default
// strategy: a machine whose config leaves Persist unset (the zero
// PersistStrategy) must produce byte-identical results to one configured
// with an explicit StrictPersist, for every scheme.
func TestStrictPersistEquivalence(t *testing.T) {
	for _, s := range core.Schemes() {
		t.Run(s.String(), func(t *testing.T) {
			zeroRes := persistRun(t, s, core.PersistStrategy{})
			strictRes := persistRun(t, s, core.StrictPersist())
			jz, err := json.Marshal(zeroRes)
			if err != nil {
				t.Fatal(err)
			}
			js, err := json.Marshal(strictRes)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(jz, js) {
				t.Errorf("explicit strict diverges from the unset default:\nunset:  %s\nstrict: %s", jz, js)
			}
		})
	}
}

// TestPersistTradeoff pins the axis the strategies exist for: relaxing
// persistence must cut runtime metadata-write overhead and pay for it with a
// longer recovery — never the reverse.
func TestPersistTradeoff(t *testing.T) {
	// The crash-sweep script (copies later erased by page_phyc/page_free)
	// rather than forkbench: a mapping that is inserted and erased before
	// any drain costs an eager strategy two table writes but a lazy one only
	// the erase — mappings that merely live to the end-of-run drain are
	// written once either way.
	recoveryNs := func(strat core.PersistStrategy) (Result, uint64) {
		cfg := DefaultConfig(core.LelantusCoW)
		cfg.Mem.MemBytes = 64 << 20
		cfg.Mem.Core.Fidelity = core.FidelityFull
		cfg.Mem.Core.Persist = strat
		m, err := NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(crashSweepScript())
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
