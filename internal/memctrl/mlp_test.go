package memctrl

import (
	"reflect"
	"testing"

	"lelantus/internal/core"
	"lelantus/internal/ctrcache"
	"lelantus/internal/nvm"
)

func mlpCtl(t *testing.T, scheme core.Scheme, strat core.PersistStrategy) *Controller {
	t.Helper()
	cfg := DefaultConfig(scheme)
	cfg.MemBytes = 16 << 20
	cfg.CtrCacheMode = ctrcache.WriteBack
	cfg.Core.Persist = strat
	cfg.Core.MLP = core.MLPConfig{Enabled: true}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// ceilDiv mirrors the engine's pipelined-pass rounding.
func ceilDiv(a, b uint64) uint64 {
	if b == 0 {
		return a
	}
	return (a + b - 1) / b
}

// TestRecoveryNsMLPFormula pins the bank-parallel recovery-cost model: under
// MLP each pass's device reads spread across the banks and its verifications
// across an MSHR-sized pipeline, so the reported RecoveryNs must be exactly
// recomputable per pass with ceiling division — not the serial sum.
func TestRecoveryNsMLPFormula(t *testing.T) {
	for _, scheme := range []core.Scheme{core.Lelantus, core.LelantusCoW} {
		for _, strat := range []core.PersistStrategy{core.StrictPersist(), core.PhoenixPersist()} {
			t.Run(scheme.String()+"/"+strat.Name(), func(t *testing.T) {
				c := mlpCtl(t, scheme, strat)
				exerciseCoW(t, c)
				if err := c.Crash(0, true); err != nil {
					t.Fatal(err)
				}
				rep, err := c.Recover()
				if err != nil {
					t.Fatal(err)
				}
				if rep.ChainReads == 0 || rep.LinesScrubbed == 0 {
					t.Fatalf("workload must exercise passes 3 and 4: %+v", rep)
				}

				R := c.Dev.Config().ReadNs
				V := c.Config().Core.VerifyNs
				banks := uint64(c.Dev.Banks())
				mshrs := uint64(nvm.DefaultMSHRs)
				durable := strat.DurableInnerLevels(len(rep.NodesByLevel))
				var pass2dev, pass2ver uint64
				for l, n := range rep.NodesByLevel {
					pass2ver += n * V
					if l >= durable {
						pass2dev += n * R
					}
				}
				want := ceilDiv(rep.BlocksScanned*R, banks) +
					ceilDiv((rep.BlocksScanned+rep.LeavesRebuilt)*V, mshrs)
				want += ceilDiv(pass2dev, banks) + ceilDiv(pass2ver, mshrs)
				want += ceilDiv(rep.ChainReads*R, banks)
				want += ceilDiv(rep.LinesScrubbed*R, banks) + ceilDiv(rep.LinesScrubbed*V, mshrs)
				if rep.RecoveryNs != want {
					t.Fatalf("RecoveryNs = %d, want %d (recomputed per bank-parallel pass) in %+v",
						rep.RecoveryNs, want, rep)
				}
			})
		}
	}
}

// TestRecoveryReportMLPInvariant pins that the scrub passes find the same
// under either MLP setting: every report field except the modeled
// RecoveryNs is identical between mlp=off and mlp=on.
func TestRecoveryReportMLPInvariant(t *testing.T) {
	for _, scheme := range []core.Scheme{core.Lelantus, core.LelantusCoW} {
		for _, strat := range []core.PersistStrategy{core.StrictPersist(), core.PhoenixPersist()} {
			t.Run(scheme.String()+"/"+strat.Name(), func(t *testing.T) {
				recover := func(mlp bool) *core.RecoveryReport {
					var c *Controller
					if mlp {
						c = mlpCtl(t, scheme, strat)
					} else {
						c = persistCtl(t, scheme, strat)
					}
					exerciseCoW(t, c)
					if err := c.Crash(0, true); err != nil {
						t.Fatal(err)
					}
					rep, err := c.Recover()
					if err != nil {
						t.Fatal(err)
					}
					return rep
				}
				serial := recover(false)
				overlapped := recover(true)
				if overlapped.RecoveryNs >= serial.RecoveryNs {
					t.Errorf("bank-parallel recovery not faster (%d ns >= %d ns)",
						overlapped.RecoveryNs, serial.RecoveryNs)
				}
				// Neutralise the one field the model moves, then demand
				// everything else — torn blocks, rebuilt nodes, scrubbed
				// lines, chain invariants — to match the serial scrub.
				overlapped.RecoveryNs = serial.RecoveryNs
				if !reflect.DeepEqual(overlapped, serial) {
					t.Errorf("mlp=on scrub diverges from serial\nserial: %+v\nmlp=on: %+v",
						serial, overlapped)
				}
			})
		}
	}
}
