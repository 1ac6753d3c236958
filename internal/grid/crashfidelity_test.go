package grid

import (
	"reflect"
	"testing"

	"lelantus/internal/sim"
)

// TestCrashCellsFidelityEquivalent runs every crash-matrix cell, under
// strict and (outside -short) Phoenix persistence, at both fidelities and requires identical
// oracle verdicts: timing fidelity elides the crypto, so it must report a
// torn data line as the same detected error the full path's MAC check
// raises, never as a silently wrong read.
func TestCrashCellsFidelityEquivalent(t *testing.T) {
	preset, err := PresetByName("crash-matrix")
	if err != nil {
		t.Fatal(err)
	}
	if !testing.Short() {
		preset.Persist = []string{"strict", "phoenix"}
	}
	for _, c := range preset.Cells() {
		if c.CrashPoint == 0 {
			continue
		}
		var got [2][]string
		for i, fid := range []string{"full", "timing"} {
			c.Fidelity = fid
			cfg, script, err := c.Build()
			if err != nil {
				t.Fatal(err)
			}
			cell, err := sim.CrashAt(cfg, script, c.FaultSeed, c.CrashPoint)
			if err != nil {
				t.Fatalf("%s fault seed %d at %s fidelity: %v", c.Tag(), c.FaultSeed, fid, err)
			}
			got[i] = cell.Violations
		}
		if !reflect.DeepEqual(got[0], got[1]) {
			t.Errorf("%s fault seed %d: violations differ between fidelities\nfull:   %q\ntiming: %q",
				c.Tag(), c.FaultSeed, got[0], got[1])
		}
	}
}
