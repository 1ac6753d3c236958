package sim

import (
	"reflect"
	"sort"
	"testing"

	"lelantus/internal/core"
	"lelantus/internal/faultinject"
	"lelantus/internal/workload"
)

// firstHit is the global index of the first persist point of class pt when
// s runs under cfg, out of total points. Whether pt has fired by the time a
// crash armed at n stops the run is monotone in n, so a bisection finds it.
func firstHit(t *testing.T, cfg Config, s workload.Script, pt faultinject.Point, total uint64) uint64 {
	t.Helper()
	hitBy := func(i int) bool {
		plane := faultinject.New(1)
		plane.ArmCrashAt(uint64(i) + 1)
		c := cfg
		c.Mem.FaultPlane = plane
		m, err := NewMachine(c)
		if err != nil {
			t.Fatal(err)
		}
		m.Run(s) // stops at the armed crash
		return plane.PointHits(pt) > 0
	}
	i := sort.Search(int(total), hitBy)
	if i == int(total) {
		t.Fatalf("%v never fires in %d persist points", pt, total)
	}
	return uint64(i) + 1
}

// TestCrashPointsFidelityEquivalent extends the fidelity contract to crash
// enumeration. On a script whose minor counters overflow, timing fidelity
// must pass exactly the persist points full fidelity passes — the
// re-encryption sweep's data writes included — so one crash point names the
// same event at either fidelity: the same total, the same first sweep point,
// and, one point past it, the same crash site and the same violations.
func TestCrashPointsFidelityEquivalent(t *testing.T) {
	script := overflowScript()
	fids := []core.Fidelity{core.FidelityFull, core.FidelityTiming}
	for _, s := range core.Schemes() {
		var total, first [2]uint64
		var cells [2]CrashCell
		for k, f := range fids {
			cfg := fidelityConfig(s, f, 2)
			n, err := CrashPoints(cfg, script, 1)
			if err != nil {
				t.Fatalf("%v %v: %v", s, f, err)
			}
			total[k] = n
			first[k] = firstHit(t, cfg, script, faultinject.ReencryptLine, n)
			if cells[k], err = CrashAt(cfg, script, 1, first[0]+1); err != nil {
				t.Fatalf("%v %v: crash at %d: %v", s, f, first[0]+1, err)
			}
		}
		if total[0] != total[1] {
			t.Errorf("%v: %d persist points at full fidelity, %d at timing", s, total[0], total[1])
		}
		if first[0] != first[1] {
			t.Errorf("%v: first re-encryption point %d at full fidelity, %d at timing", s, first[0], first[1])
		}
		if cells[0].At != cells[1].At || !reflect.DeepEqual(cells[0].Violations, cells[1].Violations) {
			t.Errorf("%v: crash at point %d diverges: full %v %q, timing %v %q", s, first[0]+1,
				cells[0].At, cells[0].Violations, cells[1].At, cells[1].Violations)
		}
	}
}
