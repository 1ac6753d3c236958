package sim_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"lelantus/internal/core"
	"lelantus/internal/faultinject"
	"lelantus/internal/mem"
	"lelantus/internal/sim"
	"lelantus/internal/sim/simtest"
	"lelantus/internal/workload"
)

// crashSweep counts the script's persist points, then crashes, recovers and
// checks at each of simtest.SweepPoints(total, maxCells): one cell per point.
func crashSweep(cfg sim.Config, s workload.Script, seed int64, maxCells int) ([]sim.CrashCell, error) {
	total, err := sim.CrashPoints(cfg, s, seed)
	if err != nil {
		return nil, err
	}
	if total == 0 {
		return nil, fmt.Errorf("script exercises no persist points")
	}
	var cells []sim.CrashCell
	for _, n := range simtest.SweepPoints(total, maxCells) {
		cell, err := sim.CrashAt(cfg, s, seed, n)
		if err != nil {
			return cells, fmt.Errorf("crash cell %d/%d: %w", n, total, err)
		}
		cells = append(cells, cell)
	}
	return cells, nil
}

// TestCrashSweepQuick is the acceptance gate: crash at strided persist
// points across every scheme, counter-cache mode and persistence strategy,
// recover, and require zero invariant violations — reads after recovery are
// correct, detected, or consistently stale, never silently wrong. Lazy and
// leveled strategies are allowed to lose *more* (staler reads, more MAC
// mismatches); they are never allowed to lose anything silently.
func TestCrashSweepQuick(t *testing.T) {
	script := simtest.Script()
	for _, cell := range simtest.Cells() {
		cell := cell
		t.Run(cell.Name, func(t *testing.T) {
			t.Parallel()
			cells, err := crashSweep(cell.Cfg, script, 1, cell.Points(testing.Short()))
			if err != nil {
				t.Fatal(err)
			}
			if len(cells) == 0 {
				t.Fatal("sweep produced no cells")
			}
			for _, c := range cells {
				if len(c.Violations) > 0 {
					t.Errorf("crash at persist point %d (%v): %v", c.Point, c.At, c.Violations)
				}
			}
		})
	}
}

// TestCrashSweepCoversCommandSeams asserts the sweep actually lands crashes
// inside multi-step commands, not only at data writes: a sweep of the
// Lelantus scheme must see at least counter-block and data persist points.
func TestCrashSweepCoversCommandSeams(t *testing.T) {
	cfg := sim.DefaultConfig(core.Lelantus)
	cfg.Mem.MemBytes = 16 << 20
	cells, err := crashSweep(cfg, simtest.Script(), 1, 16)
	if err != nil {
		t.Fatal(err)
	}
	points := make(map[string]bool)
	for _, c := range cells {
		points[c.At.String()] = true
	}
	if len(points) < 2 {
		t.Fatalf("sweep crashed only at %v; expected coverage of multiple persist-point kinds", points)
	}
}

// TestCrashRecoveryReportDeterministic: for a fixed fault seed, crashing at
// the same point twice yields byte-identical recovery reports (the
// determinism contract -faultseed promises). Cells and points are drawn at
// random, but from a fixed-seed RNG, so failures reproduce; every MLP ×
// prefetch cell is always among them.
func TestCrashRecoveryReportDeterministic(t *testing.T) {
	script := simtest.Script()
	cfgs := simtest.Cells()
	rng := rand.New(rand.NewSource(7))
	trials := 6
	if testing.Short() {
		trials = 2
	}
	var cells []simtest.Cell
	for trial := 0; trial < trials; trial++ {
		cells = append(cells, cfgs[rng.Intn(len(cfgs))])
	}
	for _, cell := range append(cells, simtest.MLPPrefetchCells()...) {
		seed := rng.Int63n(1 << 30)
		total, err := sim.CrashPoints(cell.Cfg, script, seed)
		if err != nil {
			t.Fatal(err)
		}
		n := 1 + uint64(rng.Int63n(int64(total)))
		a, err := sim.CrashAt(cell.Cfg, script, seed, n)
		if err != nil {
			t.Fatalf("%s point %d: %v", cell.Name, n, err)
		}
		b, err := sim.CrashAt(cell.Cfg, script, seed, n)
		if err != nil {
			t.Fatalf("%s point %d (rerun): %v", cell.Name, n, err)
		}
		ja, err := json.Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		jb, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		if string(ja) != string(jb) {
			t.Fatalf("%s seed %d point %d: recovery reports differ:\n%s\n%s", cell.Name, seed, n, ja, jb)
		}
	}
}

// TestCrashStopsTheMachine: at every point TestCrashSweepQuick crashes, in
// every cell of its matrix, no persist point is reached between the crash
// firing and the power cycle. Every command, the drains included, unwinds
// with the crash error, so recovery is judged on the NVM image at the
// crash.
func TestCrashStopsTheMachine(t *testing.T) {
	script := simtest.Script()
	for _, cell := range simtest.Cells() {
		cell := cell
		t.Run(cell.Name, func(t *testing.T) {
			t.Parallel()
			total, err := sim.CrashPoints(cell.Cfg, script, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range simtest.SweepPoints(total, cell.Points(testing.Short())) {
				_, plane, err := sim.RunToCrash(cell.Cfg, script, 1, n)
				if err != nil {
					t.Fatal(err)
				}
				if late := plane.HitsAfterCrash(); late != 0 {
					pt, _, _ := plane.Crashed()
					t.Errorf("crash at persist point %d (%v): %d persist points reached before the power cycle", n, pt, late)
				}
			}
		})
	}
}

// TestReadBackOracleFires plants the engine bug the read-back oracle exists
// to catch: after a crash and its recovery, one line's durable plaintext
// changes without the fault plane hearing of it. For every scheme, at both
// fidelities, the oracle must report that the line holds a value never
// written to it, and the same cell reports nothing before the plant.
func TestReadBackOracleFires(t *testing.T) {
	script := simtest.Script()
	var junk [mem.LineBytes]byte
	for i := range junk {
		junk[i] = byte(0xC3 ^ i) // the script stores only uniform lines
	}
	for _, s := range core.Schemes() {
		for _, f := range []core.Fidelity{core.FidelityFull, core.FidelityTiming} {
			name := s.String() + "/" + f.String()
			cfg := sim.DefaultConfig(s)
			cfg.Mem.MemBytes = 16 << 20
			cfg.Mem.Core.Fidelity = f
			total, err := sim.CrashPoints(cfg, script, 1)
			if err != nil {
				t.Fatal(err)
			}
			// A tenth of the way in, the parent is alive and mapping its
			// region; late points fall in its exit, with nothing mapped.
			m, plane, err := sim.RunToCrash(cfg, script, 1, total/10)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := m.Ctl.Crash(m.Now(), false); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if _, err := m.Ctl.Recover(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if v := sim.CheckReadBack(m, plane); len(v) != 0 {
				t.Fatalf("%s: violations before the plant: %v", name, v)
			}
			la := plantTarget(t, m, plane)
			if err := sim.WriteUnobserved(m, plane, la, &junk); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want := fmt.Sprintf("line %#x: read value was never written to resolved line %#x", la, la)
			if v := sim.CheckReadBack(m, plane); !slices.Contains(v, want) {
				t.Errorf("%s: oracle missed the unobserved write to line %#x; it reported:\n%s", name, la, strings.Join(v, "\n"))
			}
		}
	}
}

// plantTarget is line 0 of the lowest page frame a live process maps, the
// shared zero frame and the line the crash tore aside: at timing fidelity
// the plane's torn record stands in for the MAC, so a write the plane does
// not see leaves that line reading as detected.
func plantTarget(t *testing.T, m *sim.Machine, plane *faultinject.Plane) uint64 {
	t.Helper()
	var lines []uint64
	for _, pid := range m.Kern.Pids() {
		if p := m.Kern.Process(pid); p != nil {
			for _, pte := range p.PT {
				if la := mem.LineAddr(pte.PFN, 0); pte.PFN != m.Ctl.Engine.ZeroPFN && !plane.Torn(la) {
					lines = append(lines, la)
				}
			}
		}
	}
	if len(lines) == 0 {
		t.Fatal("no live process maps a frame")
	}
	return slices.Min(lines)
}
