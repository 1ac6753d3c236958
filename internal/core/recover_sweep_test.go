package core_test

import (
	"encoding/json"
	"errors"
	"slices"
	"testing"

	"lelantus/internal/core"
	"lelantus/internal/faultinject"
	"lelantus/internal/mem"
	"lelantus/internal/memctrl"
	"lelantus/internal/sim"
	"lelantus/internal/sim/simtest"
	"lelantus/internal/workload"
)

// crashedEngine runs the script to persist point n under fault seed 1,
// crashes there and power-cycles without a battery, as sim.CrashAt does
// before its scrub.
func crashedEngine(t *testing.T, cfg sim.Config, s workload.Script, n uint64) *core.Engine {
	t.Helper()
	plane := faultinject.New(1)
	plane.EnableShadow()
	plane.ArmCrashAt(n)
	cfg.Mem.FaultPlane = plane
	m, err := sim.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(s); !errors.Is(err, faultinject.ErrCrash) {
		t.Fatalf("point %d: run ended with %v, want a crash", n, err)
	}
	if err := m.Ctl.Crash(m.Now(), false); err != nil {
		t.Fatal(err)
	}
	return m.Ctl.Engine
}

// TestRecoverMatchesFullScanOnCrashSweep: at every crash-sweep point of
// both CoW schemes whose recovery finds a CoW mapping, Recover's live
// blocks and chain starts equal the capacity-wide scan's, and its report
// equals both the full scan's and sim.CrashAt's for the same point.
func TestRecoverMatchesFullScanOnCrashSweep(t *testing.T) {
	script := simtest.Script()
	compared := 0
	for _, cell := range simtest.Cells() {
		if s := cell.Cfg.Mem.Core.Scheme; s != core.Lelantus && s != core.LelantusCoW {
			continue
		}
		total, err := sim.CrashPoints(cell.Cfg, script, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range simtest.SweepPoints(total, cell.Points(testing.Short())) {
			want, err := sim.CrashAt(cell.Cfg, script, 1, n)
			if err != nil {
				t.Fatal(err)
			}
			if want.Report.CoWMappings == 0 {
				continue
			}
			compared++
			got, ref := crashedEngine(t, cell.Cfg, script, n), crashedEngine(t, cell.Cfg, script, n)
			live, starts := got.RecoveryScan()
			refLive, refStarts := ref.ReferenceScan()
			if !slices.Equal(live, refLive) || !slices.Equal(starts, refStarts) {
				t.Fatalf("%s point %d: scan found %d blocks and starts %v, full scan %d blocks and starts %v",
					cell.Name, n, len(live), starts, len(refLive), refStarts)
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
			c, _ := json.Marshal(want.Report)
			if string(a) != string(b) || string(a) != string(c) {
				t.Fatalf("%s point %d: reports differ:\nscan      %s\nfull scan %s\nCrashAt   %s", cell.Name, n, a, b, c)
			}
		}
	}
	if compared == 0 {
		t.Fatal("no sweep point recovered a CoW mapping: the comparison is vacuous")
	}
	t.Logf("%d crash points compared", compared)
}

// TestPersistLineTears pins the bytes a crash leaves in the line it cuts
// short: the first KeepWords 8-byte words of the new image over the old
// line. The seeds cover a crash that lands nothing, a torn prefix and the
// whole line; with the plane disarmed the line lands in full.
func TestPersistLineTears(t *testing.T) {
	cfg := memctrl.DefaultConfig(core.Lelantus)
	cfg.MemBytes = 16 << 20
	ctl, err := memctrl.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := ctl.Engine
	addr := mem.LineAddr(3, 5)
	var old, img, got [mem.LineBytes]byte
	for i := range old {
		old[i], img[i] = byte(i), byte(0xF0^i)
	}
	var seen [3]bool // KeepWords 0, 1..WordsPerLine-1, WordsPerLine
	for seed := int64(1); seed <= 64; seed++ {
		e.Image().Phys.WriteLine(addr, &old)
		p := faultinject.New(seed)
		p.ArmCrashAt(1)
		e.AttachFaultPlane(p, false)
		d := e.PersistLine(faultinject.DataWrite, addr, &img)
		if !errors.Is(d.Err, faultinject.ErrCrash) {
			t.Fatalf("seed %d: decision %+v, want a crash", seed, d)
		}
		k := d.KeepWords * 8
		want := old
		copy(want[:k], img[:k])
		e.Image().Phys.ReadLine(addr, &got)
		if got != want {
			t.Fatalf("seed %d: KeepWords %d left %x, want %x", seed, d.KeepWords, got, want)
		}
		switch d.KeepWords {
		case 0:
			seen[0] = true
		case faultinject.WordsPerLine:
			seen[2] = true
		default:
			seen[1] = true
		}
	}
	if seen != [3]bool{true, true, true} {
		t.Fatalf("seeds 1..64 cover KeepWords 0 / torn / whole = %v, want all three", seen)
	}

	e.Image().Phys.WriteLine(addr, &old)
	e.AttachFaultPlane(faultinject.New(1), false)
	if d := e.PersistLine(faultinject.DataWrite, addr, &img); d.Err != nil {
		t.Fatalf("disarmed plane: %v", d.Err)
	}
	if e.Image().Phys.ReadLine(addr, &got); got != img {
		t.Fatalf("disarmed plane left %x, want %x", got, img)
	}
}
