package core_test

import (
	"encoding/json"
	"errors"
	"slices"
	"testing"

	"lelantus/internal/core"
	"lelantus/internal/ctrcache"
	"lelantus/internal/faultinject"
	"lelantus/internal/mem"
	"lelantus/internal/memctrl"
	"lelantus/internal/nvm"
	"lelantus/internal/sim"
	"lelantus/internal/workload"
)

// sweepScript is internal/sim's crash-sweep script (crashSweepScript):
// page_copy, on-demand line copies, a minor-counter overflow, page_phyc
// and the page_free sweep at exit, stores on every 8th line.
func sweepScript() workload.Script {
	b := workload.NewBuilder("crash-sweep")
	const region = 128 << 10 // 32 pages
	b.Spawn(0)
	b.Mmap(0, 0, region, false)
	for pg := uint64(0); pg < 32; pg++ {
		for ln := uint64(0); ln < 64; ln += 8 {
			b.StoreNT(0, 0, pg*4096+ln*64, byte(1+(pg+ln)%250))
		}
	}
	b.Fork(0, 1)
	for pg := uint64(0); pg < 32; pg += 2 {
		b.StoreNT(1, 0, pg*4096, byte(100+pg))
	}
	for i := 0; i < 130; i++ {
		b.StoreNT(1, 0, 3*4096, byte(i))
	}
	b.Exit(1)
	b.Fork(0, 2)
	b.StoreNT(2, 0, 7*4096, 0x5A)
	b.StoreNT(0, 0, 7*4096+8*64, 0x6B)
	b.Exit(2)
	b.Exit(0)
	return b.Script()
}

// sweepCell is one cell of internal/sim's crash-sweep matrix (sweepConfigs)
// for a CoW scheme, with the point cap TestCrashSweepQuick gives it.
type sweepCell struct {
	name     string
	cfg      sim.Config
	maxCells int
}

func cowSweepCells() []sweepCell {
	var cells []sweepCell
	strategies := []core.PersistStrategy{core.PersistStrategy{}, core.PhoenixPersist(), core.TriadPersist(1), core.TriadPersist(2)}
	for _, strat := range strategies {
		for _, s := range []core.Scheme{core.Lelantus, core.LelantusCoW} {
			for _, mode := range []ctrcache.Mode{ctrcache.WriteBack, ctrcache.WriteThrough} {
				cfg := sim.DefaultConfig(s)
				cfg.Mem.MemBytes = 16 << 20
				cfg.Mem.CtrCacheMode = mode
				cfg.Mem.Core.Persist = strat
				name, max := s.String()+"/"+mode.String(), 12
				if strat != (core.PersistStrategy{}) {
					name, max = name+"/"+strat.Name(), 6
				}
				cells = append(cells, sweepCell{name, cfg, max})
			}
		}
	}
	cfg := sim.DefaultConfig(core.LelantusCoW)
	cfg.Mem.MemBytes = 16 << 20
	q := nvm.DefaultQueueConfig()
	cfg.Mem.WriteQueue = &q
	cells = append(cells, sweepCell{"lelantus-cow/queue", cfg, 12})
	for _, s := range []core.Scheme{core.Lelantus, core.LelantusCoW} {
		cfg := sim.DefaultConfig(s)
		cfg.Mem.MemBytes = 16 << 20
		cfg.Mem.Core.MLP.Enabled = true
		cfg.Mem.Core.Prefetch.Mode = core.PrefetchBoth
		cells = append(cells, sweepCell{s.String() + "/write-back/mlp=on,prefetch=both", cfg, 6})
	}
	return cells
}

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
	script := sweepScript()
	maxCells := 12
	if testing.Short() {
		maxCells = 4
	}
	compared := 0
	for _, cell := range cowSweepCells() {
		total, err := sim.CrashPoints(cell.cfg, script, 1)
		if err != nil {
			t.Fatal(err)
		}
		max := uint64(min(maxCells, cell.maxCells))
		for n := uint64(1); n <= total; n += (total + max - 1) / max {
			want, err := sim.CrashAt(cell.cfg, script, 1, n)
			if err != nil {
				t.Fatal(err)
			}
			if want.Report.CoWMappings == 0 {
				continue
			}
			compared++
			got, ref := crashedEngine(t, cell.cfg, script, n), crashedEngine(t, cell.cfg, script, n)
			live, starts := got.RecoveryScan()
			refLive, refStarts := ref.ReferenceScan()
			if !slices.Equal(live, refLive) || !slices.Equal(starts, refStarts) {
				t.Fatalf("%s point %d: scan found %d blocks and starts %v, full scan %d blocks and starts %v",
					cell.name, n, len(live), starts, len(refLive), refStarts)
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
				t.Fatalf("%s point %d: reports differ:\nscan      %s\nfull scan %s\nCrashAt   %s", cell.name, n, a, b, c)
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
		e.Phys.WriteLine(addr, &old)
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
		e.Phys.ReadLine(addr, &got)
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

	e.Phys.WriteLine(addr, &old)
	e.AttachFaultPlane(faultinject.New(1), false)
	if d := e.PersistLine(faultinject.DataWrite, addr, &img); d.Err != nil {
		t.Fatalf("disarmed plane: %v", d.Err)
	}
	if e.Phys.ReadLine(addr, &got); got != img {
		t.Fatalf("disarmed plane left %x, want %x", got, img)
	}
}
