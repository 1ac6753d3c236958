package sim

import (
	"encoding/json"
	"math/rand"
	"testing"

	"lelantus/internal/core"
	"lelantus/internal/ctrcache"
	"lelantus/internal/nvm"
	"lelantus/internal/workload"
)

// crashSweepScript exercises every multi-step command the fault plane can
// interrupt: page_copy (fork + child stores), on-demand line copies, a
// minor-counter overflow re-encryption (the hammered line overflows both
// the Classic max of 127 and the Resized CoW max of 63), page_phyc (parent
// write to a reused shared page) and the page_free sweep at exit. All
// stores land on line indices divisible by oracleLineStride so the
// read-back oracle sees every written line.
func crashSweepScript() workload.Script {
	b := workload.NewBuilder("crash-sweep")
	const region = 128 << 10 // 32 pages
	b.Spawn(0)
	b.Mmap(0, 0, region, false)
	// Parent populates every 8th line of each page with a distinct byte.
	for pg := uint64(0); pg < 32; pg++ {
		for ln := uint64(0); ln < 64; ln += oracleLineStride {
			b.StoreNT(0, 0, pg*4096+ln*64, byte(1+(pg+ln)%250))
		}
	}
	// Fork: pages become shared; child writes trigger page_copy + on-demand
	// copies on even pages.
	b.Fork(0, 1)
	for pg := uint64(0); pg < 32; pg += 2 {
		b.StoreNT(1, 0, pg*4096, byte(100+pg))
	}
	// Hammer one line until its minor counter overflows in every format
	// (Classic caps at 127, a Resized CoW block at 63).
	for i := 0; i < 130; i++ {
		b.StoreNT(1, 0, 3*4096, byte(i))
	}
	b.Exit(1)
	// Second fork: a child copy of page 7 followed by a parent write to the
	// now-exclusively-owned source page forces the reuse fault's page_phyc.
	b.Fork(0, 2)
	b.StoreNT(2, 0, 7*4096, 0x5A)
	b.StoreNT(0, 0, 7*4096+8*64, 0x6B)
	b.Exit(2)
	// Parent exit: page_free sweeps the whole region.
	b.Exit(0)
	return b.Script()
}

type sweepCell struct {
	name string
	cfg  Config
	// maxCells caps the strided points this cell sweeps (0 = the caller's
	// default). Strategy cells sweep half as many points as the historical
	// strict cells so the full matrix stays within CI budget — every cell
	// still uses the same strided enumeration over its persist-point space.
	maxCells int
}

// sweepStrategies is the persistence-strategy axis of the sweep matrix. The
// zero value is the strict default and keeps the historical cell names, so
// pre-existing sweep artefacts stay comparable.
func sweepStrategies() []core.PersistStrategy {
	return []core.PersistStrategy{core.PersistStrategy{}, core.PhoenixPersist(), core.TriadPersist(1), core.TriadPersist(2)}
}

func sweepConfigs() []sweepCell {
	var cells []sweepCell
	for _, strat := range sweepStrategies() {
		for _, s := range core.Schemes() {
			for _, mode := range []ctrcache.Mode{ctrcache.WriteBack, ctrcache.WriteThrough} {
				cfg := DefaultConfig(s)
				cfg.Mem.MemBytes = 16 << 20
				cfg.Mem.CtrCacheMode = mode
				cfg.Mem.Core.Persist = strat
				name := s.String() + "/wb"
				if mode == ctrcache.WriteThrough {
					name = s.String() + "/wt"
				}
				max := 0
				if strat != (core.PersistStrategy{}) {
					name += "/" + strat.Name()
					max = 6
				}
				cells = append(cells, sweepCell{name, cfg, max})
			}
		}
	}
	// One write-queue-fronted cell: data writes report queue-loss.
	cfg := DefaultConfig(core.LelantusCoW)
	cfg.Mem.MemBytes = 16 << 20
	q := nvm.DefaultQueueConfig()
	cfg.Mem.WriteQueue = &q
	cells = append(cells, sweepCell{"lelantus-cow/queue", cfg, 0})
	return append(cells, mlpPrefetchCells()...)
}

// mlpPrefetchCells crash with the MLP page engines and both prefetchers'
// fills in flight: one strict, write-back cell per scheme.
func mlpPrefetchCells() []sweepCell {
	var cells []sweepCell
	for _, s := range core.Schemes() {
		cfg := DefaultConfig(s)
		cfg.Mem.MemBytes = 16 << 20
		cfg.Mem.Core.MLP.Enabled = true
		cfg.Mem.Core.Prefetch.Mode = core.PrefetchBoth
		cells = append(cells, sweepCell{s.String() + "/wb/mlp=on,prefetch=both", cfg, 6})
	}
	return cells
}

// TestCrashSweepQuick is the acceptance gate: crash at strided persist
// points across every scheme, counter-cache mode and persistence strategy,
// recover, and require zero invariant violations — reads after recovery are
// correct, detected, or consistently stale, never silently wrong. Lazy and
// leveled strategies are allowed to lose *more* (staler reads, more MAC
// mismatches); they are never allowed to lose anything silently.
func TestCrashSweepQuick(t *testing.T) {
	script := crashSweepScript()
	maxCells := 12
	if testing.Short() {
		maxCells = 4
	}
	for _, cell := range sweepConfigs() {
		cell := cell
		t.Run(cell.name, func(t *testing.T) {
			t.Parallel()
			max := maxCells
			if cell.maxCells != 0 && cell.maxCells < max {
				max = cell.maxCells
			}
			cells, err := CrashSweep(cell.cfg, script, 1, max)
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
	cfg := DefaultConfig(core.Lelantus)
	cfg.Mem.MemBytes = 16 << 20
	cells, err := CrashSweep(cfg, crashSweepScript(), 1, 16)
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
	script := crashSweepScript()
	cfgs := sweepConfigs()
	rng := rand.New(rand.NewSource(7))
	trials := 6
	if testing.Short() {
		trials = 2
	}
	var cells []sweepCell
	for trial := 0; trial < trials; trial++ {
		cells = append(cells, cfgs[rng.Intn(len(cfgs))])
	}
	for _, cell := range append(cells, mlpPrefetchCells()...) {
		seed := rng.Int63n(1 << 30)
		total, err := CrashPoints(cell.cfg, script, seed)
		if err != nil {
			t.Fatal(err)
		}
		n := 1 + uint64(rng.Int63n(int64(total)))
		a, err := CrashAt(cell.cfg, script, seed, n)
		if err != nil {
			t.Fatalf("%s point %d: %v", cell.name, n, err)
		}
		b, err := CrashAt(cell.cfg, script, seed, n)
		if err != nil {
			t.Fatalf("%s point %d (rerun): %v", cell.name, n, err)
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
			t.Fatalf("%s seed %d point %d: recovery reports differ:\n%s\n%s", cell.name, seed, n, ja, jb)
		}
	}
}
