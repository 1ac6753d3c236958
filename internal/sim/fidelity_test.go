package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"lelantus/internal/core"
	"lelantus/internal/mem"
	"lelantus/internal/workload"
)

// randomScript generates a deterministic pseudo-random workload exercising
// every op kind the simulator accepts: loads and stores of mixed sizes
// (including line-straddling ones), non-temporal stores, forks, KSM merges,
// munmap and compute gaps, with the measurement window at a random
// position. Seeds divisible by 3 use a huge-page region (and skip KSM and
// sub-region munmap, which the kernel restricts to 4 KB mappings).
func randomScript(seed int64) workload.Script {
	rng := rand.New(rand.NewSource(seed))
	huge := seed%3 == 0
	regionBytes := uint64(256 << 10)
	if huge {
		regionBytes = 4 << 20
	}
	safeBytes := regionBytes - uint64(mem.PageBytes)
	if huge {
		safeBytes = regionBytes - uint64(mem.HugePageBytes)
	}

	b := workload.NewBuilder(fmt.Sprintf("fidelity-rand-%d", seed))
	b.Spawn(0)
	b.Mmap(0, 0, regionBytes, huge)

	lineOff := func(limit uint64) uint64 {
		return (rng.Uint64() % (limit / mem.LineBytes)) * mem.LineBytes
	}

	// Warm phase: scattered small stores, low values so Silent Shredder's
	// zero-write elision triggers on some of them.
	for i := 0; i < 200; i++ {
		b.Store(0, 0, lineOff(regionBytes), 1+rng.Intn(64), byte(rng.Intn(4)))
	}
	b.Fork(0, 1)
	b.Fork(0, 2)
	measureAt := 200 + rng.Intn(400)

	ops := 0
	emit := func() {
		proc := rng.Intn(3)
		off := lineOff(safeBytes)
		switch rng.Intn(6) {
		case 0:
			b.Load(proc, 0, off, 1+rng.Intn(64))
		case 1:
			// Line-straddling load: starts mid-line, spans the boundary.
			b.Load(proc, 0, off+32, 64)
		case 2, 3:
			b.Store(proc, 0, off, 1+rng.Intn(256), byte(rng.Intn(8)))
		case 4:
			b.StoreNT(proc, 0, off, byte(rng.Intn(8)))
		case 5:
			b.Compute(proc, uint64(rng.Intn(500)))
		}
		ops++
		if ops == measureAt {
			b.BeginMeasure()
		}
	}
	for i := 0; i < 400; i++ {
		emit()
	}

	if !huge {
		// Two children write identical content to one page, then KSM folds
		// the copies back together (content-dependent control flow the
		// timing fidelity must reproduce exactly).
		ksmOff := (rng.Uint64() % (safeBytes / mem.PageBytes)) * mem.PageBytes
		for _, p := range []int{1, 2} {
			for l := uint64(0); l < mem.LinesPerPage; l += 8 {
				b.StoreNT(p, 0, ksmOff+l*mem.LineBytes, 0x7C)
			}
		}
		b.KSM(0, ksmOff, 1, 2)
		// Drop the region's tail from one process only.
		b.Munmap(2, 0, safeBytes, uint64(mem.PageBytes))
	} else {
		b.Munmap(2, 0, safeBytes, uint64(mem.HugePageBytes))
	}

	for i := 0; i < 200; i++ {
		emit()
	}
	if rng.Intn(2) == 0 {
		b.EndMeasure()
	}
	b.Exit(2)
	b.Exit(1)
	b.Exit(0)
	return b.Script()
}

// fidelityConfig builds a small machine at the given fidelity; seed-keyed
// variants turn on the content-independent extras (random counter
// initialisation, wear tracking) so the equivalence also covers them.
func fidelityConfig(s core.Scheme, f core.Fidelity, seed int64) Config {
	cfg := DefaultConfig(s)
	cfg.Mem.MemBytes = 64 << 20
	cfg.Mem.Core.Fidelity = f
	if seed%2 == 0 {
		cfg.Mem.Core.RandomInitCounters = true
	}
	if seed%4 == 0 {
		cfg.Mem.NVM.TrackWear = true
	}
	return cfg
}

// runPads is RunWith that also returns the engine's pad count, which the
// Result does not carry.
func runPads(cfg Config, s workload.Script) (Result, uint64, error) {
	m, err := NewMachine(cfg)
	if err != nil {
		return Result{}, 0, err
	}
	res, err := m.Run(s)
	return res, m.Ctl.Engine.Enc.Pads, err
}

// checkPads pins the pad count as one more fidelity-independent quantity:
// full and timing runs must count the same pads, and the same machine in
// non-secure mode (cfg with NonSecure set) must generate none.
func checkPads(t *testing.T, name string, full, timing uint64, cfg Config, s workload.Script) {
	t.Helper()
	if full != timing {
		t.Errorf("%s: pads diverge across fidelity: full %d, timing %d", name, full, timing)
	}
	cfg.Mem.Core.NonSecure = true
	if _, pads, err := runPads(cfg, s); err != nil {
		t.Fatalf("%s non-secure: %v", name, err)
	} else if pads != 0 {
		t.Errorf("%s: non-secure run generated %d pads", name, pads)
	}
}

// TestFidelityEquivalenceProperty is the fidelity contract as a property
// test: for random scripts over every scheme, every field of the Result —
// execution time, NVM traffic, engine and kernel statistics, miss rates —
// and the pad count must be identical whether the crypto data plane ran or
// was elided.
func TestFidelityEquivalenceProperty(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	if testing.Short() {
		seeds = seeds[:3]
	}
	for _, seed := range seeds {
		script := randomScript(seed)
		for _, s := range core.Schemes() {
			full, fullPads, err := runPads(fidelityConfig(s, core.FidelityFull, seed), script)
			if err != nil {
				t.Fatalf("seed %d %v full: %v", seed, s, err)
			}
			timing, timingPads, err := runPads(fidelityConfig(s, core.FidelityTiming, seed), script)
			if err != nil {
				t.Fatalf("seed %d %v timing: %v", seed, s, err)
			}
			if full != timing {
				t.Errorf("seed %d %v: results diverge\nfull:   %+v\ntiming: %+v",
					seed, s, full, timing)
			}
			checkPads(t, fmt.Sprintf("seed %d %v", seed, s), fullPads, timingPads,
				fidelityConfig(s, core.FidelityFull, seed), script)
		}
	}
}

// TestFidelityEquivalenceOverflow drives one line through hundreds of
// non-temporal rewrites so the minor counter overflows and the page
// re-encryption sweep runs — the timing path's trickiest elision (Lelantus'
// resized 6-bit minors overflow after 63 writes).
func TestFidelityEquivalenceOverflow(t *testing.T) {
	b := workload.NewBuilder("fidelity-overflow")
	b.Spawn(0)
	b.Mmap(0, 0, 64<<10, false)
	for off := uint64(0); off < 4096; off += mem.LineBytes {
		b.StoreNT(0, 0, off, 0x11)
	}
	b.Fork(0, 1)
	b.BeginMeasure()
	for i := 0; i < 300; i++ {
		b.StoreNT(0, 0, 128, byte(i))
		b.StoreNT(1, 0, 192, byte(i))
	}
	b.EndMeasure()
	b.Exit(1)
	b.Exit(0)
	script := b.Script()

	for _, s := range []core.Scheme{core.Lelantus, core.LelantusCoW} {
		full, fullPads, err := runPads(fidelityConfig(s, core.FidelityFull, 1), script)
		if err != nil {
			t.Fatalf("%v full: %v", s, err)
		}
		timing, timingPads, err := runPads(fidelityConfig(s, core.FidelityTiming, 1), script)
		if err != nil {
			t.Fatalf("%v timing: %v", s, err)
		}
		if full.Engine.Overflows == 0 {
			t.Errorf("%v: overflow stress produced no overflows — test lost its teeth", s)
		}
		if full != timing {
			t.Errorf("%v: results diverge\nfull:   %+v\ntiming: %+v", s, full, timing)
		}
		checkPads(t, s.String(), fullPads, timingPads, fidelityConfig(s, core.FidelityFull, 1), script)
	}
}

// TestGridSharedScriptConcurrent runs one Script value — including a KSM op,
// whose Procs slice is the one shared slice in an Op — on every scheme
// twice, concurrently, over the grid pool. Under -race this pins the Script
// immutability contract; the duplicate cells double-check determinism.
func TestGridSharedScriptConcurrent(t *testing.T) {
	script := randomScript(2) // seed 2: 4 KB pages, includes the KSM op
	var jobs []GridJob
	for _, s := range core.Schemes() {
		for rep := 0; rep < 2; rep++ {
			jobs = append(jobs, GridJob{
				Tag:    fmt.Sprintf("%v/rep%d", s, rep),
				Config: fidelityConfig(s, core.FidelityTiming, 2),
				Script: script,
			})
		}
	}
	results, err := runGrid(jobs, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(results); i += 2 {
		if results[i] != results[i+1] {
			t.Errorf("%s: duplicate cells diverge\nrep0: %+v\nrep1: %+v",
				jobs[i].Tag, results[i], results[i+1])
		}
	}
}

// TestSnapshotAllocFree pins the statistics snapshot on the measured path
// to zero allocations once its scratch buffers are sized (satellite of the
// hot-path allocation budget; see DESIGN.md "Performance model").
func TestSnapshotAllocFree(t *testing.T) {
	m, err := NewMachine(fidelityConfig(core.Lelantus, core.FidelityFull, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(randomScript(1)); err != nil {
		t.Fatal(err)
	}
	// Run left both buffers sized for the script's three procs.
	if allocs := testing.AllocsPerRun(200, func() {
		m.snapInto(&m.beginSnap)
		m.snapInto(&m.endSnap)
	}); allocs != 0 {
		t.Errorf("snapInto allocates %.1f times per snapshot pair, want 0", allocs)
	}
}
