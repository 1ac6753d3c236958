package sim

import (
	"fmt"
	"testing"

	"lelantus/internal/core"
	"lelantus/internal/mem"
	"lelantus/internal/workload"
)

// prefetchConfig builds a machine with a deliberately small counter cache
// (16 KB = 256 blocks) so the 4 MB scripts below overflow it and the
// prefetch unit has real capacity misses to hide; the default 256 KB cache
// swallows a test-sized working set whole and every prefetch hook would be
// a Peek-hit no-op.
func prefetchConfig(s core.Scheme, f core.Fidelity, m core.PrefetchMode) Config {
	cfg := DefaultConfig(s)
	cfg.Mem.MemBytes = 64 << 20
	cfg.Mem.CtrCacheBytes = 16 << 10
	cfg.Mem.CoWReserveBytes = 4 << 10
	cfg.Mem.Core.Fidelity = f
	cfg.Mem.Core.MLP = core.MLPConfig{Enabled: true}
	cfg.Mem.Core.Prefetch = core.PrefetchConfig{Mode: m}
	return cfg
}

// prefetchChainScript initialises every page of a 4 MB region, forks, has
// the child dirty one line per page — each store faults, allocates a fresh
// frame and plants a metadata-only redirect to the parent's page — and then
// reads a still-unmaterialised line of every page in the measured phase.
// Those reads resolve through the redirects with the hop metadata cold
// again (1024 redirect creations churned the 256-block counter cache), so
// the chain walker has work on each first touch, and the sequential
// destination-page stream trains the delta table.
func prefetchChainScript() workload.Script {
	const regionBytes = 4 << 20
	b := workload.NewBuilder("prefetch-chain")
	b.Spawn(0)
	b.Mmap(0, 0, regionBytes, false)
	for off := uint64(0); off < regionBytes; off += uint64(mem.PageBytes) {
		b.StoreNT(0, 0, off, 0x2A)
	}
	b.Fork(0, 1)
	for off := uint64(0); off < regionBytes; off += uint64(mem.PageBytes) {
		b.Store(1, 0, off, 1, 0x77)
	}
	b.BeginMeasure()
	for off := uint64(0); off < regionBytes; off += uint64(mem.PageBytes) {
		b.Load(1, 0, off+2048, 8)
	}
	b.EndMeasure()
	b.Exit(1)
	b.Exit(0)
	return b.Script()
}

// TestPrefetchOffKnobInert pins the -prefetch=off contract: a disabled
// PrefetchConfig with a non-zero depth changes nothing — every Result field
// is identical to the zero-config machine, across schemes, fidelities and
// both engines (serial and MSHR-overlapped). Combined with the construction
// that every prefetch hook is nil-gated, this is the byte-identity
// guarantee for disabled prefetch.
func TestPrefetchOffKnobInert(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		script := randomScript(seed)
		for _, s := range core.Schemes() {
			for _, f := range []core.Fidelity{core.FidelityFull, core.FidelityTiming} {
				for _, mlp := range []bool{false, true} {
					base := fidelityConfig(s, f, seed)
					base.Mem.Core.MLP = core.MLPConfig{Enabled: mlp}
					plain, err := RunWith(base, script)
					if err != nil {
						t.Fatalf("seed %d %v: %v", seed, s, err)
					}
					cfg := fidelityConfig(s, f, seed)
					cfg.Mem.Core.MLP = core.MLPConfig{Enabled: mlp}
					cfg.Mem.Core.Prefetch = core.PrefetchConfig{Mode: core.PrefetchOff, Depth: 5}
					knob, err := RunWith(cfg, script)
					if err != nil {
						t.Fatalf("seed %d %v knob: %v", seed, s, err)
					}
					if plain != knob {
						t.Errorf("seed %d %v %v mlp=%v: disabled prefetch config is not inert\nplain: %+v\nknob:  %+v",
							seed, s, f, mlp, plain, knob)
					}
				}
			}
		}
	}
}

// TestPrefetchFidelityEquivalence extends the fidelity contract to every
// prefetch mode: the Result under delta, chain and both must be identical
// whether the crypto data plane ran or was elided. The test refuses to pass
// vacuously — each mode must actually issue fills on the chain script.
func TestPrefetchFidelityEquivalence(t *testing.T) {
	script := prefetchChainScript()
	for _, m := range []core.PrefetchMode{core.PrefetchDelta, core.PrefetchChain, core.PrefetchBoth} {
		var issued uint64
		for _, s := range []core.Scheme{core.Lelantus, core.LelantusCoW} {
			full, err := RunWith(prefetchConfig(s, core.FidelityFull, m), script)
			if err != nil {
				t.Fatalf("%v %v full: %v", s, m, err)
			}
			timing, err := RunWith(prefetchConfig(s, core.FidelityTiming, m), script)
			if err != nil {
				t.Fatalf("%v %v timing: %v", s, m, err)
			}
			if full != timing {
				t.Errorf("%v %v: prefetch results diverge across fidelity\nfull:   %+v\ntiming: %+v",
					s, m, full, timing)
			}
			issued += full.Engine.PrefetchIssued
		}
		if issued == 0 {
			t.Errorf("mode %v issued no prefetches on the chain script — the equivalence went untested", m)
		}
	}
}

// TestPrefetchFunctionalInvariant pins the speculation boundary: prefetch
// moves simulated time and metadata read traffic, never functional state.
// Against the prefetch-off run, every mode must leave the kernel events,
// the engine's data/redirect/overflow activity and the NVM write count
// (prefetch never evicts a dirty block, so it can never add or reorder a
// write-back that survives the end-of-run drain) exactly unchanged.
func TestPrefetchFunctionalInvariant(t *testing.T) {
	script := prefetchChainScript()
	for _, s := range []core.Scheme{core.Lelantus, core.LelantusCoW} {
		off, err := RunWith(prefetchConfig(s, core.FidelityTiming, core.PrefetchOff), script)
		if err != nil {
			t.Fatalf("%v off: %v", s, err)
		}
		for _, m := range []core.PrefetchMode{core.PrefetchDelta, core.PrefetchChain, core.PrefetchBoth} {
			on, err := RunWith(prefetchConfig(s, core.FidelityTiming, m), script)
			if err != nil {
				t.Fatalf("%v %v: %v", s, m, err)
			}
			if on.Kernel != off.Kernel {
				t.Errorf("%v %v: kernel events moved under prefetch\noff: %+v\non:  %+v", s, m, off.Kernel, on.Kernel)
			}
			if on.Engine.DataReads != off.Engine.DataReads ||
				on.Engine.DataWrites != off.Engine.DataWrites ||
				on.Engine.Redirects != off.Engine.Redirects ||
				on.Engine.Overflows != off.Engine.Overflows ||
				on.Engine.PagePhycs != off.Engine.PagePhycs {
				t.Errorf("%v %v: functional engine statistics moved under prefetch\noff: %+v\non:  %+v",
					s, m, off.Engine, on.Engine)
			}
			if on.NVMWrites != off.NVMWrites {
				t.Errorf("%v %v: NVM writes moved under prefetch: %d -> %d", s, m, off.NVMWrites, on.NVMWrites)
			}
			if on.CPUReads != off.CPUReads || on.CPUWrites != off.CPUWrites {
				t.Errorf("%v %v: CPU request counts moved under prefetch", s, m)
			}
		}
	}
}

// TestPrefetchDemandMissStatsUnchanged is the satellite pin for the
// demand/prefetch fill split in the cache statistics: prefetch fills enter
// the cache without touching Hits/Misses, so on the pathological all-miss
// access stream (every demand page touched exactly once, every predicted
// page never demanded) the demand hit/miss counters are bit-identical
// off-vs-on even though fills were issued. Without the split, each
// installed fill would show up as a phantom hit or miss and MissRate()
// would stop meaning "demand lookups that had to wait for NVM". The stream
// is driven at engine level: a sim script's exit teardown frees every page
// and those PageFree lookups legitimately hit still-resident prefetched
// blocks, which is prefetch doing its job, not the property under test.
func TestPrefetchDemandMissStatsUnchanged(t *testing.T) {
	run := func(s core.Scheme, m core.PrefetchMode) (*core.Engine, error) {
		mach, err := NewMachine(prefetchConfig(s, core.FidelityTiming, m))
		if err != nil {
			return nil, err
		}
		e := mach.Ctl.Engine
		var plain [64]byte
		plain[0] = 0x11
		// Pass 1: initialise 1024 pages; the 256-block cache keeps the tail.
		for pfn := uint64(0); pfn < 1024; pfn++ {
			if _, err := e.WriteLine(0, pfn<<12, &plain); err != nil {
				return nil, err
			}
		}
		// Pass 2: six single-touch reads per second 64-page region, striding
		// by 8 pages. The stride confirms the delta entry mid-region, so
		// fills issue — but every predicted page (the stride continuation
		// and the stale pass-1 stride) lands on pages never demanded again,
		// and every demanded page was evicted after pass 1. Every demand
		// lookup therefore misses whether prefetch ran or not.
		for r := uint64(0); r <= 10; r += 2 {
			for k := uint64(0); k < 6; k++ {
				if _, _, err := e.ReadLine(0, (r*64+k*8)<<12); err != nil {
					return nil, err
				}
			}
		}
		return e, nil
	}
	for _, s := range []core.Scheme{core.Lelantus, core.LelantusCoW} {
		off, err := run(s, core.PrefetchOff)
		if err != nil {
			t.Fatalf("%v off: %v", s, err)
		}
		on, err := run(s, core.PrefetchDelta)
		if err != nil {
			t.Fatalf("%v delta: %v", s, err)
		}
		if on.Stats.PrefetchIssued == 0 {
			t.Errorf("%v: all-miss stream issued no prefetches — the pin is vacuous", s)
		}
		if on.CtrCache.Hits != off.CtrCache.Hits || on.CtrCache.Misses != off.CtrCache.Misses {
			t.Errorf("%v: demand hit/miss counters moved under prefetch: %d/%d -> %d/%d",
				s, off.CtrCache.Hits, off.CtrCache.Misses, on.CtrCache.Hits, on.CtrCache.Misses)
		}
		if on.CtrCache.MissRate() != off.CtrCache.MissRate() {
			t.Errorf("%v: demand miss rate moved under prefetch: %v -> %v",
				s, off.CtrCache.MissRate(), on.CtrCache.MissRate())
		}
	}
}

// TestPrefetchGridDeterminism pins the grid contract for the new plane:
// prefetch-enabled cells report byte-identically at any worker count.
func TestPrefetchGridDeterminism(t *testing.T) {
	script := prefetchChainScript()
	var jobs []GridJob
	for _, s := range []core.Scheme{core.Lelantus, core.LelantusCoW} {
		for _, m := range []core.PrefetchMode{core.PrefetchDelta, core.PrefetchChain, core.PrefetchBoth} {
			jobs = append(jobs, GridJob{
				Tag:    fmt.Sprintf("%v/%v", s, m),
				Config: prefetchConfig(s, core.FidelityTiming, m),
				Script: script,
			})
		}
	}
	ref, err := RunGrid(jobs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, 8} {
		results, err := RunGrid(jobs, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range results {
			if results[i] != ref[i] {
				t.Errorf("%s: result diverges at workers=%d", jobs[i].Tag, workers)
			}
		}
	}
}

// snapshotTreeScript is a snapshot tree (paper Section II-C): a 4 MiB image
// written in full, then depth nested forks, each level dirtying line
// `level` of every page. Reading line i < depth from the deepest snapshot
// therefore walks a redirect chain depth-i hops long, and every other line
// a chain of depth hops back to the image. The deepest snapshot reads every
// line twice in the measured phase.
func snapshotTreeScript(depth int) workload.Script {
	const regionBytes = 4 << 20
	b := workload.NewBuilder("snapshot-tree")
	b.Spawn(0)
	b.Mmap(0, 0, regionBytes, false)
	for off := uint64(0); off < regionBytes; off += mem.LineBytes {
		b.StoreNT(0, 0, off, 0x2A)
	}
	for level := 0; level <= depth; level++ {
		if level > 0 {
			b.Fork(level-1, level)
		}
		for off := uint64(0); off < regionBytes; off += uint64(mem.PageBytes) {
			b.Store(level, 0, off+uint64(level*mem.LineBytes), 1, byte(level+1))
		}
	}
	b.BeginMeasure()
	for pass := 0; pass < 2; pass++ {
		for off := uint64(0); off < regionBytes; off += mem.LineBytes {
			b.Load(depth, 0, off, 8)
		}
	}
	b.EndMeasure()
	for level := depth; level >= 0; level-- {
		b.Exit(level)
	}
	return b.Script()
}

// TestChainWalkerPaysOnSnapshotTree is the redirect-chain walker's fair
// test: on the fork workloads it only ever sees depth-1 chains and its
// fills come late, but six nested snapshots give it deep chains to walk
// ahead of demand. There Lelantus-CoW must run at least 1% faster with
// -prefetch=chain than with prefetching off (EXPERIMENTS.md records the
// depth sweep, and that Lelantus itself loses time to the walker).
func TestChainWalkerPaysOnSnapshotTree(t *testing.T) {
	script := snapshotTreeScript(6)
	run := func(m core.PrefetchMode) Result {
		cfg := fidelityConfig(core.LelantusCoW, core.FidelityTiming, 1)
		cfg.Mem.Core.Prefetch.Mode = m
		res, err := RunWith(cfg, script)
		if err != nil {
			t.Fatalf("prefetch=%v: %v", m, err)
		}
		return res
	}
	off, chain := run(core.PrefetchOff), run(core.PrefetchChain)
	if chain.ExecNs*100 > off.ExecNs*99 {
		t.Errorf("chain walker saves too little on a depth-6 snapshot tree: %d ns with it, %d ns without (want at least 1%% less)",
			chain.ExecNs, off.ExecNs)
	}
}
