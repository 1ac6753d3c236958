// Package simtest is the crash sweep's one definition: the script and the
// cell matrix that internal/sim's crash tests and internal/core's
// recovery-scan comparison both run. Tests import it; nothing else does.
package simtest

import (
	"lelantus/internal/core"
	"lelantus/internal/ctrcache"
	"lelantus/internal/nvm"
	"lelantus/internal/sim"
	"lelantus/internal/workload"
)

// SweepPoints strides up to maxCells (at least one) crash points evenly over
// the persist-point index space 1..total, starting at 1, so repeated sweeps
// of sim.CrashAt cover identical cells.
func SweepPoints(total uint64, maxCells int) []uint64 {
	stride := (total + uint64(max(maxCells, 1)) - 1) / uint64(max(maxCells, 1))
	var points []uint64
	for n := uint64(1); n <= total; n += max(stride, 1) {
		points = append(points, n)
	}
	return points
}

// Script exercises every multi-step command the fault plane can interrupt:
// page_copy (fork + child stores), on-demand line copies, a minor-counter
// overflow re-encryption (the hammered line overflows both the Classic max
// of 127 and the Resized CoW max of 63), page_phyc (parent write to a
// reused shared page) and the page_free sweep at exit. All stores land on
// line indices divisible by sim.OracleLineStride so the read-back oracle
// sees every written line.
func Script() workload.Script {
	b := workload.NewBuilder("crash-sweep")
	const region = 128 << 10 // 32 pages
	b.Spawn(0)
	b.Mmap(0, 0, region, false)
	// Parent populates every 8th line of each page with a distinct byte.
	for pg := uint64(0); pg < 32; pg++ {
		for ln := uint64(0); ln < 64; ln += sim.OracleLineStride {
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

// Cell is one machine of the sweep matrix.
type Cell struct {
	Name string
	Cfg  sim.Config
	// MaxCells caps the strided points this cell sweeps (0 = the default).
	// Strategy and MLP × prefetch cells sweep half as many points as the
	// historical strict cells so the full matrix stays within CI budget;
	// every cell still uses the same strided enumeration over its
	// persist-point space.
	MaxCells int
}

// Points is the number of strided points a sweep takes of the cell: 12, or
// 4 in short mode, capped at MaxCells.
func (c Cell) Points(short bool) int {
	n := 12
	if short {
		n = 4
	}
	if c.MaxCells != 0 && c.MaxCells < n {
		return c.MaxCells
	}
	return n
}

// Cells is the whole matrix: scheme × counter-cache mode × persistence
// strategy, one write-queue-fronted cell, and the MLP × prefetch cells.
// Strict cells keep their historical names, without a strategy suffix, so
// earlier sweep artefacts stay comparable.
func Cells() []Cell {
	var cells []Cell
	strategies := []core.PersistStrategy{core.StrictPersist(), core.PhoenixPersist(), core.TriadPersist(1), core.TriadPersist(2)}
	for _, strat := range strategies {
		for _, s := range core.Schemes() {
			for _, mode := range []ctrcache.Mode{ctrcache.WriteBack, ctrcache.WriteThrough} {
				cfg := config(s)
				cfg.Mem.CtrCacheMode = mode
				cfg.Mem.Core.Persist = strat
				name := s.String() + "/wb"
				if mode == ctrcache.WriteThrough {
					name = s.String() + "/wt"
				}
				max := 0
				if strat != core.StrictPersist() {
					name += "/" + strat.Name()
					max = 6
				}
				cells = append(cells, Cell{name, cfg, max})
			}
		}
	}
	// One write-queue-fronted cell: data writes report queue-loss.
	cfg := config(core.LelantusCoW)
	q := nvm.DefaultQueueConfig()
	cfg.Mem.WriteQueue = &q
	cells = append(cells, Cell{"lelantus-cow/queue", cfg, 0})
	return append(cells, MLPPrefetchCells()...)
}

// MLPPrefetchCells crash with the MLP page engines and both prefetchers'
// fills in flight: one strict, write-back cell per scheme.
func MLPPrefetchCells() []Cell {
	var cells []Cell
	for _, s := range core.Schemes() {
		cfg := config(s)
		cfg.Mem.Core.MLP.Enabled = true
		cfg.Mem.Core.Prefetch.Mode = core.PrefetchBoth
		cells = append(cells, Cell{s.String() + "/wb/mlp=on,prefetch=both", cfg, 6})
	}
	return cells
}

// config is the sweep's machine: the scheme's default on 16 MiB of memory.
func config(s core.Scheme) sim.Config {
	cfg := sim.DefaultConfig(s)
	cfg.Mem.MemBytes = 16 << 20
	return cfg
}
