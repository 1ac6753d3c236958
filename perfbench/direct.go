package main

import (
	"fmt"
	"runtime"
	"time"

	"lelantus/internal/core"
	"lelantus/internal/sim"
	"lelantus/internal/workload"
)

// directCell is one cell of a workload that drives sim.Machine itself: a
// machine configuration and the index of the script it runs.
type directCell struct {
	group  string // application/page size: cells that share a script
	scheme core.Scheme
	cfg    sim.Config
	script int
}

// directInputs are one set-up's worth of generated inputs.
type directInputs struct {
	scripts []workload.Script
	cells   []directCell
}

// fig9Inputs is the paper's full-size Fig. 9 grid: every catalogue
// application at both page sizes on all four schemes, at timing fidelity
// with MLP, prefetch and persistence at their defaults, on the 512 MiB
// machine the experiment harness uses.
func fig9Inputs(seed int64) directInputs {
	var in directInputs
	for _, huge := range []bool{false, true} {
		for _, spec := range workload.Catalogue() {
			in.scripts = append(in.scripts, spec.Build(huge, seed))
			for _, scheme := range core.Schemes() {
				cfg := sim.DefaultConfig(scheme)
				cfg.Mem.MemBytes = 512 << 20
				cfg.Mem.Core.Fidelity = core.FidelityTiming
				in.cells = append(in.cells, directCell{
					group: spec.Name + "/" + pageMode(huge), scheme: scheme,
					cfg: cfg, script: len(in.scripts) - 1,
				})
			}
		}
	}
	return in
}

// secureMLPInputs drives the crypto plane and the overlapped metadata path:
// full fidelity, MLP on with a two-worker issue pool, both prefetchers,
// 4 KB pages. The two scripts overflow the 256 KiB counter cache: the
// full-size forkbench and the 32 MB scanning shell of BenchmarkChainHeavy.
func secureMLPInputs(seed int64) directInputs {
	sp := workload.DefaultShell(false)
	sp.Seed = seed
	sp.ImageBytes = 32 << 20
	sp.Spawns = 4
	sp.Scan = true
	in := directInputs{scripts: []workload.Script{
		workload.Forkbench(workload.DefaultForkbench(false)),
		workload.ShellWith(sp),
	}}
	groups := []string{"forkbench/4KB", "shell-32MB/4KB"}
	for i := range in.scripts {
		for _, scheme := range []core.Scheme{core.Baseline, core.Lelantus, core.LelantusCoW} {
			cfg := sim.DefaultConfig(scheme)
			cfg.Mem.MemBytes = 256 << 20
			cfg.Mem.Core.Fidelity = core.FidelityFull
			cfg.Mem.Core.MLP = core.MLPConfig{Enabled: true, Workers: 2}
			cfg.Mem.Core.Prefetch = core.PrefetchConfig{Mode: core.PrefetchBoth}
			in.cells = append(in.cells, directCell{group: groups[i], scheme: scheme, cfg: cfg, script: i})
		}
	}
	return in
}

func pageMode(huge bool) string {
	if huge {
		return "2MB"
	}
	return "4KB"
}

// directOutcome is one cell's run: the outcome the checks see plus the
// host time of its two phases.
type directOutcome struct {
	run          cellRun
	buildS, runS float64
}

// runDirectCell builds the cell's machine and runs its script. A panic
// under the simulator is recovered into the outcome's error, so one broken
// cell counts as failed instead of ending the benchmark.
func runDirectCell(c directCell, s workload.Script) (out directOutcome) {
	out.run = cellRun{group: c.group, scheme: c.scheme.String()}
	defer func() {
		if r := recover(); r != nil {
			out.run.res, out.run.err = nil, fmt.Sprintf("panic: %v", r)
		}
	}()
	t0 := time.Now()
	m, err := sim.NewMachine(c.cfg)
	out.buildS = time.Since(t0).Seconds()
	if err != nil {
		out.run.err = err.Error()
		return out
	}
	t1 := time.Now()
	res, err := m.Run(s)
	out.runS = time.Since(t1).Seconds()
	if err != nil {
		out.run.err = err.Error()
		return out
	}
	out.run.res = &res
	return out
}

// directSetup generates the inputs and builds every cell's machine once,
// discarding them: one set-up-only sample.
func directSetup(gen func(int64) directInputs, seed int64) (float64, error) {
	runtime.GC()
	t0 := time.Now()
	in := gen(seed)
	for _, c := range in.cells {
		if _, err := sim.NewMachine(c.cfg); err != nil {
			return 0, fmt.Errorf("set-up: %s/%v: %w", c.group, c.scheme, err)
		}
	}
	return time.Since(t0).Seconds(), nil
}

// directPass generates the inputs and runs every cell once, serially.
func directPass(gen func(int64) directInputs, seed int64) passStats {
	t0 := time.Now()
	in := gen(seed)
	ps := passStats{genS: time.Since(t0).Seconds()}
	for _, c := range in.cells {
		o := runDirectCell(c, in.scripts[c.script])
		ps.buildS += o.buildS
		ps.runS += o.runS
		ps.runParts = append(ps.runParts, o.runS)
		ps.cellS = append(ps.cellS, o.buildS+o.runS)
		ps.runs = append(ps.runs, o.run)
		if o.run.res != nil {
			ps.refs += o.run.res.CPUReads + o.run.res.CPUWrites
		}
	}
	ps.setupS = ps.genS + ps.buildS
	ps.failed = checkCells(ps.runs)
	return ps
}

// directPairs pairs each group's Baseline and Lelantus results; skip names
// groups left out of the comparison.
func directPairs(runs []cellRun, skip func(group string) bool) []pair {
	base := map[string]*sim.Result{}
	var pairs []pair
	for _, r := range runs {
		if r.res != nil && r.scheme == core.Baseline.String() {
			base[r.group] = r.res
		}
	}
	for _, r := range runs {
		if r.res == nil || r.scheme != core.Lelantus.String() || skip(r.group) {
			continue
		}
		if b, ok := base[r.group]; ok {
			pairs = append(pairs, pair{group: r.group, base: *b, lel: *r.res})
		}
	}
	return pairs
}
