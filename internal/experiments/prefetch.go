package experiments

import (
	"fmt"

	"lelantus/internal/core"
	"lelantus/internal/probe"
	"lelantus/internal/sim"
	"lelantus/internal/stats"
	"lelantus/internal/workload"
)

// PrefetchMatrix regenerates the metadata-prefetch axis (a Fig-9-style
// runtime comparison, beyond the paper): every scheme runs two workloads —
// forkbench (the paper's canonical CoW stress, a delta-pattern metadata
// stream) and a scaled shell whose find pass reads back the redirect
// chains its children plant (the chain walker's target pattern) — under
// each prefetch scheme: off, the counter-delta prefetcher, the
// redirect-chain walker, and both. The table reports execution time next
// to probe-reported prefetch coverage and accuracy. Prefetching moves
// fills earlier in time and adds speculative metadata traffic; it never
// changes functional state, so off-row results are byte-identical to every
// other experiment's runs of the same script.
//
// Coverage is the share of would-be demand metadata misses the prefetcher
// absorbed: useful / (useful + remaining demand misses). Accuracy is the
// share of issued fills that were demanded at all before eviction:
// (useful + late) / issued. Both come from each cell's private probe plane,
// so the columns survive any worker count.
func PrefetchMatrix(o Options) (*Report, error) {
	t := stats.NewTable("Metadata prefetch — delta prefetcher and redirect-chain walker (4KB)",
		"workload", "prefetch", "scheme", "exec-ms", "issued", "useful", "late", "coverage%", "accuracy%", "speedup-vs-off")
	// The shell image must exceed what the 256 KB counter cache covers
	// (16 MB of data) or every fill is a resident-hit no-op; quick scale
	// trims the spawn count, not the image, to stay above that line.
	sp := workload.DefaultShell(false)
	sp.Seed = o.Seed
	sp.ImageBytes = 32 << 20
	sp.Spawns = 4
	sp.Scan = true
	if o.Quick {
		sp.ImageBytes = 24 << 20
		sp.Spawns = 2
	}
	workloads := []struct {
		name   string
		script workload.Script
	}{
		{"forkbench", o.forkbench()},
		{"shell-scan", workload.ShellWith(sp)},
	}
	schemes := comparedSchemes()
	modes := []struct {
		name string
		mode core.PrefetchMode
	}{
		{"off", core.PrefetchOff},
		{"delta", core.PrefetchDelta},
		{"chain", core.PrefetchChain},
		{"both", core.PrefetchBoth},
	}
	var jobs []sim.GridJob
	var planes []*probe.Plane
	for _, w := range workloads {
		for _, m := range modes {
			for _, s := range schemes {
				// Each cell gets a private plane (created here, serially) so
				// parallel grid workers never share one; results and planes
				// are consumed index-aligned below.
				pl := probe.New(probe.Config{RingCap: 1})
				planes = append(planes, pl)
				op := o
				op.Prefetch.Mode = m.mode
				jobs = append(jobs, op.job(fmt.Sprintf("prefetch-matrix/%s/%s/%v", w.name, m.name, s), s, w.script,
					func(c *sim.Config) { c.Mem.Probe = pl }))
			}
		}
	}
	results, err := o.runGrid(jobs)
	if err != nil {
		return nil, err
	}
	next := 0
	for _, w := range workloads {
		off := make(map[core.Scheme]sim.Result, len(schemes))
		for _, m := range modes {
			for _, s := range schemes {
				res := results[next]
				pl := planes[next]
				next++
				speedup := 1.0
				if m.name == "off" {
					off[s] = res
				} else {
					speedup = res.SpeedupVs(off[s])
				}
				issued := pl.Count(probe.EvPrefetchIssue)
				useful := pl.Count(probe.EvPrefetchUseful)
				late := pl.Count(probe.EvPrefetchLate)
				misses := pl.Count(probe.EvCtrMiss) + pl.Count(probe.EvCoWMiss)
				coverage := 0.0
				if useful+misses > 0 {
					coverage = 100 * float64(useful) / float64(useful+misses)
				}
				accuracy := 0.0
				if issued > 0 {
					accuracy = 100 * float64(useful+late) / float64(issued)
				}
				t.Add(w.name, m.name, s.String(),
					float64(res.ExecNs)/1e6,
					issued, useful, late,
					coverage, accuracy, speedup)
			}
		}
	}
	return &Report{
		ID:    "prefetch-matrix",
		Title: "Metadata prefetch",
		Table: t,
		Notes: []string{
			"delta learns per-region counter-block strides; chain pre-walks redirect chains on first touch; both composes them",
			"coverage% = useful / (useful + remaining demand metadata misses); accuracy% = (useful + late) / issued",
			"prefetch fills change timing and metadata traffic only — functional state is untouched under every mode",
		},
	}, nil
}
