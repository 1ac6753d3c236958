package experiments

import (
	"fmt"
	"math"
	"math/bits"

	"lelantus/internal/core"
	"lelantus/internal/ctrcache"
	"lelantus/internal/mem"
	"lelantus/internal/sim"
	"lelantus/internal/stats"
	"lelantus/internal/workload"
)

// Fig2 reproduces the motivation figure: write amplification of
// page-granularity CoW under the Baseline, for 4 KB and 2 MB pages, when
// the child updates one byte per page versus the whole page, over a 16 MB
// allocation. The write-amplification factor is physical NVM data writes
// divided by the logical cachelines the application wrote.
func Fig2(o Options) (*Report, error) {
	t := stats.NewTable("Fig. 2 — CoW write amplification (Baseline)",
		"config", "logical-lines", "physical-writes", "WAF", "WAF-with-meta")
	regionBytes := uint64(16 << 20)
	if o.Quick {
		regionBytes = 4 << 20
	}
	type cell struct {
		label   string
		logical uint64
	}
	var cells []cell
	var jobs []sim.GridJob
	for _, pm := range pageModes() {
		unit := uint64(mem.PageBytes)
		if pm.Huge {
			unit = mem.HugePageBytes
		}
		units := regionBytes / unit
		for _, upd := range []struct {
			label string
			bytes uint64
			lines uint64 // logical lines written per unit
		}{
			{"1B", 1, 1},
			{"whole", unit, unit / mem.LineBytes},
		} {
			p := workload.ForkbenchParams{
				RegionBytes:  regionBytes,
				BytesPerUnit: upd.bytes,
				Huge:         pm.Huge,
				ChildExits:   true,
			}
			label := fmt.Sprintf("%s(%s)", pm.Name, upd.label)
			cells = append(cells, cell{label, units * upd.lines})
			jobs = append(jobs, o.job("fig2/"+label, core.Baseline, workload.Forkbench(p), nil))
		}
	}
	results, err := o.runGrid(jobs)
	if err != nil {
		return nil, err
	}
	for i, c := range cells {
		res := results[i]
		t.Add(
			c.label,
			c.logical,
			res.Engine.DataWrites,
			float64(res.Engine.DataWrites)/float64(c.logical),
			float64(res.NVMWrites)/float64(c.logical),
		)
	}
	return &Report{
		ID:    "fig2",
		Title: "Write amplification for CoW pages",
		Table: t,
		Notes: []string{
			"paper: first-write WAF 7.07x (4KB) / 477.96x (2MB); whole-page WAF 1.87x / 1.97x",
		},
	}, nil
}

// Fig9 reproduces the end-to-end comparison (Fig. 9a-9d): speedup over the
// Baseline and NVM writes relative to the Baseline for Silent Shredder,
// Lelantus and Lelantus-CoW across the benchmark catalogue. Each workload
// contributes four independent machines (the Baseline plus the three
// schemes), all fanned out over the grid.
func Fig9(o Options, huge bool) (*Report, error) {
	mode := "4KB"
	if huge {
		mode = "2MB"
	}
	t := stats.NewTable(fmt.Sprintf("Fig. 9 — speedup and write reduction (%s pages)", mode),
		"workload",
		"speedup-shredder", "speedup-lelantus", "speedup-lelantus-cow",
		"writes%-shredder", "writes%-lelantus", "writes%-lelantus-cow")
	specs := workload.Catalogue()
	schemes := comparedSchemes()
	stride := 1 + len(schemes)
	var jobs []sim.GridJob
	for _, spec := range specs {
		script, err := o.script(spec.Name, huge)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, o.job(
			fmt.Sprintf("fig9-%s/%s/baseline", mode, spec.Name), core.Baseline, script, nil))
		for _, s := range schemes {
			jobs = append(jobs, o.job(
				fmt.Sprintf("fig9-%s/%s/%v", mode, spec.Name, s), s, script, nil))
		}
	}
	results, err := o.runGrid(jobs)
	if err != nil {
		return nil, err
	}
	var geoLel float64 = 1
	n := 0
	for wi, spec := range specs {
		base := results[wi*stride]
		row := []interface{}{spec.Name}
		var speeds, writes []float64
		for si := range schemes {
			res := results[wi*stride+1+si]
			speeds = append(speeds, res.SpeedupVs(base))
			writes = append(writes, 100*res.WriteReductionVs(base))
		}
		for _, v := range speeds {
			row = append(row, v)
		}
		for _, v := range writes {
			row = append(row, v)
		}
		t.Add(row...)
		if spec.Name != "non-copy" {
			geoLel *= speeds[1]
			n++
		}
	}
	notes := []string{
		fmt.Sprintf("geometric-mean Lelantus speedup (excl. non-copy): %.2fx", geomean(geoLel, n)),
	}
	if huge {
		notes = append(notes, "paper: 10.57x average speedup, writes reduced to 29.65% (2MB)")
	} else {
		notes = append(notes, "paper: 2.25x average speedup, writes reduced to 42.78% (4KB)")
	}
	return &Report{ID: "fig9-" + mode, Title: "Application speedup and write reduction", Table: t, Notes: notes}, nil
}

func geomean(product float64, n int) float64 {
	if n == 0 || product <= 0 {
		return 0
	}
	return math.Pow(product, 1/float64(n))
}

// Fig10 reproduces the design-choice diagnostics: (a) minor-counter
// overflow rate under both encodings, (b) the CoW-metadata cache miss
// rate of Lelantus-CoW, and (c/d) the page-access footprint of CoW pages
// under Baseline versus Lelantus. All three sections are one grid.
func Fig10(o Options) (*Report, error) {
	t := stats.NewTable("Fig. 10 — encoding diagnostics",
		"metric", "workload", "value")

	fb := o.forkbench()
	var jobs []sim.GridJob

	// (a) Overflow rate: the CoW-page rewrite stress (journal commits on
	// snapshotted pages) plus the ordinary forkbench, with randomly
	// initialised counters. The resized 6-bit minors overflow roughly
	// twice as often as the classic 7-bit layout.
	randomCtrs := func(c *sim.Config) { c.Mem.Core.RandomInitCounters = true }
	overflowSchemes := []core.Scheme{core.Lelantus, core.LelantusCoW}
	overflowWLs := []struct {
		name   string
		script workload.Script
	}{
		{"journal", workload.Journal(false, o.Seed)},
		{"forkbench", fb},
	}
	for _, s := range overflowSchemes {
		for _, wl := range overflowWLs {
			jobs = append(jobs, o.job(
				fmt.Sprintf("fig10/overflow/%v/%s", s, wl.name), s, wl.script, randomCtrs))
		}
	}

	// (b) CoW cache miss rate (Lelantus-CoW).
	var missSpecs []workload.Spec
	for _, spec := range workload.Catalogue() {
		if spec.Name == "non-copy" {
			continue
		}
		script, err := o.script(spec.Name, false)
		if err != nil {
			return nil, err
		}
		missSpecs = append(missSpecs, spec)
		jobs = append(jobs, o.job("fig10/cow-miss/"+spec.Name, core.LelantusCoW, script, nil))
	}

	// (c)/(d) Page access footprint of CoW destination pages. The mean
	// footprint lives in engine state the Result does not carry, so an
	// After hook harvests it into a per-job slot on the worker.
	fpSchemes := []core.Scheme{core.Baseline, core.Lelantus}
	fpMeans := make([]float64, len(fpSchemes))
	for i, s := range fpSchemes {
		job := o.job("fig10/footprint/"+s.String(), s, fb, func(c *sim.Config) {
			c.Kernel.TrackFootprints = true
		})
		job.After = func(m *sim.Machine, _ sim.Result) {
			fpMeans[i] = meanFootprint(m.Ctl.Engine.Footprints())
		}
		jobs = append(jobs, job)
	}

	results, err := o.runGrid(jobs)
	if err != nil {
		return nil, err
	}

	next := 0
	for _, s := range overflowSchemes {
		for _, wl := range overflowWLs {
			res := results[next]
			next++
			rate := 0.0
			if res.Engine.MinorIncrements > 0 {
				rate = float64(res.Engine.Overflows) / float64(res.Engine.MinorIncrements)
			}
			t.Add("overflow-rate/"+s.String(), wl.name, fmt.Sprintf("%.6f", rate))
		}
	}
	for _, spec := range missSpecs {
		t.Add("cow-cache-miss", spec.Name, fmt.Sprintf("%.4f", results[next].CoWMissRate))
		next++
	}
	for i, s := range fpSchemes {
		t.Add("footprint-lines/page", s.String(), fmt.Sprintf("%.1f of 64", fpMeans[i]))
	}

	return &Report{
		ID:    "fig10",
		Title: "Overflow rate, CoW cache misses, access footprints",
		Table: t,
		Notes: []string{
			"paper: overflow rate on the order of 1e-4; Baseline touches whole pages, Lelantus a few scattered lines",
		},
	}, nil
}

// meanFootprint averages the number of touched lines per tracked CoW
// destination page.
func meanFootprint(fps map[uint64]uint64) float64 {
	if len(fps) == 0 {
		return 0
	}
	total := 0
	for _, mask := range fps {
		total += bits.OnesCount64(mask)
	}
	return float64(total) / float64(len(fps))
}

// Fig11 reproduces the forkbench sensitivity study: the child updates a
// varying number of bytes per page (evenly spread), and speedup plus
// write ratio versus the Baseline are reported for both Lelantus schemes.
func Fig11(o Options, huge bool) (*Report, error) {
	mode := "4KB"
	sweep := []uint64{1, 8, 64, 512, 4096}
	if huge {
		mode = "2MB"
		sweep = []uint64{1, 64, 4096, 32768, 262144, 2097152}
	}
	if o.Quick {
		if huge {
			sweep = []uint64{1, 4096, 2097152}
		} else {
			sweep = []uint64{1, 64, 4096}
		}
	}
	t := stats.NewTable(fmt.Sprintf("Fig. 11 — forkbench sensitivity (%s pages)", mode),
		"bytes/page", "speedup-lelantus", "speedup-lelantus-cow",
		"writes%-lelantus", "writes%-lelantus-cow")
	rowSchemes := []core.Scheme{core.Baseline, core.Lelantus, core.LelantusCoW}
	var jobs []sim.GridJob
	for _, bytes := range sweep {
		p := workload.Key{Name: "forkbench", Huge: huge, Quick: o.Quick}.Forkbench()
		p.BytesPerUnit = bytes
		script := workload.Forkbench(p)
		for _, s := range rowSchemes {
			jobs = append(jobs, o.job(
				fmt.Sprintf("fig11-%s/%d/%v", mode, bytes, s), s, script, nil))
		}
	}
	results, err := o.runGrid(jobs)
	if err != nil {
		return nil, err
	}
	for i, bytes := range sweep {
		base := results[i*len(rowSchemes)]
		lel := results[i*len(rowSchemes)+1]
		cow := results[i*len(rowSchemes)+2]
		t.Add(bytes,
			lel.SpeedupVs(base), cow.SpeedupVs(base),
			100*lel.WriteReductionVs(base), 100*cow.WriteReductionVs(base))
	}
	notes := []string{}
	if huge {
		notes = append(notes, "paper: 67.53x at 1 byte, 1.10x whole page; writes 0.20%-50.76%")
	} else {
		notes = append(notes, "paper: 3.33x at 1 byte, 1.11x whole page; writes 14.14%-53.45%")
	}
	return &Report{ID: "fig11-" + mode, Title: "forkbench sensitivity", Table: t, Notes: notes}, nil
}

// Fig12 reproduces the counter-cache write-strategy study on Redis:
// write-through versus battery-backed write-back, Baseline versus
// Lelantus, for both page sizes.
func Fig12(o Options) (*Report, error) {
	t := stats.NewTable("Fig. 12 — encryption-counter write strategy (redis)",
		"page", "strategy", "baseline-ms", "lelantus-ms", "speedup")
	modes := []ctrcache.Mode{ctrcache.WriteThrough, ctrcache.WriteBack}
	var jobs []sim.GridJob
	for _, pm := range pageModes() {
		script, err := o.script("redis", pm.Huge)
		if err != nil {
			return nil, err
		}
		for _, mode := range modes {
			mut := func(c *sim.Config) { c.Mem.CtrCacheMode = mode }
			jobs = append(jobs,
				o.job(fmt.Sprintf("fig12/%s/%v/baseline", pm.Name, mode), core.Baseline, script, mut),
				o.job(fmt.Sprintf("fig12/%s/%v/lelantus", pm.Name, mode), core.Lelantus, script, mut))
		}
	}
	results, err := o.runGrid(jobs)
	if err != nil {
		return nil, err
	}
	next := 0
	for _, pm := range pageModes() {
		for _, mode := range modes {
			base, lel := results[next], results[next+1]
			next += 2
			t.Add(pm.Name, mode.String(),
				float64(base.ExecNs)/1e6, float64(lel.ExecNs)/1e6,
				lel.SpeedupVs(base))
		}
	}
	return &Report{
		ID:    "fig12",
		Title: "Write-through vs write-back counter cache",
		Table: t,
		Notes: []string{
			"paper: Lelantus speedup 2.07x (WT) / 3.16x (WB) on 4KB; 5.83x / 20.94x on 2MB",
		},
	}, nil
}
