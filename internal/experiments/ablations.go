package experiments

import (
	"fmt"
	"math/rand"

	"lelantus/internal/ctrcache"
	"lelantus/internal/nvm"

	"lelantus/internal/core"
	"lelantus/internal/sim"
	"lelantus/internal/stats"
	"lelantus/internal/workload"
)

// AblationNonSecure quantifies Section III-G: Lelantus applied to
// unencrypted memory. The counter-like blocks still enable fine-grained
// CoW; the remaining overhead versus a non-secure baseline is only the
// counter retrieval/update traffic (the paper estimates ~1.5% storage and
// negligible performance overhead).
func AblationNonSecure(o Options) (*Report, error) {
	t := stats.NewTable("Ablation — Lelantus on non-secure memory (Section III-G)",
		"config", "exec-ms", "nvm-writes", "speedup-vs-own-baseline")
	script := o.forkbench()
	modes := []bool{false, true}
	var jobs []sim.GridJob
	for _, nonSecure := range modes {
		mut := func(c *sim.Config) { c.Mem.Core.NonSecure = nonSecure }
		jobs = append(jobs,
			o.job(fmt.Sprintf("nonsecure=%v/baseline", nonSecure), core.Baseline, script, mut),
			o.job(fmt.Sprintf("nonsecure=%v/lelantus", nonSecure), core.Lelantus, script, mut))
	}
	results, err := o.runGrid(jobs)
	if err != nil {
		return nil, err
	}
	for i, nonSecure := range modes {
		base, lel := results[2*i], results[2*i+1]
		label := "secure"
		if nonSecure {
			label = "non-secure"
		}
		t.Add(label+"/baseline", float64(base.ExecNs)/1e6, base.NVMWrites, 1.0)
		t.Add(label+"/lelantus", float64(lel.ExecNs)/1e6, lel.NVMWrites, lel.SpeedupVs(base))
	}
	return &Report{
		ID:    "ablation-nonsecure",
		Title: "Lelantus without encryption",
		Table: t,
		Notes: []string{"the CoW advantage survives without encryption; only counter traffic remains as overhead"},
	}, nil
}

// AblationCoWCache sweeps the counter-cache slice reserved for CoW
// mappings in Lelantus-CoW (the paper reserves 32 KB of the 256 KB
// counter cache) and reports the resulting CoW-lookup miss rate.
func AblationCoWCache(o Options) (*Report, error) {
	t := stats.NewTable("Ablation — reserved CoW-metadata cache size (Lelantus-CoW)",
		"reserve", "cow-miss-rate", "exec-ms", "nvm-writes")
	script, err := o.script("redis", false)
	if err != nil {
		return nil, err
	}
	sweep := []uint64{1, 4, 32, 128}
	var jobs []sim.GridJob
	for _, kb := range sweep {
		jobs = append(jobs, o.job(fmt.Sprintf("cowcache/%dKB", kb), core.LelantusCoW, script,
			func(c *sim.Config) { c.Mem.CoWReserveBytes = kb << 10 }))
	}
	results, err := o.runGrid(jobs)
	if err != nil {
		return nil, err
	}
	for i, kb := range sweep {
		res := results[i]
		t.Add(fmt.Sprintf("%dKB", kb),
			fmt.Sprintf("%.4f", res.CoWMissRate),
			float64(res.ExecNs)/1e6, res.NVMWrites)
	}
	return &Report{
		ID:    "ablation-cowcache",
		Title: "CoW-metadata cache sizing",
		Table: t,
		Notes: []string{"paper default: 32KB (one 64B counter-cache slot hosts eight 8B mappings)"},
	}, nil
}

// AblationCtrCache sweeps the counter-cache capacity, the knob that
// governs how often CoW-page decryption re-fetches source counter blocks
// (Section III-C argues their locality keeps this cheap).
func AblationCtrCache(o Options) (*Report, error) {
	t := stats.NewTable("Ablation — counter cache size (Lelantus, redis)",
		"size", "ctr-miss-rate", "exec-ms")
	script, err := o.script("redis", false)
	if err != nil {
		return nil, err
	}
	sweep := []uint64{32, 64, 256, 1024}
	var jobs []sim.GridJob
	for _, kb := range sweep {
		jobs = append(jobs, o.job(fmt.Sprintf("ctrcache/%dKB", kb), core.Lelantus, script,
			func(c *sim.Config) { c.Mem.CtrCacheBytes = kb << 10 }))
	}
	results, err := o.runGrid(jobs)
	if err != nil {
		return nil, err
	}
	for i, kb := range sweep {
		t.Add(fmt.Sprintf("%dKB", kb),
			fmt.Sprintf("%.4f", results[i].CtrMissRate),
			float64(results[i].ExecNs)/1e6)
	}
	return &Report{
		ID:    "ablation-ctrcache",
		Title: "Counter cache sizing",
		Table: t,
	}, nil
}

// AblationTLB quantifies the huge-page translation benefit the paper's
// introduction motivates: random accesses over a footprint exceeding the
// 4 KB TLB reach (1536 entries x 4 KB = 6 MB) but trivially covered by a
// handful of 2 MB entries.
func AblationTLB(o Options) (*Report, error) {
	t := stats.NewTable("Ablation — TLB reach, 4KB vs 2MB pages",
		"page", "tlb-walks", "tlb-miss-rate", "exec-ms")
	modes := []bool{false, true}
	var jobs []sim.GridJob
	for _, huge := range modes {
		b := workload.NewBuilder("tlb-reach")
		regionBytes := uint64(16 << 20)
		lines := regionBytes / 64
		b.Spawn(0)
		b.Mmap(0, 0, regionBytes, huge)
		for off := uint64(0); off < regionBytes; off += 64 {
			b.Store(0, 0, off, 64, 0x1)
		}
		b.BeginMeasure()
		rng := rand.New(rand.NewSource(o.Seed))
		for i := 0; i < 50000; i++ {
			b.Load(0, 0, (rng.Uint64()%lines)*64, 8)
		}
		b.EndMeasure()
		b.Exit(0)
		jobs = append(jobs, o.job(fmt.Sprintf("tlb/huge=%v", huge), core.Lelantus, b.Script(), nil))
	}
	results, err := o.runGrid(jobs)
	if err != nil {
		return nil, err
	}
	for i, huge := range modes {
		res := results[i]
		label := "4KB"
		if huge {
			label = "2MB"
		}
		t.Add(label, res.TLBWalks,
			fmt.Sprintf("%.4f", float64(res.TLBWalks)/50000),
			float64(res.ExecNs)/1e6)
	}
	return &Report{
		ID:    "ablation-tlb",
		Title: "Huge-page TLB reach",
		Table: t,
		Notes: []string{"one 2MB entry covers 512 4KB translations (paper Section I)"},
	}, nil
}

// AblationWear measures write endurance: the hottest line's write count
// under each scheme for the forkbench (lifetime of a wear-limited NVM is
// set by its hottest line; the paper's write reductions translate
// directly into lifetime).
func AblationWear(o Options) (*Report, error) {
	t := stats.NewTable("Ablation — wear (hottest-line writes, forkbench)",
		"scheme", "max-wear", "nvm-writes")
	script := o.forkbench()
	var jobs []sim.GridJob
	for _, s := range core.Schemes() {
		jobs = append(jobs, o.job("wear/"+s.String(), s, script,
			func(c *sim.Config) { c.Mem.NVM.TrackWear = true }))
	}
	results, err := o.runGrid(jobs)
	if err != nil {
		return nil, err
	}
	for i, s := range core.Schemes() {
		t.Add(s.String(), results[i].MaxWear, results[i].NVMWrites)
	}
	return &Report{
		ID:    "ablation-wear",
		Title: "Write endurance",
		Table: t,
		Notes: []string{"fewer writes to the hottest line extend device lifetime proportionally"},
	}, nil
}

// UseCases runs the Section II-C extension scenarios (snapshot
// checkpointing, VM cloning with KSM) across all schemes: the use cases
// the paper motivates but does not benchmark directly.
func UseCases(o Options) (*Report, error) {
	t := stats.NewTable("Extension — Section II-C use cases",
		"scenario", "scheme", "exec-ms", "nvm-writes", "speedup", "writes%")
	specs := workload.UseCases()
	schemes := core.Schemes()
	var jobs []sim.GridJob
	for _, spec := range specs {
		script := spec.Build(false, o.Seed)
		for _, s := range schemes {
			jobs = append(jobs, o.job(fmt.Sprintf("usecase/%s/%v", spec.Name, s), s, script, nil))
		}
	}
	results, err := o.runGrid(jobs)
	if err != nil {
		return nil, err
	}
	for wi, spec := range specs {
		base := results[wi*len(schemes)]
		for si, s := range schemes {
			res := results[wi*len(schemes)+si]
			t.Add(spec.Name, s.String(),
				float64(res.ExecNs)/1e6, res.NVMWrites,
				res.SpeedupVs(base), 100*res.WriteReductionVs(base))
		}
	}
	return &Report{
		ID:    "usecases",
		Title: "Snapshot and VM-clone scenarios",
		Table: t,
		Notes: []string{
			"snapshot reports the application's own latency; machine-wide writes can exceed the Baseline's when snapshot children die quickly (deferred copies materialise at reclaim, plus metadata writes) — the trade-off behind the paper's 'not delaying page free' discussion",
		},
	}, nil
}

// AblationWriteQueue places a merging write queue in front of the device
// (Section IV-C: "this delay enables the memory controller to merge more
// writes and copies in the request queue"). The sharpest case is a
// write-through counter cache: every store re-writes its page's counter
// block, and the queue's same-line merging absorbs most of that stream —
// recovering much of the battery-backed write-back mode's advantage
// without the battery.
func AblationWriteQueue(o Options) (*Report, error) {
	t := stats.NewTable("Ablation — merging write queue (redis, write-through counters)",
		"scheme", "queue", "device-writes", "merged", "exec-ms")
	script, err := o.script("redis", false)
	if err != nil {
		return nil, err
	}
	rowSchemes := []core.Scheme{core.Baseline, core.Lelantus}
	queueModes := []bool{false, true}
	merged := make([]uint64, len(rowSchemes)*len(queueModes))
	var jobs []sim.GridJob
	for _, s := range rowSchemes {
		for _, withQueue := range queueModes {
			slot := len(jobs)
			job := o.job(fmt.Sprintf("writequeue/%v/queue=%v", s, withQueue), s, script,
				func(c *sim.Config) {
					c.Mem.CtrCacheMode = ctrcache.WriteThrough
					if withQueue {
						qcfg := nvm.DefaultQueueConfig()
						c.Mem.WriteQueue = &qcfg
					}
				})
			if withQueue {
				job.After = func(m *sim.Machine, _ sim.Result) {
					merged[slot] = m.Ctl.Queue.Merged
				}
			}
			jobs = append(jobs, job)
		}
	}
	results, err := o.runGrid(jobs)
	if err != nil {
		return nil, err
	}
	next := 0
	for _, s := range rowSchemes {
		for _, withQueue := range queueModes {
			res := results[next]
			label := "off"
			if withQueue {
				label = "on"
			}
			t.Add(s.String(), label, res.NVMWrites, merged[next], float64(res.ExecNs)/1e6)
			next++
		}
	}
	return &Report{
		ID:    "ablation-writequeue",
		Title: "Write-queue merging",
		Table: t,
	}, nil
}
