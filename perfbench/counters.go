package main

import (
	"fmt"
	"math"

	"lelantus/internal/metrics"
	"lelantus/internal/probe"
	"lelantus/internal/sim"
	"lelantus/internal/workload"
)

// counters are the exported simulated-hardware counters the per-layer
// metrics read. All of them are monotone except the histograms' Max, which
// only bounds the percentile lookups.
type counters struct {
	l1Hits, l1Misses, l3Hits, l3Misses uint64
	wpFaults, tlbWalks                 uint64
	demand, copyT, initT               uint64
	bmtUpdates, bmtVerifies, pads      uint64
	overflows, redirects, chainHops    uint64
	pfIssued, pfUseful, pfLate         uint64
	ctrHits, ctrMisses                 uint64
	cowHits, cowMisses                 uint64
	rowHits, rowMisses                 uint64
	nvmWrites                          uint64

	readLat, writeLat, faultLat metrics.Hist
	mshr                        probe.LinHist
}

func snapshot(m *sim.Machine) counters {
	ctl, eng, k := m.Ctl, m.Ctl.Engine, m.Kern
	demand, copyT, initT := ctl.TrafficByContext()
	pl := m.Probe()
	return counters{
		l1Hits: ctl.Caches.L1.Hits, l1Misses: ctl.Caches.L1.Misses,
		l3Hits: ctl.Caches.L3.Hits, l3Misses: ctl.Caches.L3.Misses,
		wpFaults: k.Stats.ZeroFaults + k.Stats.CoWFaults + k.Stats.ReuseFaults,
		tlbWalks: k.TLBWalks(),
		demand:   demand, copyT: copyT, initT: initT,
		bmtUpdates: eng.Tree.Updates, bmtVerifies: eng.Tree.Verifies(),
		pads:      eng.Enc.Pads,
		overflows: eng.Stats.Overflows, redirects: eng.Stats.Redirects, chainHops: eng.Stats.ChainHops,
		pfIssued: eng.Stats.PrefetchIssued, pfUseful: eng.Stats.PrefetchUseful, pfLate: eng.Stats.PrefetchLate,
		ctrHits: eng.CtrCache.Hits, ctrMisses: eng.CtrCache.Misses,
		cowHits: eng.CoWCache.Hits, cowMisses: eng.CoWCache.Misses,
		rowHits: ctl.Dev.RowHits, rowMisses: ctl.Dev.RowMisses,
		nvmWrites: ctl.Dev.Writes,
		readLat:   pl.Latency(probe.EvRead),
		writeLat:  pl.Latency(probe.EvWrite),
		faultLat:  pl.Latency(probe.EvKernelFault),
		mshr:      pl.MSHROccupancy(),
	}
}

// combine returns c + sign*o field by field (sign is +1 or -1). Histogram
// maxima are not differenced: the later maximum stays as the bound.
func (c counters) combine(o counters, sign int) counters {
	f := func(a, b uint64) uint64 {
		if sign < 0 {
			return a - b
		}
		return a + b
	}
	h := func(a, b metrics.Hist) metrics.Hist {
		for i := range a.Buckets {
			a.Buckets[i] = f(a.Buckets[i], b.Buckets[i])
		}
		a.Count, a.Sum, a.Max = f(a.Count, b.Count), f(a.Sum, b.Sum), max(a.Max, b.Max)
		return a
	}
	lh := func(a, b probe.LinHist) probe.LinHist {
		for i := range a.Buckets {
			a.Buckets[i] = f(a.Buckets[i], b.Buckets[i])
		}
		a.Count, a.Sum, a.Max = f(a.Count, b.Count), f(a.Sum, b.Sum), max(a.Max, b.Max)
		return a
	}
	return counters{
		l1Hits: f(c.l1Hits, o.l1Hits), l1Misses: f(c.l1Misses, o.l1Misses),
		l3Hits: f(c.l3Hits, o.l3Hits), l3Misses: f(c.l3Misses, o.l3Misses),
		wpFaults: f(c.wpFaults, o.wpFaults), tlbWalks: f(c.tlbWalks, o.tlbWalks),
		demand: f(c.demand, o.demand), copyT: f(c.copyT, o.copyT), initT: f(c.initT, o.initT),
		bmtUpdates: f(c.bmtUpdates, o.bmtUpdates), bmtVerifies: f(c.bmtVerifies, o.bmtVerifies),
		pads:      f(c.pads, o.pads),
		overflows: f(c.overflows, o.overflows), redirects: f(c.redirects, o.redirects),
		chainHops: f(c.chainHops, o.chainHops),
		pfIssued:  f(c.pfIssued, o.pfIssued), pfUseful: f(c.pfUseful, o.pfUseful), pfLate: f(c.pfLate, o.pfLate),
		ctrHits: f(c.ctrHits, o.ctrHits), ctrMisses: f(c.ctrMisses, o.ctrMisses),
		cowHits: f(c.cowHits, o.cowHits), cowMisses: f(c.cowMisses, o.cowMisses),
		rowHits: f(c.rowHits, o.rowHits), rowMisses: f(c.rowMisses, o.rowMisses),
		nvmWrites: f(c.nvmWrites, o.nvmWrites),
		readLat:   h(c.readLat, o.readLat), writeLat: h(c.writeLat, o.writeLat),
		faultLat: h(c.faultLat, o.faultLat),
		mshr:     lh(c.mshr, o.mshr),
	}
}

// measureMarks returns the indexes of the script's BeginMeasure and
// EndMeasure ops: the start and end of the measured phase. A script
// without markers measures from its first op to its last.
func measureMarks(s workload.Script) (begin, end int) {
	begin, end = -1, len(s.Ops)-1
	for i, op := range s.Ops {
		switch op.Kind {
		case workload.OpBeginMeasure:
			begin = i
		case workload.OpEndMeasure:
			end = i
		}
	}
	return begin, end
}

// prefix runs the script's ops [0, n] on a fresh probe-attached machine and
// returns the counters it leaves behind. Machine.Run quiesces (drains the
// caches and metadata) at each measure marker and again at the end of the
// script, so a prefix ending on a marker leaves exactly the counters the
// full run holds at that marker.
func prefix(cfg sim.Config, s workload.Script, n int) (counters, sim.Result, error) {
	cfg.Mem.Probe = probe.New(probe.Config{RingCap: 1})
	m, err := sim.NewMachine(cfg)
	if err != nil {
		return counters{}, sim.Result{}, err
	}
	if n < 0 {
		return snapshot(m), sim.Result{}, nil
	}
	cut := s
	cut.Ops = s.Ops[:n+1]
	res, err := m.Run(cut)
	if err != nil {
		return counters{}, sim.Result{}, err
	}
	return snapshot(m), res, nil
}

// measuredCounters returns the counters of the script's measured phase
// alone: the counters at EndMeasure minus those at BeginMeasure, each taken
// from a run of the script cut at that marker. The cut at EndMeasure must
// reproduce want, the full run's measured result, write for write: a
// mismatch means the cut runs did not replay the measured phase, and the
// counters are rejected.
func measuredCounters(cfg sim.Config, s workload.Script, want sim.Result) (counters, error) {
	begin, end := measureMarks(s)
	atBegin, _, err := prefix(cfg, s, begin)
	if err != nil {
		return counters{}, err
	}
	atEnd, res, err := prefix(cfg, s, end)
	if err != nil {
		return counters{}, err
	}
	d := atEnd.combine(atBegin, -1)
	if res.ExecNs != want.ExecNs || res.NVMWrites != want.NVMWrites || d.nvmWrites != want.NVMWrites {
		return counters{}, fmt.Errorf("%s: measured-phase replay diverged (exec %d/%d ns, writes %d/%d/%d)",
			s.Name, res.ExecNs, want.ExecNs, d.nvmWrites, res.NVMWrites, want.NVMWrites)
	}
	return d, nil
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// linPercentile returns the q-th percentile of a linear histogram (bucket i
// holds the value i; the top bucket is open).
func linPercentile(h probe.LinHist, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(float64(h.Count) * q / 100))
	var cum uint64
	for i, n := range h.Buckets {
		if cum += n; cum >= rank {
			return float64(i)
		}
	}
	return float64(len(h.Buckets) - 1)
}

// layerCounters renders the simulated per-layer metrics.
func (c counters) layerCounters() map[string]float64 {
	return map[string]float64{
		"cache.l1_miss_ratio":      ratio(c.l1Misses, c.l1Hits+c.l1Misses),
		"cache.l3_miss_ratio":      ratio(c.l3Misses, c.l3Hits+c.l3Misses),
		"kernel.wp_faults":         float64(c.wpFaults),
		"tlb.walks":                float64(c.tlbWalks),
		"memctrl.copy_init_share":  ratio(c.copyT+c.initT, c.demand+c.copyT+c.initT),
		"bmt.updates":              float64(c.bmtUpdates),
		"bmt.verifies":             float64(c.bmtVerifies),
		"enc.pads":                 float64(c.pads),
		"ctr.overflows":            float64(c.overflows),
		"ctrcache.miss_ratio":      ratio(c.ctrMisses, c.ctrHits+c.ctrMisses),
		"ctrcache.cow_miss_ratio":  ratio(c.cowMisses, c.cowHits+c.cowMisses),
		"core.redirects":           float64(c.redirects),
		"core.chain_hops":          float64(c.chainHops),
		"nvm.row_hit_ratio":        ratio(c.rowHits, c.rowHits+c.rowMisses),
		"prefetch.useful_ratio":    ratio(c.pfUseful, c.pfIssued),
		"prefetch.late_ratio":      ratio(c.pfLate, c.pfIssued),
		"memctrl.read_p99_sim_ns":  float64(c.readLat.Percentile(99)),
		"memctrl.write_p99_sim_ns": float64(c.writeLat.Percentile(99)),
		"kernel.fault_p99_sim_ns":  float64(c.faultLat.Percentile(99)),
		"nvm.mshr_occupancy_p99":   linPercentile(c.mshr, 99),
	}
}
