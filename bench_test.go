// Benchmark harness: one testing.B target per table/figure of the paper's
// evaluation (see DESIGN.md Section 6). Each iteration regenerates the
// experiment at quick scale; custom metrics expose the simulated results
// so `go test -bench=.` doubles as a shape check against the paper.
// cmd/lelantus-bench runs the same experiments at full scale.
package lelantus

import (
	"errors"
	"fmt"
	"os"
	"testing"

	"lelantus/internal/core"
	"lelantus/internal/experiments"
	"lelantus/internal/probe"
	"lelantus/internal/sim"
	"lelantus/internal/workload"
)

// benchKnobs is the machine every benchmark runs on: memBytes of NVM under
// the knobs in the LELANTUS_KNOBS environment variable, in sim.Knobs's
// canonical text form (e.g. "fidelity=timing,mlp=on,prefetch=both"; unset
// is the default machine). `make bench-json KNOBS=...` sets it, so every
// BENCH_*.json file carries the same benchmark names and `benchjson
// -compare` lines the files up cell by cell.
func benchKnobs(memBytes uint64) sim.Knobs {
	k := sim.Knobs{MemBytes: memBytes}
	if err := k.Parse(os.Getenv("LELANTUS_KNOBS")); err != nil {
		panic("LELANTUS_KNOBS: " + err.Error())
	}
	return k
}

// benchConfig is a scheme's default machine with benchKnobs applied.
func benchConfig(s core.Scheme, memBytes uint64) sim.Config {
	cfg := sim.DefaultConfig(s)
	benchKnobs(memBytes).Apply(&cfg)
	return cfg
}

func quickOpts() experiments.Options {
	o := experiments.DefaultOptions()
	o.Quick = true
	o.Knobs = benchKnobs(256 << 20)
	return o
}

func benchReport(b *testing.B, f func(experiments.Options) (*experiments.Report, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := f(quickOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2 regenerates the motivation write-amplification figure.
func BenchmarkFig2(b *testing.B) { benchReport(b, experiments.Fig2) }

// BenchmarkTableI regenerates the encoding-scheme comparison.
func BenchmarkTableI(b *testing.B) { benchReport(b, experiments.TableI) }

// BenchmarkFig9 regenerates the application speedup/write-reduction study,
// one sub-benchmark per (workload, scheme, page size) cell with the
// simulated time and NVM writes exposed as metrics.
func BenchmarkFig9(b *testing.B) {
	o := quickOpts()
	for _, huge := range []bool{false, true} {
		mode := "4KB"
		if huge {
			mode = "2MB"
		}
		for _, spec := range workload.Catalogue() {
			var script workload.Script
			if spec.Name == "forkbench" {
				p := workload.DefaultForkbench(huge)
				p.RegionBytes = 4 << 20
				script = workload.Forkbench(p)
			} else {
				script = spec.Build(huge, o.Seed)
			}
			for _, s := range core.Schemes() {
				b.Run(mode+"/"+spec.Name+"/"+s.String(), func(b *testing.B) {
					var last sim.Result
					for i := 0; i < b.N; i++ {
						cfg := sim.DefaultConfig(s)
						o.Apply(&cfg)
						res, err := sim.RunWith(cfg, script)
						if err != nil {
							b.Fatal(err)
						}
						last = res
					}
					b.ReportMetric(float64(last.ExecNs), "sim-ns")
					b.ReportMetric(float64(last.NVMWrites), "nvm-writes")
				})
			}
		}
	}
}

// BenchmarkFig10 regenerates the overflow/CoW-cache/footprint diagnostics.
func BenchmarkFig10(b *testing.B) { benchReport(b, experiments.Fig10) }

// BenchmarkTableV regenerates the copy/init traffic-share table.
func BenchmarkTableV(b *testing.B) { benchReport(b, experiments.TableV) }

// BenchmarkFig11 regenerates the forkbench sensitivity sweep, one
// sub-benchmark per page size.
func BenchmarkFig11(b *testing.B) {
	b.Run("4KB", func(b *testing.B) {
		benchReport(b, func(o experiments.Options) (*experiments.Report, error) {
			return experiments.Fig11(o, false)
		})
	})
	b.Run("2MB", func(b *testing.B) {
		benchReport(b, func(o experiments.Options) (*experiments.Report, error) {
			return experiments.Fig11(o, true)
		})
	})
}

// BenchmarkFig12 regenerates the counter write-strategy study.
func BenchmarkFig12(b *testing.B) { benchReport(b, experiments.Fig12) }

// BenchmarkGridRun measures the worker-pool fan-out over the full
// scheme × workload grid at several worker counts; on a multi-core host
// throughput scales with the pool because machines share no state.
func BenchmarkGridRun(b *testing.B) {
	o := quickOpts()
	var jobs []sim.GridJob
	for _, spec := range workload.Catalogue() {
		var script workload.Script
		if spec.Name == "forkbench" {
			p := workload.DefaultForkbench(false)
			p.RegionBytes = 4 << 20
			script = workload.Forkbench(p)
		} else {
			script = spec.Build(false, o.Seed)
		}
		for _, s := range core.Schemes() {
			cfg := sim.DefaultConfig(s)
			o.Apply(&cfg)
			jobs = append(jobs, sim.GridJob{
				Tag:    spec.Name + "/" + s.String(),
				Config: cfg,
				Script: script,
			})
		}
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, errs := sim.RunGridErrs(jobs, workers); errors.Join(errs...) != nil {
					b.Fatal(errors.Join(errs...))
				}
			}
		})
	}
}

// benchEngine builds a machine and warms a small working set: every line of
// pages 4..7 is written once, so counter blocks are cached, MAC entries
// exist and the written marks are set — the steady state the hot-path
// allocation budget is defined over (see DESIGN.md "Performance model").
func benchEngine(b *testing.B, s core.Scheme) (*core.Engine, []uint64) {
	b.Helper()
	cfg := benchConfig(s, 64<<20)
	m, err := sim.NewMachine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	e := m.Ctl.Engine
	var addrs []uint64
	var plain [64]byte
	plain[0] = 0x5A
	for pfn := uint64(4); pfn < 8; pfn++ {
		for i := 0; i < 64; i++ {
			addr := pfn<<12 | uint64(i)<<6
			if _, err := e.WriteLine(0, addr, &plain); err != nil {
				b.Fatal(err)
			}
			addrs = append(addrs, addr)
		}
	}
	return e, addrs
}

// BenchmarkReadLine measures the steady-state engine read path per scheme
// (counter cache hot, line resident): MAC verification plus pad generation
// and decryption. With -benchmem this is the allocation-budget check — the
// steady state must run at ~0 allocs/op.
func BenchmarkReadLine(b *testing.B) {
	for _, s := range core.Schemes() {
		b.Run(s.String(), func(b *testing.B) {
			e, addrs := benchEngine(b, s)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := e.ReadLine(0, addrs[i%len(addrs)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWriteLine measures the steady-state engine write path per scheme:
// pad generation, encryption, MAC update and the counter-block store.
// Rotating over 256 warm lines keeps minor-counter overflows rare, so the
// occasional page re-encryption amortises to ~0 allocs/op.
func BenchmarkWriteLine(b *testing.B) {
	for _, s := range core.Schemes() {
		b.Run(s.String(), func(b *testing.B) {
			e, addrs := benchEngine(b, s)
			var plain [64]byte
			plain[0] = 0xA5
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.WriteLine(0, addrs[i%len(addrs)], &plain); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPageCopyCommand measures the metadata-only page_copy versus a
// full 64-line copy — the microarchitectural heart of the paper.
func BenchmarkPageCopyCommand(b *testing.B) {
	b.Run("page_copy", func(b *testing.B) {
		cfg := benchConfig(core.Lelantus, 64<<20)
		m, err := sim.NewMachine(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Ctl.Store(0, 4096, []byte{1}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst := uint64(2 + i%1000)
			if _, err := m.Ctl.PageCopy(0, 1, dst); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full_copy", func(b *testing.B) {
		cfg := benchConfig(core.Baseline, 64<<20)
		m, err := sim.NewMachine(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Ctl.Store(0, 4096, []byte{1}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst := uint64(2 + i%1000)
			if _, err := m.Ctl.CopyPageFull(0, 1, dst, true); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPagePhyc measures the deferred physical-copy command — the
// copy-heavy cell the batched MLP chain walk targets. Each iteration plants
// a metadata-only page_copy and then materialises it line by line with
// page_phyc, so the chain walk, the per-line reads and the destination
// writes are all on the measured path.
func BenchmarkPagePhyc(b *testing.B) {
	for _, s := range []core.Scheme{core.Lelantus, core.LelantusCoW} {
		b.Run(s.String(), func(b *testing.B) {
			cfg := benchConfig(s, 64<<20)
			m, err := sim.NewMachine(cfg)
			if err != nil {
				b.Fatal(err)
			}
			var line [64]byte
			line[0] = 0x5A
			for i := 0; i < 64; i++ {
				if _, err := m.Ctl.StoreNT(0, 1<<12|uint64(i)<<6, &line); err != nil {
					b.Fatal(err)
				}
			}
			var simNs uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst := uint64(2 + i%1000)
				ct, err := m.Ctl.PageCopy(0, 1, dst)
				if err != nil {
					b.Fatal(err)
				}
				pt, _, err := m.Ctl.PagePhyc(0, 1, dst)
				if err != nil {
					b.Fatal(err)
				}
				simNs += ct + pt
			}
			b.ReportMetric(float64(simNs)/float64(b.N), "sim-ns")
		})
	}
}

// BenchmarkChainHeavy measures the redirect-chain-heavy cells the metadata
// prefetch engine targets, at a working-set scale where it can matter: the
// quick Fig9 cells fit the counter cache whole, so any prefetcher is inert
// there by construction. A full-size forkbench and a shell with a 32 MB
// image both exceed the cache and take capacity misses on every pass over
// their redirected pages; the simulated time lands in sim-ns so `benchjson
// -compare -metric sim-ns` against BENCH_mlp.json shows the prefetch delta.
func BenchmarkChainHeavy(b *testing.B) {
	sp := workload.DefaultShell(false)
	sp.Seed = 1
	sp.ImageBytes = 32 << 20
	sp.Spawns = 4
	sp.Scan = true // the find pass: reads that resolve the fresh redirects
	cells := []struct {
		name   string
		script workload.Script
	}{
		{"forkbench", workload.Forkbench(workload.DefaultForkbench(false))},
		{"shell-32MB", workload.ShellWith(sp)},
	}
	for _, c := range cells {
		for _, s := range []core.Scheme{core.Lelantus, core.LelantusCoW} {
			b.Run(c.name+"/"+s.String(), func(b *testing.B) {
				var last sim.Result
				for i := 0; i < b.N; i++ {
					cfg := benchConfig(s, 256<<20)
					res, err := sim.RunWith(cfg, c.script)
					if err != nil {
						b.Fatal(err)
					}
					last = res
				}
				b.ReportMetric(float64(last.ExecNs), "sim-ns")
				b.ReportMetric(float64(last.Engine.PrefetchUseful), "pf-useful")
			})
		}
	}
}

// BenchmarkTailLatency runs forkbench on a probe-attached machine and
// reports the read/write tail-latency percentiles (simulated nanoseconds,
// from the log-linear per-class histograms) as ReportMetric columns, so
// `benchjson -compare -metric read-p99-ns -filter TailLatency` diffs the
// tail of the latency distribution — the quantity mean-based columns like
// sim-ns can't see — across committed baselines. Percentiles are
// simulated-time and deterministic, so the columns are diff-stable.
func BenchmarkTailLatency(b *testing.B) {
	script := workload.Forkbench(workload.DefaultForkbench(false))
	for _, s := range []core.Scheme{core.Lelantus, core.LelantusCoW} {
		b.Run(s.String(), func(b *testing.B) {
			var pl *probe.Plane
			for i := 0; i < b.N; i++ {
				cfg := benchConfig(s, 256<<20)
				pl = probe.New(probe.Config{RingCap: 1})
				cfg.Mem.Probe = pl
				if _, err := sim.RunWith(cfg, script); err != nil {
					b.Fatal(err)
				}
			}
			rd := pl.Latency(probe.EvRead)
			wr := pl.Latency(probe.EvWrite)
			rp := rd.Percentiles(50, 99, 99.9)
			wp := wr.Percentiles(50, 99, 99.9)
			b.ReportMetric(float64(rp[0]), "read-p50-ns")
			b.ReportMetric(float64(rp[1]), "read-p99-ns")
			b.ReportMetric(float64(rp[2]), "read-p999-ns")
			b.ReportMetric(float64(wp[0]), "write-p50-ns")
			b.ReportMetric(float64(wp[1]), "write-p99-ns")
			b.ReportMetric(float64(wp[2]), "write-p999-ns")
		})
	}
}

// BenchmarkOverflowSweep measures the minor-counter overflow re-encryption
// sweep: hammering one line overflows its minor counter every few stores,
// so the 64-line page re-encryption dominates — the sweep-heavy cell the
// batched MLP path targets.
func BenchmarkOverflowSweep(b *testing.B) {
	for _, s := range []core.Scheme{core.Lelantus, core.LelantusCoW} {
		b.Run(s.String(), func(b *testing.B) {
			e, addrs := benchEngine(b, s)
			var plain [64]byte
			var simNs uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				plain[0] = byte(i)
				wt, err := e.WriteLine(0, addrs[0], &plain)
				if err != nil {
					b.Fatal(err)
				}
				simNs += wt
			}
			b.ReportMetric(float64(e.Stats.Overflows)/float64(b.N), "overflows/op")
			b.ReportMetric(float64(simNs)/float64(b.N), "sim-ns")
		})
	}
}

// BenchmarkRecoveryScrub measures the post-crash metadata scrub over a
// machine with a real working set: counter-block scan, tree re-verify,
// chain-invariant walk and the per-line MAC scrub — the recovery cell the
// pooled MLP passes target. The same working set runs on a 64 MiB machine
// and, in the -16GiB cells, on the grid's default capacity: the scrub's
// host cost should follow the working set, not the capacity (sim-ns does
// grow with it, through Lelantus-CoW's table scan and the tree height).
func BenchmarkRecoveryScrub(b *testing.B) {
	sizes := []struct {
		suffix string
		bytes  uint64
	}{{"", 64 << 20}, {"-16GiB", 16 << 30}}
	for _, size := range sizes {
		for _, s := range []core.Scheme{core.Lelantus, core.LelantusCoW} {
			b.Run(s.String()+size.suffix, func(b *testing.B) {
				benchRecoveryScrub(b, benchConfig(s, size.bytes))
			})
		}
	}
}

// benchRecoveryScrub stores to 64 pages, copies one of them to 16 more,
// crashes with a battery-backed drain and times the scrub alone.
func benchRecoveryScrub(b *testing.B, cfg sim.Config) {
	m, err := sim.NewMachine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var line [64]byte
	line[0] = 0x5A
	for pfn := uint64(1); pfn <= 64; pfn++ {
		for i := 0; i < 64; i += 4 {
			if _, err := m.Ctl.StoreNT(0, pfn<<12|uint64(i)<<6, &line); err != nil {
				b.Fatal(err)
			}
		}
	}
	for dst := uint64(100); dst < 116; dst++ {
		if _, err := m.Ctl.PageCopy(0, 1, dst); err != nil {
			b.Fatal(err)
		}
	}
	if err := m.Ctl.Crash(1<<30, true); err != nil {
		b.Fatal(err)
	}
	var simNs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := m.Ctl.Recover()
		if err != nil {
			b.Fatal(err)
		}
		simNs += rep.RecoveryNs
	}
	b.ReportMetric(float64(simNs)/float64(b.N), "sim-ns")
}
