// Command lelantus-sim runs one workload under one CoW scheme and prints
// the detailed measurements of its measured phase.
//
// Usage:
//
//	lelantus-sim -workload forkbench -scheme lelantus
//	lelantus-sim -workload redis -scheme baseline -huge
//	lelantus-sim -workload redis -all -parallel 4
//	lelantus-sim -workload forkbench -faultseed 7 -faultpoints
//	lelantus-sim -workload forkbench -faultseed 7 -crashpoint 120
//	lelantus-sim -workload forkbench -scheme lelantus-cow -persist phoenix
//	lelantus-sim -workload forkbench -scheme lelantus -mlp=on -mshrs 16 -banks 16
//	lelantus-sim -workload forkbench -scheme lelantus-cow -prefetch=both -prefetch-depth 8
//	lelantus-sim -workload forkbench -probe -probe-format=perfetto -probe-out trace.json
//	lelantus-sim -probe-check trace.json
//	lelantus-sim -list
//
// Exit codes: 0 success, 1 runtime failure (or recovery violations under
// -crashpoint), 2 flag/usage errors — an invalid -scheme/-probe-format
// value, machine-knob spelling or negative knob count is a one-line
// diagnosis, not a partial run. The machine knobs are DESIGN.md §18's.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"lelantus"
	"lelantus/internal/hostprof"
	"lelantus/internal/probe"
	"lelantus/internal/trace"
	"lelantus/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run carries the whole program so the profile-flushing defers execute on
// every exit path (os.Exit in main would skip them) and so the flag-
// hardening tests can drive it in-process with their own streams.
func run(args []string, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintf(stderr, "lelantus-sim: %v\n", err)
		return 1
	}
	// badFlag is for values the flag package accepts syntactically but the
	// simulator's parsers reject: usage errors, exit 2, one line.
	badFlag := func(err error) int {
		fmt.Fprintf(stderr, "lelantus-sim: %v\n", err)
		return 2
	}

	fs := flag.NewFlagSet("lelantus-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "forkbench", "workload name (see -list)")
	schemeName := fs.String("scheme", "lelantus", "baseline | silent-shredder | lelantus | lelantus-cow")
	huge := fs.Bool("huge", false, "use 2MB huge pages")
	seed := fs.Int64("seed", 1, "workload generator seed")
	var knobs lelantus.Knobs
	checkKnobs := knobs.RegisterFlags(fs)
	compare := fs.Bool("compare", false, "also run the baseline and report speedup")
	all := fs.Bool("all", false, "run the workload under every scheme and compare")
	parallel := fs.Int("parallel", 0, "worker pool for -all (0 = all CPUs); output is identical at any setting")
	list := fs.Bool("list", false, "list workloads and exit")
	record := fs.String("record", "", "write the workload script to this file and exit")
	replay := fs.String("replay", "", "run a script recorded with -record instead of -workload")
	disasm := fs.Bool("disasm", false, "print the first 40 ops of the script before running")
	asJSON := fs.Bool("json", false, "emit the result as JSON instead of text")
	faultSeed := fs.Int64("faultseed", 1, "deterministic fault-injection seed (picks how many words of the crashed write land)")
	crashPoint := fs.Uint64("crashpoint", 0, "crash at this persist point, power-cycle and print the recovery report (0 = off)")
	faultPoints := fs.Bool("faultpoints", false, "count the script's persist points (the -crashpoint index space) and exit")
	probeOn := fs.Bool("probe", false, "attach the observability plane and export it after the run")
	probeOut := fs.String("probe-out", "probe.json", "file the probe export is written to")
	probeFormat := fs.String("probe-format", "summary", "summary | perfetto (deterministic JSON summary, or a Chrome trace-event file for ui.perfetto.dev)")
	probeSampleNs := fs.Uint64("probe-sample-ns", 1_000_000, "simulated-time interval between probe counter samples (0 = no time series)")
	probeCheck := fs.String("probe-check", "", "validate a Perfetto trace file emitted with -probe-format=perfetto and exit")
	prof := hostprof.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// Every flag value is validated up front, before any run, file write or
	// profile starts: a typo diagnoses in one line and touches nothing.
	scheme, err := lelantus.ParseScheme(*schemeName)
	if err != nil {
		return badFlag(err)
	}
	if err := checkKnobs(); err != nil {
		return badFlag(err)
	}
	if *parallel < 0 {
		return badFlag(fmt.Errorf("-parallel %d: must be >= 0 (0 = all CPUs)", *parallel))
	}
	switch *probeFormat {
	case "summary", "perfetto":
	default:
		return badFlag(fmt.Errorf("unknown -probe-format %q (want summary or perfetto)", *probeFormat))
	}

	if *list {
		for _, spec := range lelantus.Workloads() {
			fmt.Fprintf(stdout, "%-10s %s\n", spec.Name, spec.Description)
		}
		return 0
	}
	if *probeCheck != "" {
		data, err := os.ReadFile(*probeCheck)
		if err != nil {
			return fail(err)
		}
		if err := probe.ValidateTrace(data); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s: valid Chrome trace-event JSON (%d bytes)\n", *probeCheck, len(data))
		return 0
	}

	stopProf, err := prof.Start(stderr, "lelantus-sim")
	if err != nil {
		return fail(err)
	}
	defer stopProf()

	var script workload.Script
	if *replay != "" {
		f, err := os.Open(*replay)
		if err != nil {
			return fail(err)
		}
		script, err = trace.Read(f)
		f.Close()
		if err != nil {
			return fail(err)
		}
	} else {
		spec, err := lelantus.WorkloadByName(*wl)
		if err != nil {
			return badFlag(err)
		}
		script = spec.Build(*huge, *seed)
	}
	if *record != "" {
		f, err := os.Create(*record)
		if err != nil {
			return fail(err)
		}
		if err := trace.Write(f, script); err != nil {
			return fail(err)
		}
		if err := f.Close(); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "recorded %d ops to %s\n", len(script.Ops), *record)
		return 0
	}
	if *disasm {
		trace.Disassemble(stdout, script, 40)
	}
	// machineCfg stamps the knobs onto a scheme's default config; each run
	// site (single, -compare baseline, -all grid) goes through it.
	machineCfg := func(s lelantus.Scheme) lelantus.Config {
		c := lelantus.DefaultConfig(s)
		knobs.Apply(&c)
		return c
	}

	if *all {
		if *probeOn {
			return badFlag(fmt.Errorf("-probe traces a single machine; it cannot be combined with -all"))
		}
		return runAll(script, machineCfg, *parallel, *asJSON, stdout, stderr)
	}

	var pl *lelantus.Probe
	if *probeOn {
		pl = lelantus.NewProbe(lelantus.ProbeConfig{SampleNs: *probeSampleNs})
	}

	cfg := machineCfg(scheme)
	cfg.Mem.Probe = pl

	if *faultPoints {
		n, err := lelantus.CrashPoints(cfg, script, *faultSeed)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%d persist points (crash index space 1..%d)\n", n, n)
		return 0
	}
	if *crashPoint > 0 {
		cell, err := lelantus.CrashAt(cfg, script, *faultSeed, *crashPoint)
		if err != nil {
			return fail(err)
		}
		if *asJSON {
			enc := json.NewEncoder(stdout)
			enc.SetIndent("", " ")
			if err := enc.Encode(cell); err != nil {
				return fail(err)
			}
		} else {
			fmt.Fprintf(stdout, "crashed at persist point %d (%v)\n", cell.Point, cell.At)
			fmt.Fprintln(stdout, cell.Report)
			for _, v := range cell.Violations {
				fmt.Fprintf(stdout, "VIOLATION: %s\n", v)
			}
		}
		if rc := exportProbe(pl, *probeOut, *probeFormat, stderr); rc != 0 {
			return rc
		}
		if len(cell.Violations) > 0 {
			return 1
		}
		return 0
	}

	res, err := lelantus.RunWith(cfg, script)
	if err != nil {
		return fail(err)
	}

	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", " ")
		if err := enc.Encode(res); err != nil {
			return fail(err)
		}
		return exportProbe(pl, *probeOut, *probeFormat, stderr)
	}

	fmt.Fprintf(stdout, "workload   %s\n", script.Name)
	fmt.Fprintf(stdout, "scheme     %v\n", scheme)
	fmt.Fprintf(stdout, "exec       %.3f ms (simulated)\n", float64(res.ExecNs)/1e6)
	fmt.Fprintf(stdout, "nvm        %d reads, %d writes\n", res.NVMReads, res.NVMWrites)
	fmt.Fprintf(stdout, "  data     %d reads, %d writes\n", res.Engine.DataReads, res.Engine.DataWrites)
	fmt.Fprintf(stdout, "  counters %d reads, %d writes\n", res.Engine.CtrReads, res.Engine.CtrWrites)
	fmt.Fprintf(stdout, "  cow-meta %d reads, %d writes\n", res.Engine.CoWMetaReads, res.Engine.CoWMetaWrite)
	fmt.Fprintf(stdout, "cpu        %d loads, %d stores\n", res.CPUReads, res.CPUWrites)
	fmt.Fprintf(stdout, "kernel     %d forks, %d CoW faults, %d zero faults, %d reuse faults\n",
		res.Kernel.Forks, res.Kernel.CoWFaults, res.Kernel.ZeroFaults, res.Kernel.ReuseFaults)
	fmt.Fprintf(stdout, "commands   %d page_copy, %d page_phyc, %d page_free, %d page_init\n",
		res.Engine.PageCopies, res.Engine.PagePhycs, res.Engine.PageFrees, res.Engine.PageInits)
	fmt.Fprintf(stdout, "cow        %d redirected reads (max chain %d), %d on-demand line copies, %d lines never copied\n",
		res.Engine.Redirects, res.Engine.MaxChain, res.Engine.CopiedOnDemand, res.Engine.ElidedLines)
	fmt.Fprintf(stdout, "counters   %d overflows, ctr-cache miss %.2f%%, cow-cache miss %.2f%%\n",
		res.CtrOverflows, 100*res.CtrMissRate, 100*res.CoWMissRate)
	fmt.Fprintf(stdout, "traffic    %.2f%% copy/init share\n", 100*res.CopyInitShare)
	if knobs.Prefetch.Mode != lelantus.PrefetchOff {
		fmt.Fprintf(stdout, "prefetch   %d issued, %d useful, %d late, %d unused, %d dropped\n",
			res.Engine.PrefetchIssued, res.Engine.PrefetchUseful,
			res.Engine.PrefetchLate, res.Engine.PrefetchUnused, res.Engine.PrefetchDropped)
	}
	if pl != nil {
		fmt.Fprint(stdout, pl.Summary().String())
	}

	if *compare && scheme != lelantus.Baseline {
		base, err := lelantus.RunWith(machineCfg(lelantus.Baseline), script)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "vs-baseline speedup %.2fx, writes cut to %.2f%%\n",
			res.SpeedupVs(base), 100*res.WriteReductionVs(base))
	}
	return exportProbe(pl, *probeOut, *probeFormat, stderr)
}

// exportProbe writes the plane to out in the selected format; a nil plane
// is a no-op so every exit path can call it unconditionally.
func exportProbe(pl *lelantus.Probe, out, format string, stderr io.Writer) int {
	if pl == nil {
		return 0
	}
	f, err := os.Create(out)
	if err != nil {
		fmt.Fprintf(stderr, "lelantus-sim: %v\n", err)
		return 1
	}
	defer f.Close()
	switch format {
	case "perfetto":
		err = pl.WriteTrace(f)
	default:
		var b []byte
		if b, err = pl.MarshalJSONSummary(); err == nil {
			b = append(b, '\n')
			_, err = f.Write(b)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "lelantus-sim: %v\n", err)
		return 1
	}
	fmt.Fprintf(stderr, "probe: wrote %s (%s, %d events recorded, %d retained, %d samples)\n",
		out, format, pl.Summary().Recorded, pl.EventsRetained(), len(pl.Samples()))
	return 0
}

// runAll fans the script out over every scheme on a worker pool; the
// Baseline row (always index 0) anchors the speedup and write columns.
// Per-cell failures are isolated: surviving rows still print, and the
// failures are reported together.
func runAll(script workload.Script, machineCfg func(lelantus.Scheme) lelantus.Config, parallel int, asJSON bool, stdout, stderr io.Writer) int {
	schemes := lelantus.Schemes()
	jobs := make([]lelantus.GridJob, len(schemes))
	for i, s := range schemes {
		jobs[i] = lelantus.GridJob{Tag: s.String(), Config: machineCfg(s), Script: script}
	}
	results, errs := lelantus.RunGridErrs(jobs, parallel)
	failed := 0
	for i, err := range errs {
		if err != nil {
			fmt.Fprintf(stderr, "lelantus-sim: %s: %v\n", jobs[i].Tag, err)
			failed++
		}
	}
	if asJSON {
		if failed > 0 {
			return 1
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", " ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintf(stderr, "lelantus-sim: %v\n", err)
			return 1
		}
		return 0
	}
	base := results[0]
	fmt.Fprintf(stdout, "workload   %s\n", script.Name)
	fmt.Fprintf(stdout, "%-16s %12s %12s %12s %9s %9s\n",
		"scheme", "exec-ms", "nvm-reads", "nvm-writes", "speedup", "writes%")
	for i, s := range schemes {
		if errs[i] != nil {
			fmt.Fprintf(stdout, "%-16v %12s\n", s, "FAILED")
			continue
		}
		res := results[i]
		fmt.Fprintf(stdout, "%-16v %12.3f %12d %12d %8.2fx %8.2f%%\n",
			s, float64(res.ExecNs)/1e6, res.NVMReads, res.NVMWrites,
			res.SpeedupVs(base), 100*res.WriteReductionVs(base))
	}
	if failed > 0 {
		return 1
	}
	return 0
}
