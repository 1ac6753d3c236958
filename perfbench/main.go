// Command perfbench is the repository's benchmark: it runs one named
// workload against the simulator's public entry points for a fixed host
// time, checks the outputs, and prints every metric with its unit and clock.
// The last line of standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set; with -trace 1 a CPU
// profile and exported counters give the per-layer set. README.md explains
// the workloads, the metrics and their clocks.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"lelantus/internal/grid"
	"lelantus/internal/metrics"
)

// metricDef names one metric, its unit and the clock it is measured on.
type metricDef struct{ name, unit, clock string }

// endToEnd are the metrics a user of the simulator sees, reported on every
// workload with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", "host wall"},
	{"cells_per_s", "1/s", "host wall"},
	{"sim_refs_per_s", "1/s", "host wall"},
	{"alloc_mb", "MB", "host heap"},
	{"rss_mean_mb", "MB", "host memory"},
	{"lelantus_speedup", "x", "simulated"},
	{"lelantus_write_ratio", "x", "simulated"},
}

// workloadOnly are end-to-end metrics defined on some workloads only. They
// are printed where defined but stay out of the JSON line, whose metric set
// is the same on every workload; error_rate is also the JSON line's
// failed/attempted.
var workloadOnly = []metricDef{
	{"error_rate", "ratio", "count"},
	{"resume_s", "s", "host wall"},
	{"paper_speedup_err", "x", "simulated vs paper"},
}

// selfLayers are the repository packages whose host self time the traced
// run reports, plus runtime for samples with no repository frame.
var selfLayers = []string{
	"bmt", "cache", "core", "ctr", "ctrcache", "enc", "faultinject", "grid",
	"issuewin", "kernel", "mem", "memctrl", "nvm", "prefetch", "probe",
	"sim", "steal", "tlb", "workload", runtimeLayer,
}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"workload.gen_s", "s", "host wall"},
		{"sim.build_s", "s", "host wall"},
		{"sim.run_s", "s", "host wall"},
		{"sim.cell_p50_ms", "ms", "host wall"},
		{"sim.cell_tail_ms", "ms", "host wall"},
		{"sim.cell_tail_pct", "%", "rank"},
		{"sim.cell_samples", "count", "count"},
	}
	for _, l := range selfLayers {
		defs = append(defs, metricDef{l + ".self_s", "s", "host cpu"})
	}
	return append(defs,
		metricDef{"cache.l1_miss_ratio", "ratio", "simulated"},
		metricDef{"cache.l3_miss_ratio", "ratio", "simulated"},
		metricDef{"kernel.wp_faults", "count", "simulated"},
		metricDef{"tlb.walks", "count", "simulated"},
		metricDef{"memctrl.copy_init_share", "ratio", "simulated"},
		metricDef{"bmt.updates", "count", "simulated"},
		metricDef{"bmt.verifies", "count", "simulated"},
		metricDef{"enc.pads", "count", "simulated"},
		metricDef{"ctr.overflows", "count", "simulated"},
		metricDef{"ctrcache.miss_ratio", "ratio", "simulated"},
		metricDef{"ctrcache.cow_miss_ratio", "ratio", "simulated"},
		metricDef{"core.redirects", "count", "simulated"},
		metricDef{"core.chain_hops", "count", "simulated"},
		metricDef{"nvm.row_hit_ratio", "ratio", "simulated"},
		metricDef{"prefetch.useful_ratio", "ratio", "simulated"},
		metricDef{"prefetch.late_ratio", "ratio", "simulated"},
		metricDef{"memctrl.read_p99_sim_ns", "ns", "simulated"},
		metricDef{"memctrl.write_p99_sim_ns", "ns", "simulated"},
		metricDef{"kernel.fault_p99_sim_ns", "ns", "simulated"},
		metricDef{"nvm.mshr_occupancy_p99", "count", "simulated"},
		metricDef{"grid.decode_s", "s", "host wall"},
		metricDef{"grid.records_rejected", "count", "count"},
		metricDef{"grid.checkpoint_s", "s", "host cpu"},
		metricDef{"grid.resume_s", "s", "host wall"},
		metricDef{"steal.steals", "count", "count"},
		metricDef{"core.recover_s", "s", "host cpu"},
		metricDef{"faultinject.persist_points", "count", "simulated"},
		metricDef{"runtime.gc_cycles", "count", "count"},
		metricDef{"trace.overhead_ratio", "ratio", "host wall"},
	)
}()

// Profile frames whose inclusive time the grid's per-layer metrics read.
const (
	fnSaveState  = "lelantus/internal/grid.SaveState"
	fnRecover    = "lelantus/internal/core.(*Engine).Recover"
	fnNewMachine = "lelantus/internal/sim.NewMachine"
)

// extraSetups is how many set-up-only samples precede the measured passes;
// every pass contributes one more, and setup_s is their median.
const extraSetups = 6

// passStats is one pass over a workload's cells.
type passStats struct {
	setupS, genS, buildS, runS float64
	// runParts splits runS into the parts timed one by one: one per cell
	// when cells run serially, else the whole run.
	runParts []float64
	refs     uint64    // measured-phase simulated CPU references
	cellS    []float64 // host seconds per cell
	runs     []cellRun // index-aligned with the cells
	failed   map[int]string
	wrong    []string // output checks that found a wrong result
}

type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	workdir  string
}

// outcome is what a workload run reports.
type outcome struct {
	// attempted counts the distinct cells run and failed those that failed
	// in any pass: a pass repeats the same cells, so the counts do not
	// depend on how many passes fit in the measured time.
	attempted, failed int
	ran               map[string]bool // every cell run
	wrong             []string
	failures          map[string]string // cell -> reason it failed for
	metrics           map[string]float64
	notes             []string // printed as comment lines before the metrics
}

func newOutcome() *outcome {
	return &outcome{ran: map[string]bool{}, failures: map[string]string{}, metrics: map[string]float64{}}
}

// account adds one pass's cells to the failure counts.
func (o *outcome) account(ps *passStats) {
	for i, r := range ps.runs {
		cell := r.group + "/" + r.scheme
		o.ran[cell] = true
		if reason, failed := ps.failed[i]; failed {
			o.failures[cell] = reason
		}
	}
	o.attempted, o.failed = len(o.ran), len(o.failures)
	o.wrong = append(o.wrong, ps.wrong...)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "workload to run: fig9 | secure-mlp | crash-grid")
	seed := fs.Int64("seed", 1, "workload generator seed")
	seconds := fs.Int("seconds", 10, "host seconds to measure for (whole passes, at least one)")
	trace := fs.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}
	o := options{workload: *wl, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	var runWorkload func(options) (*outcome, error)
	switch *wl {
	case "fig9":
		runWorkload = func(o options) (*outcome, error) { return runDirect(o, fig9Inputs, true) }
	case "secure-mlp":
		runWorkload = func(o options) (*outcome, error) { return runDirect(o, secureMLPInputs, false) }
	case "crash-grid":
		runWorkload = runCrashGrid
	default:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want fig9, secure-mlp or crash-grid)\n", *wl)
		return 2
	}
	// Grid directories go under the build directory run.sh uses, inside
	// the working tree; each run gets its own and removes it at exit.
	workRoot := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(workRoot, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	o.workdir = dir

	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d seconds=%d trace=%d\n", o.workload, o.seed, *seconds, *trace)
	fmt.Fprintf(stdout, "# env go=%s gomaxprocs=%d nproc=%d cpu=%q commit=%s\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), commit())
	out, err := runWorkload(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	return report(stdout, stderr, o, out)
}

// report prints the metric table and the JSON result line.
func report(stdout, stderr io.Writer, o options, out *outcome) int {
	for _, n := range out.notes {
		fmt.Fprintf(stdout, "# %s\n", n)
	}
	// Failures grouped by reason, with a few of the cells each names.
	byReason := map[string][]string{}
	for cell, reason := range out.failures {
		byReason[reason] = append(byReason[reason], cell)
	}
	reasons := make([]string, 0, len(byReason))
	for r := range byReason {
		reasons = append(reasons, r)
	}
	sort.Strings(reasons)
	for _, r := range reasons {
		cells := byReason[r]
		sort.Strings(cells)
		shown := cells[:min(len(cells), 4)]
		fmt.Fprintf(stdout, "# failed: %s: %d cell(s), e.g. %s\n", r, len(cells), strings.Join(shown, ", "))
	}
	for _, w := range out.wrong {
		fmt.Fprintf(stdout, "# WRONG OUTPUT: %s\n", w)
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	result := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{len(out.wrong) == 0, out.attempted, out.failed, map[string]map[string]any{}}
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "perfbench: metric %s was not measured\n", d.name)
			return 1
		}
		result.Metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
		fmt.Fprintf(stdout, "%-28s %18.6g %-6s %s\n", d.name, v, d.unit, d.clock)
	}
	if !o.trace {
		for _, d := range workloadOnly {
			if v, ok := out.metrics[d.name]; ok {
				fmt.Fprintf(stdout, "%-28s %18.6g %-6s %s\n", d.name, v, d.unit, d.clock)
			} else if d.name == "paper_speedup_err" {
				fmt.Fprintf(stdout, "%-28s %18s %-6s %s\n", d.name, "unvalidated", "", "no paper reference for this workload")
			}
		}
	}
	line, err := json.Marshal(result)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// measured holds the passes of one run and what was measured around them.
type measured[P any] struct {
	passes   []P
	wallS    float64   // mean wall seconds per measured pass
	refWallS float64   // the untraced reference pass (tracing only)
	allocMB  float64   // heap allocated per measured pass
	rssMB    []float64 // time-averaged resident memory of each measured pass
	gcCycles float64   // GC cycles per measured pass
	profile  *cpuProfile
}

// measure runs passes until the measured time is up (at least one), after
// one untraced reference pass when tracing, under a CPU profile when
// tracing.
func measure[P any](o options, pass func() (P, error)) (*measured[P], error) {
	m := &measured[P]{}
	if o.trace {
		runtime.GC()
		t0 := time.Now()
		if _, err := pass(); err != nil {
			return nil, err
		}
		m.refWallS = time.Since(t0).Seconds()
	}
	var buf bytes.Buffer
	if o.trace {
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return nil, err
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for len(m.passes) == 0 || time.Since(start) < o.seconds {
		runtime.GC() // every pass starts from a collected heap
		rss := startRSSSampler()
		p, err := pass()
		m.rssMB = append(m.rssMB, rss.Stop())
		if err != nil {
			if o.trace {
				pprof.StopCPUProfile()
			}
			return nil, err
		}
		m.passes = append(m.passes, p)
	}
	n := float64(len(m.passes))
	m.wallS = time.Since(start).Seconds() / n
	if o.trace {
		pprof.StopCPUProfile()
	}
	runtime.ReadMemStats(&after)
	m.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / n / (1 << 20)
	m.gcCycles = float64(after.NumGC-before.NumGC) / n
	if o.trace {
		prof, err := parseCPUProfile(buf.Bytes())
		if err != nil {
			return nil, err
		}
		m.profile = prof
	}
	return m, nil
}

// common fills the metrics every workload reports the same way.
func (m *measured[P]) common(out *outcome, o options, stats func(P) *passStats, setups []float64) {
	var genS, buildS, passRunS, cellS []float64
	var runParts [][]float64
	for _, p := range m.passes {
		ps := stats(p)
		setups = append(setups, ps.setupS)
		runParts = append(runParts, ps.runParts)
		genS = append(genS, ps.genS)
		buildS = append(buildS, ps.buildS)
		passRunS = append(passRunS, ps.runS)
		cellS = append(cellS, ps.cellS...)
		out.account(ps)
	}
	out.metrics["setup_s"] = median(setups)
	// Every pass runs the same cells and simulates the same references.
	first := stats(m.passes[0])
	runS := bestRunS(runParts)
	out.metrics["cells_per_s"] = float64(len(first.runs)) / runS
	out.metrics["sim_refs_per_s"] = float64(first.refs) / runS
	out.metrics["alloc_mb"] = m.allocMB
	out.metrics["rss_mean_mb"] = median(m.rssMB)
	out.notes = append(out.notes, fmt.Sprintf("mean resident per pass %.1f MB; process peak RSS %.1f MB", m.rssMB, peakRSSMB()))
	out.metrics["error_rate"] = errorRate(out.failed, out.attempted)
	if !o.trace {
		return
	}
	out.metrics["workload.gen_s"] = median(genS)
	out.metrics["sim.build_s"] = median(buildS)
	out.metrics["sim.run_s"] = median(passRunS)
	if len(cellS) > 0 {
		ct := summariseCells(cellS)
		out.metrics["sim.cell_p50_ms"] = ct.p50 * 1e3
		out.metrics["sim.cell_tail_ms"] = ct.tail * 1e3
		out.metrics["sim.cell_tail_pct"] = ct.tailPct
		out.metrics["sim.cell_samples"] = float64(ct.n)
	}
	n := float64(len(m.passes))
	self := m.profile.selfSeconds()
	for _, l := range selfLayers {
		out.metrics[l+".self_s"] = self[l] / n
	}
	out.metrics["grid.checkpoint_s"] = m.profile.inclusiveSeconds(fnSaveState) / n
	out.metrics["core.recover_s"] = m.profile.inclusiveSeconds(fnRecover) / n
	out.metrics["runtime.gc_cycles"] = m.gcCycles
	out.metrics["trace.overhead_ratio"] = m.wallS / m.refWallS
	for _, k := range []string{"grid.decode_s", "grid.records_rejected", "grid.resume_s", "steal.steals", "faultinject.persist_points"} {
		out.metrics[k] = 0
	}
	out.notes = append(out.notes, fmt.Sprintf("traced %d pass(es)", len(m.passes)))
}

// runDirect runs fig9 or secure-mlp: serial passes over cells that build
// a machine and run a script through sim.NewMachine and Machine.Run.
func runDirect(o options, gen func(int64) directInputs, paper bool) (*outcome, error) {
	out := newOutcome()
	var setups []float64
	for i := 0; i < extraSetups; i++ {
		s, err := directSetup(gen, o.seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	out.notes = append(out.notes, fmt.Sprintf("set-up only: %.3f s", setups))
	m, err := measure(o, func() (passStats, error) { return directPass(gen, o.seed), nil })
	if err != nil {
		return nil, err
	}
	first := m.passes[0]
	// The simulator is deterministic: a later pass over the same inputs
	// that disagrees with the first has produced a wrong result.
	for _, p := range m.passes[1:] {
		if !reflect.DeepEqual(first.runs, p.runs) {
			out.wrong = append(out.wrong, "simulated results differ between passes over the same inputs")
			break
		}
	}
	for _, p := range m.passes {
		out.notes = append(out.notes, fmt.Sprintf("pass: generate %.3f s, build %.3f s, run %.3f s", p.genS, p.buildS, p.runS))
	}
	m.common(out, o, func(p passStats) *passStats { return &p }, setups)
	skip := func(string) bool { return false }
	if paper {
		skip = func(g string) bool { return strings.HasPrefix(g, "non-copy/") }
	}
	pairs := directPairs(first.runs, skip)
	out.metrics["lelantus_speedup"] = lelantusSpeedup(pairs)
	out.metrics["lelantus_write_ratio"] = lelantusWriteRatio(pairs)
	if paper {
		ours := map[string]float64{}
		for _, p := range pairs {
			ours[p.group] = p.lel.SpeedupVs(p.base)
		}
		if e, err := paperSpeedupErr(ours); err == nil {
			out.metrics["paper_speedup_err"] = e
		} else {
			out.notes = append(out.notes, fmt.Sprintf("paper_speedup_err: %v", err))
		}
	}
	if o.trace {
		// The counter replays regenerate the inputs rather than keep a
		// pass's scripts alive through the measured passes.
		in := gen(o.seed)
		var sum counters
		for i, c := range in.cells {
			r := first.runs[i]
			if r.res == nil {
				continue
			}
			d, err := measuredCounters(c.cfg, in.scripts[c.script], *r.res)
			if err != nil {
				out.wrong = append(out.wrong, err.Error())
				continue
			}
			sum = sum.combine(d, 1)
		}
		for k, v := range sum.layerCounters() {
			out.metrics[k] = v
		}
	}
	return out, nil
}

// runCrashGrid runs the crash grid through the grid service: create, run
// with two workers, decode the log, resume, per pass.
func runCrashGrid(o options) (*outcome, error) {
	out := newOutcome()
	var setups []float64
	for i := 0; i < extraSetups; i++ {
		dir := filepath.Join(o.workdir, fmt.Sprintf("setup-%d", i))
		_, s, err := gridSetup(dir, o.seed, grid.Options{Workers: gridWorkers})
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	out.notes = append(out.notes, fmt.Sprintf("set-up only: %.3f s", setups))
	passNo := 0
	m, err := measure(o, func() (*gridPass, error) {
		passNo++
		dir := filepath.Join(o.workdir, fmt.Sprintf("pass-%d", passNo))
		gp, err := runGridPass(dir, o.seed)
		if err != nil {
			return nil, err
		}
		return gp, os.RemoveAll(dir)
	})
	if err != nil {
		return nil, err
	}
	first := m.passes[0]
	for _, p := range m.passes[1:] {
		if !bytes.Equal(first.reportBytes, p.reportBytes) {
			out.wrong = append(out.wrong, "report.json differs between passes over the same spec")
			break
		}
	}
	var resumeS, decodeS []float64
	var steals float64
	var wall metrics.Hist
	for _, p := range m.passes {
		resumeS = append(resumeS, p.resumeS)
		decodeS = append(decodeS, p.decodeS)
		steals += float64(p.steals)
		wall.Merge(&p.wallHist)
		out.notes = append(out.notes, fmt.Sprintf("grid pass: create %.3f s, run %.3f s, resume %.3f s; %d/%d cells ok, log %d records, %d rejected, %d kept by resume, resume re-ran %d cells",
			p.setupS, p.runS, p.resumeS, p.report.OK, p.report.Total, p.logRecords, p.rejectedRecords, p.decodedRecords, p.rerun))
	}
	m.common(out, o, func(p *gridPass) *passStats { return &p.passStats }, setups)
	pairs := directPairs(first.runs, func(string) bool { return false })
	out.metrics["lelantus_speedup"] = lelantusSpeedup(pairs)
	out.metrics["lelantus_write_ratio"] = lelantusWriteRatio(pairs)
	out.metrics["resume_s"] = median(resumeS)
	if !o.trace {
		return out, nil
	}
	n := float64(len(m.passes))
	ct := histCells(wall)
	out.metrics["sim.cell_p50_ms"] = ct.p50 * 1e3
	out.metrics["sim.cell_tail_ms"] = ct.tail * 1e3
	out.metrics["sim.cell_tail_pct"] = ct.tailPct
	out.metrics["sim.cell_samples"] = float64(ct.n)
	out.metrics["sim.build_s"] = m.profile.inclusiveSeconds(fnNewMachine) / n
	out.metrics["grid.decode_s"] = median(decodeS)
	out.metrics["grid.records_rejected"] = float64(first.rejectedRecords)
	out.metrics["grid.resume_s"] = median(resumeS)
	out.metrics["steal.steals"] = steals / n
	out.metrics["faultinject.persist_points"] = float64(first.persistPoints)

	var sum counters
	for _, c := range first.cells {
		if c.Result == nil {
			continue
		}
		cfg, script, err := c.Spec.Build()
		if err != nil {
			return nil, err
		}
		d, err := measuredCounters(cfg, script, *c.Result)
		if err != nil {
			out.wrong = append(out.wrong, err.Error())
			continue
		}
		sum = sum.combine(d, 1)
	}
	for k, v := range sum.layerCounters() {
		out.metrics[k] = v
	}
	return out, nil
}

// histCells summarises per-cell wall times recorded in a log-bucketed
// histogram (about 3% resolution) by the same rules as summariseCells.
func histCells(h metrics.Hist) cellTimes {
	at := func(rank uint64) float64 {
		var cum uint64
		for i, n := range h.Buckets {
			if cum += n; cum >= rank {
				_, hi := metrics.BucketBounds(i)
				return float64(min(hi, h.Max)) / 1e9
			}
		}
		return float64(h.Max) / 1e9
	}
	ct := cellTimes{n: int(h.Count)}
	if h.Count == 0 {
		return ct
	}
	ct.p50 = at((h.Count + 1) / 2)
	if idx, pct, ok := tailRank(int(h.Count)); ok {
		ct.tail, ct.tailPct = at(uint64(idx)+1), pct
	}
	return ct
}

// peakRSSMB is the process's peak resident set in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// cpuModel names the host CPU for the environment header.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit reads the checked-out revision from .git in the working
// directory, without running git; "unknown" outside a git checkout.
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, _ := os.ReadFile(filepath.Join(".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}
