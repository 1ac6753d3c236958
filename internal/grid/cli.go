package grid

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"lelantus/internal/hostprof"
	"lelantus/internal/metrics"
)

// CLIMain is the whole `lelantus-grid` program: cmd/lelantus-grid is a
// one-line wrapper, and the harness tests drive the CLI end-to-end (kill,
// resume, byte-compare) by re-exec'ing their own test binary into this
// function. Exit codes: 0 success, 1 runtime failure (or failed cells
// under -strict), 2 usage/flag errors.
func CLIMain(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	switch args[0] {
	case "run":
		return cmdRun(args[1:], stdout, stderr)
	case "resume":
		return cmdResume(args[1:], stdout, stderr)
	case "status":
		return cmdStatus(args[1:], stdout, stderr)
	case "promcheck":
		return cmdPromCheck(args[1:], stdout, stderr)
	case "worker":
		return WorkerMain(os.Stdin, stdout, stderr)
	case "-h", "-help", "--help", "help":
		usage(stdout)
		return 0
	}
	fmt.Fprintf(stderr, "lelantus-grid: unknown command %q (want run, resume, status, promcheck or worker)\n", args[0])
	return 2
}

func usage(w io.Writer) {
	fmt.Fprint(w, `lelantus-grid — resumable, fault-tolerant experiment grids

  lelantus-grid run    -dir DIR [axis and runtime flags]   start a grid
  lelantus-grid resume -dir DIR [runtime flags]            continue after a kill
  lelantus-grid status -dir DIR                            progress of a grid
  lelantus-grid promcheck FILE                             validate a saved /metrics scrape
  lelantus-grid worker                                     (internal) run one cell from stdin

A grid directory holds state.json (the grid's spec, written once),
results.log (append-only checksummed cell results, the only progress
record) and report.json (merged report, sorted by cell ID —
byte-identical for a spec at any worker count and across any
kill/resume sequence). See README "Running large grids".

Live telemetry (README "Monitoring a grid run"): -telemetry-addr serves
Prometheus text on /metrics, a JSON snapshot on /status and pprof under
/debug/pprof/; -heartbeat emits JSON progress lines to stderr and keeps
telemetry.json fresh in the grid directory (read by status). Telemetry
never changes a reported byte.
`)
}

// runtimeOpts binds the coordinator knobs shared by run and resume.
type runtimeOpts struct {
	workers       *int
	isolate       *bool
	timeout       *time.Duration
	retries       *int
	backoff       *time.Duration
	strict        *bool
	quiet         *bool
	telemetryAddr *string
	heartbeat     *time.Duration
	prof          *hostprof.Flags
}

func addRuntimeFlags(fs *flag.FlagSet) *runtimeOpts {
	return &runtimeOpts{
		workers:       fs.Int("workers", 0, "in-process worker pool (0 = all CPUs); the report is byte-identical at any setting"),
		isolate:       fs.Bool("isolate", false, "run every cell in a worker subprocess (hard-kills wedged cells, survives per-cell OOM)"),
		timeout:       fs.Duration("timeout", 0, "per-cell wall-clock budget under -isolate (0 = none), e.g. 90s"),
		retries:       fs.Int("retries", 1, "extra attempts for a failing cell before its failure is recorded"),
		backoff:       fs.Duration("backoff", 100*time.Millisecond, "base retry backoff (doubles per attempt, capped at 30s)"),
		strict:        fs.Bool("strict", false, "exit non-zero when any cell ends up failed"),
		quiet:         fs.Bool("quiet", false, "suppress per-cell progress lines"),
		telemetryAddr: fs.String("telemetry-addr", "", "serve live telemetry over HTTP on this address (e.g. :9090 or 127.0.0.1:0): Prometheus /metrics, JSON /status, /debug/pprof/"),
		heartbeat:     fs.Duration("heartbeat", 0, "emit one JSON progress line per interval to stderr and rewrite telemetry.json atomically (0 = off), e.g. 10s"),
		prof:          hostprof.Register(fs),
	}
}

// parse parses args into fs and checks the runtime flags. A negative
// value is a usage error: 0 is the one documented "all CPUs", "none",
// "default" or "off". So is -timeout without -isolate: only a worker
// subprocess can be killed. It reports false after writing a one-line
// diagnosis; the caller exits 2.
func (r *runtimeOpts) parse(fs *flag.FlagSet, args []string, stderr io.Writer) bool {
	if err := fs.Parse(args); err != nil {
		return false
	}
	for _, name := range []string{"workers", "timeout", "retries", "backoff", "heartbeat"} {
		if v := fs.Lookup(name).Value.String(); strings.HasPrefix(v, "-") {
			fmt.Fprintf(stderr, "lelantus-grid: -%s %s: must be >= 0\n", name, v)
			return false
		}
	}
	if *r.timeout > 0 && !*r.isolate {
		fmt.Fprintf(stderr, "lelantus-grid: -timeout %s: requires -isolate (an in-process cell cannot be stopped)\n", *r.timeout)
		return false
	}
	return true
}

func (r *runtimeOpts) options(stderr io.Writer) Options {
	logW := stderr
	if *r.quiet {
		logW = nil
	}
	opts := Options{
		Workers: *r.workers,
		Isolate: *r.isolate,
		Timeout: *r.timeout,
		Retries: *r.retries,
		Backoff: *r.backoff,
		Log:     logW,
	}
	// Either telemetry surface enables the registry: the heartbeat reports
	// the retry counter, and the HTTP server serves the full set.
	if *r.telemetryAddr != "" || *r.heartbeat > 0 {
		opts.Metrics = metrics.NewRegistry()
	}
	if *r.heartbeat > 0 {
		opts.Heartbeat = *r.heartbeat
		opts.HeartbeatW = stderr
	}
	return opts
}

func splitCSV(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	var out []string
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// parseIntCSV parses a comma-separated list of decimal integers.
func parseIntCSV[T int64 | uint64](s string) ([]T, error) {
	var out []T
	for _, p := range splitCSV(s) {
		var v T
		var err error
		kind := "integer"
		switch v := any(&v).(type) {
		case *int64:
			*v, err = strconv.ParseInt(p, 10, 64)
		case *uint64:
			*v, err = strconv.ParseUint(p, 10, 64)
			kind = "unsigned integer"
		}
		if err != nil {
			return nil, fmt.Errorf("bad %s %q in list %q", kind, p, s)
		}
		out = append(out, v)
	}
	return out, nil
}

func parsePageModes(s string) ([]bool, error) {
	switch s {
	case "4kb", "4KB":
		return []bool{false}, nil
	case "2mb", "2MB":
		return []bool{true}, nil
	case "both":
		return []bool{false, true}, nil
	}
	return nil, fmt.Errorf("unknown page mode %q (want 4kb, 2mb or both)", s)
}

func cmdRun(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lelantus-grid run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", "grid-run", "grid directory (checkpoint, results log, report)")
	preset := fs.String("spec", "", "named preset spec (quick, schemes-matrix, persist-matrix, mlp-matrix, prefetch-matrix, crash-matrix); axis flags override its axes")
	name := fs.String("name", "", "grid name recorded in the report")
	workloads := fs.String("workloads", "", "comma-separated catalogue workloads (default forkbench)")
	schemes := fs.String("schemes", "", "comma-separated schemes (default all four)")
	page := fs.String("page", "", "page modes: 4kb | 2mb | both (default 4kb)")
	seeds := fs.String("seeds", "", "comma-separated workload generator seeds (default 1)")
	persist := fs.String("persist", "", "comma-separated persistence strategies: strict | phoenix | triad:N (default strict)")
	mlp := fs.String("mlp", "", "comma-separated MLP modes: off | on (default off)")
	prefetch := fs.String("prefetch", "", "comma-separated prefetch modes: off | delta | chain | both (default off)")
	prefetchDepth := fs.Int("prefetch-depth", 0, "pages per confirmed delta prediction (0 = default 4)")
	fidelity := fs.String("fidelity", "", "fidelity for every cell: full | timing (default timing; reports are byte-identical either way)")
	faultSeeds := fs.String("faultseeds", "", "comma-separated fault-plane seeds for crash cells (default 1)")
	crashPoints := fs.String("crashpoints", "", "comma-separated persist points to crash cells at (default none)")
	memMB := fs.Uint64("mem", 0, "simulated NVM capacity in MiB (0 = the memory controller's 16 GiB default)")
	quick := fs.Bool("quick", false, "reduced workload sizes")
	regionKB := fs.Uint64("region-kb", 0, "forkbench region override in KiB (0 = default; the smoke-grid knob)")
	ranks := fs.Int("ranks", 0, "NVM ranks (0 = default 2)")
	banks := fs.Int("banks", 0, "NVM banks per rank (0 = default 8)")
	tail := fs.Bool("tail", false, "record per-event-class latency percentiles (p50/p90/p99/p999, simulated time) in every measurement cell's result")
	rt := addRuntimeFlags(fs)
	if !rt.parse(fs, args, stderr) {
		return 2
	}

	var spec Spec
	if *preset != "" {
		p, err := PresetByName(*preset)
		if err != nil {
			fmt.Fprintf(stderr, "lelantus-grid: %v\n", err)
			return 2
		}
		spec = p
	}
	// Axis flags override the preset (or fill an empty spec); flag.Visit
	// only reports flags the user actually set, so an untouched axis keeps
	// the preset's value.
	var flagErr error
	fs.Visit(func(f *flag.Flag) {
		if flagErr != nil {
			return
		}
		var err error
		switch f.Name {
		case "name":
			spec.Name = *name
		case "workloads":
			spec.Workloads = splitCSV(*workloads)
		case "schemes":
			spec.Schemes = splitCSV(*schemes)
		case "page":
			spec.Huge, err = parsePageModes(*page)
		case "seeds":
			spec.Seeds, err = parseIntCSV[int64](*seeds)
		case "persist":
			spec.Persist = splitCSV(*persist)
		case "mlp":
			spec.MLP = splitCSV(*mlp)
		case "prefetch":
			spec.Prefetch = splitCSV(*prefetch)
		case "prefetch-depth":
			spec.PrefetchDepth = *prefetchDepth
		case "fidelity":
			spec.Fidelity = *fidelity
		case "faultseeds":
			spec.FaultSeeds, err = parseIntCSV[int64](*faultSeeds)
		case "crashpoints":
			spec.CrashPoints, err = parseIntCSV[uint64](*crashPoints)
		case "mem":
			spec.MemMB = *memMB
		case "quick":
			spec.Quick = *quick
		case "region-kb":
			spec.RegionKB = *regionKB
		case "ranks":
			spec.Ranks = *ranks
		case "banks":
			spec.Banks = *banks
		case "tail":
			spec.Tail = *tail
		}
		flagErr = err
	})
	if flagErr != nil {
		fmt.Fprintf(stderr, "lelantus-grid: %v\n", flagErr)
		return 2
	}
	if spec.Name == "" && *preset != "" {
		spec.Name = *preset
	}

	coord, err := Create(*dir, spec, rt.options(stderr))
	if err != nil {
		fmt.Fprintf(stderr, "lelantus-grid: %v\n", err)
		// Spec/axis problems are usage errors; filesystem problems are not.
		if verr := spec.Validate(); verr != nil {
			return 2
		}
		return 1
	}
	return finishRun(coord, *dir, rt, stdout, stderr)
}

func cmdResume(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lelantus-grid resume", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", "grid-run", "grid directory to resume")
	rt := addRuntimeFlags(fs)
	if !rt.parse(fs, args, stderr) {
		return 2
	}
	coord, err := Open(*dir, rt.options(stderr))
	if err != nil {
		fmt.Fprintf(stderr, "lelantus-grid: %v\n", err)
		return 1
	}
	return finishRun(coord, *dir, rt, stdout, stderr)
}

func finishRun(coord *Coordinator, dir string, rt *runtimeOpts, stdout, stderr io.Writer) int {
	// A bad profile path is a usage-level problem: exit 1 before any grid
	// work starts.
	stopProf, err := rt.prof.Start(stderr, "lelantus-grid")
	if err != nil {
		fmt.Fprintf(stderr, "lelantus-grid: %v\n", err)
		return 1
	}
	defer stopProf()
	if *rt.telemetryAddr != "" {
		ts, err := StartTelemetry(*rt.telemetryAddr, coord.opts.Metrics, coord.Progress)
		if err != nil {
			fmt.Fprintf(stderr, "lelantus-grid: %v\n", err)
			return 1
		}
		defer ts.Close()
		// Printed before the coordinator starts, so a watcher (or the smoke
		// test) can attach for the whole run.
		fmt.Fprintf(stderr, "lelantus-grid: telemetry on http://%s/metrics (JSON /status, pprof /debug/pprof/)\n", ts.Addr())
	}
	rep, err := coord.Run()
	if err != nil {
		fmt.Fprintf(stderr, "lelantus-grid: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "grid %s: %d/%d ok, %d failed — report %s\n",
		rep.Name, rep.OK, rep.Total, rep.Failed, filepath.Join(dir, reportFile))
	for _, f := range rep.Failures {
		fmt.Fprintf(stdout, "  FAILED %s (%s): %s\n", f.Tag, f.ID, f.reason())
	}
	if *rt.strict && rep.Failed > 0 {
		return 1
	}
	return 0
}

// cmdPromCheck validates a saved /metrics scrape with the same structural
// checker the unit tests use (metrics.ValidatePrometheus), so shell
// pipelines — `make telemetry-smoke`, CI — can assert a curl'd exposition
// is well-formed without a Prometheus install.
func cmdPromCheck(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lelantus-grid promcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "lelantus-grid: promcheck needs exactly one argument: a saved /metrics scrape")
		return 2
	}
	raw, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "lelantus-grid: %v\n", err)
		return 1
	}
	if err := metrics.ValidatePrometheus(raw); err != nil {
		fmt.Fprintf(stderr, "lelantus-grid: %s: %v\n", fs.Arg(0), err)
		return 1
	}
	fmt.Fprintf(stdout, "promcheck ok: %s\n", fs.Arg(0))
	return 0
}

func cmdStatus(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lelantus-grid status", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", "grid-run", "grid directory to inspect")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	st, err := LoadState(*dir)
	if err != nil {
		fmt.Fprintf(stderr, "lelantus-grid: %v\n", err)
		return 1
	}
	data, err := os.ReadFile(filepath.Join(*dir, logFile))
	if err != nil && !os.IsNotExist(err) {
		fmt.Fprintf(stderr, "lelantus-grid: %v\n", err)
		return 1
	}
	recs, _, derr := DecodeLog(data)
	t, total := countRecords(recs), len(st.Spec.Cells())
	fmt.Fprintf(stdout, "grid     %s (spec %s)\n", st.Spec.Name, st.SpecHash)
	done := len(t.cells)
	fmt.Fprintf(stdout, "cells    %d/%d done, %d failed, %d pending\n", done, total, t.failed, total-done)
	if p, ok := ReadTelemetry(*dir); ok {
		age := time.Since(time.UnixMilli(p.UnixMs)).Round(time.Second)
		verb := "finished"
		if p.Running {
			verb = "running"
		}
		fmt.Fprintf(stdout, "live     %s %s ago: %d/%d done, %d failed, %.2f cells/s",
			verb, age, p.Done, p.Total, p.Failed, p.CellsPerSec)
		if p.Running && p.EtaSec > 0 {
			fmt.Fprintf(stdout, ", ETA %s", (time.Duration(p.EtaSec * float64(time.Second))).Round(time.Second))
		}
		fmt.Fprintln(stdout)
	}
	switch {
	case derr != nil:
		fmt.Fprintf(stdout, "log      %d verified records, torn tail pending re-run (%s)\n", len(recs), firstLine(derr.Error()))
	default:
		fmt.Fprintf(stdout, "log      %d verified records\n", len(recs))
	}
	if _, err := os.Stat(filepath.Join(*dir, reportFile)); err == nil && done == total {
		fmt.Fprintf(stdout, "report   %s\n", filepath.Join(*dir, reportFile))
	} else {
		fmt.Fprintf(stdout, "report   pending — `lelantus-grid resume -dir %s` completes it\n", *dir)
	}
	return 0
}
