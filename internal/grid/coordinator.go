package grid

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"lelantus/internal/metrics"
	"lelantus/internal/sim"
	"lelantus/internal/workload"
)

// Options are the coordinator's runtime knobs. They are deliberately NOT
// part of the spec recorded in state.json: worker count, isolation,
// timeout and retry policy may all change between a run and its resume
// without touching a single reported byte.
type Options struct {
	// Workers is the in-process worker pool size (<= 0 selects GOMAXPROCS).
	Workers int
	// Isolate runs every cell in a worker subprocess (`lelantus-grid
	// worker`), so a cell that OOMs, wedges or corrupts its heap takes
	// down one process, is hard-killed on timeout, and degrades to one
	// failed-cell record.
	Isolate bool
	// Timeout is the per-cell wall-clock budget (0 = none): a cell that
	// outlives it has its worker subprocess killed. It requires Isolate —
	// an in-process cell cannot be stopped, and abandoning its goroutine
	// would run it beside the pool — so Create and Open reject a positive
	// Timeout without it.
	Timeout time.Duration
	// Retries is how many additional attempts a failing cell gets before
	// its failure is recorded; attempts back off exponentially from
	// Backoff (default 100ms, capped at 30s per wait).
	Retries int
	Backoff time.Duration
	// Log receives one progress line per finished cell (nil = silent).
	Log io.Writer

	// Metrics, when non-nil, receives live coordinator telemetry (cell
	// counters, retry counts, queue depth, per-cell wall-time histogram).
	// Telemetry observes wall time and scheduling, so nothing read from the
	// registry may flow into the report — with or without it, at any worker
	// count, report.json is byte-identical (pinned by
	// TestGridReportByteIdenticalWithTelemetry).
	Metrics *metrics.Registry
	// Heartbeat > 0 emits one structured-JSON progress line per interval to
	// HeartbeatW and atomically rewrites telemetry.json in the grid dir.
	Heartbeat time.Duration
	// HeartbeatW receives the heartbeat lines (nil = file only; the CLI
	// passes stderr).
	HeartbeatW io.Writer

	// cellFn overrides in-process cell execution (package-internal test
	// seam for retry/backoff behaviour; nil = RunCell).
	cellFn func(CellSpec) CellResult
}

// reexecEnv makes the re-exec'd binary route into CLIMain even when the
// executable is a `go test` binary (the kill-resume harness test runs the
// whole CLI through its own test binary this way). The production binary
// ignores it — main always calls CLIMain.
const reexecEnv = "LELANTUS_GRID_CLI"

// Coordinator drives one grid directory: enumerate cells, skip the ones
// the results log already proves finished, fan the rest over a
// sim.ForEach pool, stream every outcome to the log, and merge the report.
// The results log is its only progress record: state.json is written once
// by Create, and every count of finished cells comes from the log.
type Coordinator struct {
	dir   string
	opts  Options
	state *State
	total int // len(state.Spec.Cells())
	gm    gridMetrics

	scripts *workload.Cache // shared by one Run's in-process cells; nil outside Run

	mu          sync.Mutex
	logF        *os.File
	tally       tally     // the finished cells the results log holds
	runStart    time.Time // when this Run began (zero before Run)
	doneAtStart int       // cells already finished when this Run began
	running     bool
}

// validate rejects option sets the coordinator cannot honour.
func (o Options) validate() error {
	if o.Timeout > 0 && !o.Isolate {
		return fmt.Errorf("grid: a %s per-cell timeout requires Isolate: an in-process cell cannot be stopped", o.Timeout)
	}
	return nil
}

// Create initialises a new grid directory: validates the spec and the
// options, writes state.json (the only time it is written) and an empty
// results log. It refuses a directory that already holds a state.json —
// that run should be resumed, not silently restarted over.
func Create(dir string, spec Spec, opts Options) (*Coordinator, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("grid: create %s: %w", dir, err)
	}
	if _, err := os.Stat(filepath.Join(dir, stateFile)); err == nil {
		return nil, fmt.Errorf("grid: %s already holds a grid run (use `lelantus-grid resume -dir %s`)", dir, dir)
	}
	spec = spec.withDefaults()
	st := &State{Version: stateVersion, SpecHash: spec.Hash(), Spec: spec}
	if err := SaveState(dir, st); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, logFile), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("grid: create results log: %w", err)
	}
	f.Close()
	return &Coordinator{dir: dir, opts: opts, state: st, total: len(st.Spec.Cells()), gm: newGridMetrics(opts.Metrics)}, nil
}

// Open attaches to an existing grid directory for resume/status.
func Open(dir string, opts Options) (*Coordinator, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	st, err := LoadState(dir)
	if err != nil {
		return nil, err
	}
	return &Coordinator{dir: dir, opts: opts, state: st, total: len(st.Spec.Cells()), gm: newGridMetrics(opts.Metrics)}, nil
}

// loadRecords decodes the directory's results log, truncating a torn tail
// so the log is again append-clean (the torn cell simply re-runs), and
// returns the verified records.
func (c *Coordinator) loadRecords() ([]Record, error) {
	path := filepath.Join(c.dir, logFile)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("grid: read results log: %w", err)
	}
	recs, valid, derr := DecodeLog(data)
	if derr == nil {
		return recs, nil
	}
	c.logf("results log: %v — truncating to the %d-byte valid prefix (%d records); the torn cell re-runs", derr, valid, len(recs))
	if err := os.Truncate(path, valid); err != nil {
		return nil, fmt.Errorf("grid: truncate torn results log: %w", err)
	}
	return recs, nil
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.opts.Log != nil {
		fmt.Fprintf(c.opts.Log, "lelantus-grid: "+format+"\n", args...)
	}
}

// Run executes every cell the results log does not already account for and
// returns the merged report. It is the entry point for both `run` (empty
// log) and `resume` (partial log): the two differ only in how much work is
// left. Failed cells do not abort the run — they are retried with backoff
// and, if they keep failing, recorded as failed-cell records while the
// rest of the grid completes.
func (c *Coordinator) Run() (*Report, error) {
	prior, err := c.loadRecords()
	if err != nil {
		return nil, err
	}
	cells := c.state.Spec.Cells()
	finished := countRecords(prior)
	var pending []CellSpec
	for _, cell := range cells {
		if _, ok := finished.cells[cell.ID()]; !ok {
			pending = append(pending, cell)
		}
	}
	c.mu.Lock()
	c.tally = finished
	c.runStart = time.Now()
	c.doneAtStart = len(finished.cells)
	c.running = true
	c.mu.Unlock()
	c.gm.total.Set(int64(len(cells)))
	c.gm.queueDepth.Set(int64(len(pending)))
	stopHeartbeat := c.startHeartbeat()
	defer func() {
		c.mu.Lock()
		c.running = false
		c.mu.Unlock()
		stopHeartbeat()
	}()
	c.logf("%s: %d cells, %d already finished, %d to run", c.state.Spec.Name, len(cells), len(prior), len(pending))

	if len(pending) > 0 {
		c.logF, err = os.OpenFile(filepath.Join(c.dir, logFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("grid: open results log: %w", err)
		}
		var appendErr error
		c.scripts = &workload.Cache{}
		sim.ForEach(len(pending), c.opts.Workers, func(i int) {
			c.gm.started.Inc()
			cellStart := time.Now()
			rec := c.runCellWithRetry(pending[i])
			c.gm.wallNs.Observe(uint64(time.Since(cellStart)))
			if err := c.append(rec); err != nil {
				c.mu.Lock()
				if appendErr == nil {
					appendErr = err
				}
				c.mu.Unlock()
			}
		})
		c.scripts = nil
		closeErr := c.logF.Close()
		c.logF = nil
		if appendErr != nil {
			return nil, appendErr
		}
		if closeErr != nil {
			return nil, fmt.Errorf("grid: close results log: %w", closeErr)
		}
	}

	rep := buildReport(c.state, c.tally)
	if err := WriteReport(c.dir, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// append streams one finished cell to the results log and counts it. The
// log is the only progress record, and the append is not fsynced: a record
// a crash loses or tears is a cell that re-runs on resume, and every count
// of finished cells is rebuilt from the log, so nothing else needs saving.
func (c *Coordinator) append(rec Record) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := AppendRecord(c.logF, rec); err != nil {
		return err
	}
	c.tally.add(rec)
	c.gm.finished.Inc()
	c.gm.queueDepth.Add(-1)
	verdict := "ok"
	if rec.Cell.failed() {
		c.gm.failed.Inc()
		verdict = "FAILED"
	}
	if c.opts.Log != nil {
		fmt.Fprintf(c.opts.Log, "lelantus-grid: [%d/%d] %s %s (%d attempt(s))\n",
			len(c.tally.cells), c.total, verdict, rec.Cell.Tag, rec.Attempts)
	}
	return nil
}

// maxBackoff caps one retry wait so a high retry count cannot park a
// worker for minutes.
const maxBackoff = 30 * time.Second

// runCellWithRetry drives one cell through the attempt/backoff state
// machine: run, and on failure sleep Backoff<<(attempt-1) (capped) and try
// again, up to Retries extra attempts. The final outcome — success or the
// last failure — becomes the cell's record.
func (c *Coordinator) runCellWithRetry(spec CellSpec) Record {
	backoff := c.opts.Backoff
	if backoff <= 0 {
		backoff = 100 * time.Millisecond
	}
	for attempt := 1; ; attempt++ {
		res := c.runCellOnce(spec)
		if !res.failed() || attempt > c.opts.Retries {
			return Record{Cell: res, Attempts: attempt}
		}
		wait := backoff << (attempt - 1)
		if wait > maxBackoff || wait <= 0 {
			wait = maxBackoff
		}
		c.gm.retried.Inc()
		c.logf("cell %s attempt %d failed (%s); retrying in %s", res.Tag, attempt, res.reason(), wait)
		time.Sleep(wait)
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

func (c *Coordinator) runCellOnce(spec CellSpec) CellResult {
	if c.opts.Isolate {
		return c.runCellIsolated(spec)
	}
	if c.opts.cellFn != nil {
		return c.opts.cellFn(spec)
	}
	return RunCell(spec, c.scripts)
}

// runCellIsolated executes the cell in a `lelantus-grid worker`
// subprocess: the spec goes in as one JSON document on stdin, the result
// comes back as one JSON document on stdout, and a timeout or a crashed
// worker (OOM, panic that escaped recovery, SIGKILL) degrades to a failed
// cell instead of a failed grid.
func (c *Coordinator) runCellIsolated(spec CellSpec) CellResult {
	fail := func(format string, args ...any) CellResult {
		return CellResult{ID: spec.ID(), Tag: spec.Tag(), Spec: spec, Err: fmt.Sprintf(format, args...)}
	}
	exe, err := os.Executable()
	if err != nil {
		return fail("resolve worker executable: %v", err)
	}
	ctx := context.Background()
	if c.opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.opts.Timeout)
		defer cancel()
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return fail("marshal cell spec: %v", err)
	}
	cmd := exec.CommandContext(ctx, exe, "worker")
	cmd.Env = append(os.Environ(), reexecEnv+"=1")
	cmd.Stdin = bytes.NewReader(specJSON)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	runErr := cmd.Run()
	if ctx.Err() == context.DeadlineExceeded {
		return fail("cell exceeded its %s wall-clock timeout (worker subprocess killed)", c.opts.Timeout)
	}
	if runErr != nil {
		return fail("worker subprocess failed: %v (stderr: %s)", runErr, firstLine(strings.TrimSpace(errb.String())))
	}
	var res CellResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return fail("worker returned unparseable output: %v", err)
	}
	if res.ID != spec.ID() {
		return fail("worker returned result for cell %s, want %s", res.ID, spec.ID())
	}
	return res
}

// WorkerMain is the `lelantus-grid worker` entry point: read one CellSpec
// JSON document from stdin, run it with a freshly built script (panics
// recovered into the result),
// write one CellResult JSON document to stdout. The exit code reflects
// only protocol health — a failing *cell* still exits 0, carrying its
// error in the result, so the coordinator can tell "the cell failed" from
// "the worker broke".
func WorkerMain(stdin io.Reader, stdout, stderr io.Writer) int {
	data, err := io.ReadAll(stdin)
	if err != nil {
		fmt.Fprintf(stderr, "lelantus-grid worker: read spec: %v\n", err)
		return 1
	}
	var spec CellSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		fmt.Fprintf(stderr, "lelantus-grid worker: parse spec: %v\n", err)
		return 1
	}
	res := RunCell(spec, nil)
	payload, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "lelantus-grid worker: marshal result: %v\n", err)
		return 1
	}
	if _, err := stdout.Write(append(payload, '\n')); err != nil {
		fmt.Fprintf(stderr, "lelantus-grid worker: write result: %v\n", err)
		return 1
	}
	return 0
}
