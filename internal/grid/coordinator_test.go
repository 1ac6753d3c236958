package grid

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"lelantus/internal/metrics"
	"lelantus/internal/workload"
)

// fastSpec is the sub-second grid every coordinator test sweeps: tiny
// forkbench regions so a real cell runs in tens of milliseconds.
func fastSpec(schemes ...string) Spec {
	if len(schemes) == 0 {
		schemes = []string{"lelantus", "baseline"}
	}
	return Spec{Name: "t", Workloads: []string{"forkbench"}, Schemes: schemes, RegionKB: 64}
}

// stubCell is a deterministic no-simulation cell runner for scheduling and
// bookkeeping tests.
func stubCell(spec CellSpec) CellResult {
	return CellResult{ID: spec.ID(), Tag: spec.Tag(), Spec: spec}
}

func mustRun(t *testing.T, dir string, spec Spec, opts Options) *Report {
	t.Helper()
	coord, err := Create(dir, spec, opts)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	rep, err := coord.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return rep
}

func readReport(t *testing.T, dir string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, reportFile))
	if err != nil {
		t.Fatalf("read report: %v", err)
	}
	return data
}

func TestRunReportByteIdenticalAcrossWorkerCounts(t *testing.T) {
	spec := fastSpec("baseline", "silent-shredder", "lelantus", "lelantus-cow")
	spec.Seeds = []int64{1, 2, 3} // 12 cells: enough for workers to interleave
	var want []byte
	for _, workers := range []int{1, 3, 8} {
		dir := t.TempDir()
		mustRun(t, dir, spec, Options{Workers: workers, cellFn: stubCell})
		got := readReport(t, dir)
		if want == nil {
			want = got
		} else if !bytes.Equal(want, got) {
			t.Fatalf("report with %d workers differs from the 1-worker report", workers)
		}
	}
}

func TestRunRealCellsReportDeterministic(t *testing.T) {
	spec := fastSpec()
	d1, d2 := t.TempDir(), t.TempDir()
	rep := mustRun(t, d1, spec, Options{Workers: 1})
	mustRun(t, d2, spec, Options{Workers: 4})
	if rep.OK != 2 || rep.Failed != 0 {
		t.Fatalf("report: %d ok, %d failed, want 2/0", rep.OK, rep.Failed)
	}
	for _, c := range rep.Cells {
		if c.Result == nil || c.Result.ExecNs == 0 {
			t.Fatalf("cell %s carries no measurement result", c.Tag)
		}
	}
	if !bytes.Equal(readReport(t, d1), readReport(t, d2)) {
		t.Fatal("real-cell report differs between worker counts")
	}
}

func TestResumeSkipsFinishedCells(t *testing.T) {
	dir := t.TempDir()
	spec := fastSpec("baseline", "silent-shredder", "lelantus", "lelantus-cow")
	mustRun(t, dir, spec, Options{cellFn: stubCell})
	want := readReport(t, dir)

	// A resumed complete grid must recompute nothing and rewrite the same
	// report bit for bit.
	coord, err := Open(dir, Options{cellFn: func(spec CellSpec) CellResult {
		t.Errorf("finished cell %s recomputed on resume", spec.Tag())
		return stubCell(spec)
	}})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := coord.Run(); err != nil {
		t.Fatalf("resume Run: %v", err)
	}
	if !bytes.Equal(want, readReport(t, dir)) {
		t.Fatal("resumed report differs from the original")
	}
}

func TestResumeAfterTornTailRerunsOnlyTheTornCell(t *testing.T) {
	dir := t.TempDir()
	spec := fastSpec("baseline", "silent-shredder", "lelantus", "lelantus-cow")
	mustRun(t, dir, spec, Options{cellFn: stubCell})
	want := readReport(t, dir)

	// Tear the final record the way a SIGKILL mid-write would.
	logPath := filepath.Join(dir, logFile)
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(logPath, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, reportFile)); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	reran := 0
	coord, err := Open(dir, Options{cellFn: func(spec CellSpec) CellResult {
		mu.Lock()
		reran++
		mu.Unlock()
		return stubCell(spec)
	}})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := coord.Run(); err != nil {
		t.Fatalf("resume Run: %v", err)
	}
	if reran != 1 {
		t.Fatalf("%d cells re-ran after a torn tail, want exactly the torn one", reran)
	}
	if !bytes.Equal(want, readReport(t, dir)) {
		t.Fatal("post-tear report differs from the uninterrupted one")
	}
	// The repaired log must verify clean with one record per cell.
	repaired, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, derr := DecodeLog(repaired)
	if derr != nil || len(recs) != 4 {
		t.Fatalf("repaired log: %d records, err %v", len(recs), derr)
	}
}

func TestRetryRecoversTransientFailure(t *testing.T) {
	spec := fastSpec()
	clean := t.TempDir()
	mustRun(t, clean, spec, Options{cellFn: stubCell})

	var mu sync.Mutex
	attempts := map[string]int{}
	flaky := func(spec CellSpec) CellResult {
		mu.Lock()
		attempts[spec.ID()]++
		n := attempts[spec.ID()]
		mu.Unlock()
		if n == 1 {
			return CellResult{ID: spec.ID(), Tag: spec.Tag(), Spec: spec, Err: "transient fault"}
		}
		return stubCell(spec)
	}
	dir := t.TempDir()
	rep := mustRun(t, dir, spec, Options{Retries: 2, Backoff: time.Millisecond, cellFn: flaky})
	if rep.Failed != 0 || rep.OK != 2 {
		t.Fatalf("report: %d ok, %d failed, want 2/0", rep.OK, rep.Failed)
	}
	data, err := os.ReadFile(filepath.Join(dir, logFile))
	if err != nil {
		t.Fatal(err)
	}
	recs, _, derr := DecodeLog(data)
	if derr != nil {
		t.Fatal(derr)
	}
	for _, rec := range recs {
		if rec.Attempts != 2 {
			t.Fatalf("cell %s recorded %d attempts, want 2", rec.Cell.Tag, rec.Attempts)
		}
	}
	// Attempt counts are log-only: the report must match a never-failed run.
	if !bytes.Equal(readReport(t, clean), readReport(t, dir)) {
		t.Fatal("retried run's report differs from a clean run's")
	}
}

func TestPersistentFailureDoesNotAbortGrid(t *testing.T) {
	spec := fastSpec("baseline", "silent-shredder", "lelantus", "lelantus-cow")
	badID := spec.Cells()[1].ID()
	var mu sync.Mutex
	attempts := map[string]int{}
	fn := func(spec CellSpec) CellResult {
		mu.Lock()
		attempts[spec.ID()]++
		mu.Unlock()
		if spec.ID() == badID {
			return CellResult{ID: spec.ID(), Tag: spec.Tag(), Spec: spec, Err: "cell panic: injected"}
		}
		return stubCell(spec)
	}
	coord, err := Create(t.TempDir(), spec, Options{Retries: 2, Backoff: time.Millisecond, cellFn: fn})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := coord.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK != 3 || rep.Failed != 1 {
		t.Fatalf("report: %d ok, %d failed, want 3/1", rep.OK, rep.Failed)
	}
	if len(rep.Failures) != 1 || rep.Failures[0].ID != badID {
		t.Fatalf("failures section: %+v, want exactly cell %s", rep.Failures, badID)
	}
	if got := attempts[badID]; got != 3 {
		t.Fatalf("failing cell attempted %d times, want 3 (1 + 2 retries)", got)
	}
	if p := coord.Progress(); p.Done != 4 || p.Failed != 1 || p.Total != 4 {
		t.Fatalf("progress done=%d failed=%d total=%d, want 4/1/4", p.Done, p.Failed, p.Total)
	}
}

// TestTimeoutRequiresIsolate: an in-process cell cannot be stopped, so a
// per-cell timeout without Isolate is refused before any directory work.
func TestTimeoutRequiresIsolate(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "g")
	if _, err := Create(dir, fastSpec(), Options{Timeout: time.Second}); err == nil || !strings.Contains(err.Error(), "Isolate") {
		t.Fatalf("Create: err = %v, want a refusal naming Isolate", err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("refused Create touched %s: %v", dir, err)
	}
	if _, err := Open(dir, Options{Timeout: time.Second}); err == nil || !strings.Contains(err.Error(), "Isolate") {
		t.Fatalf("Open: err = %v, want a refusal naming Isolate", err)
	}
}

// TestIsolateTimeoutKillsWedgedWorker: TestMain serves a worker that never
// answers (wedgeEnv), and a cell that outlives its timeout must come back,
// well inside a fixed wall-clock bound, as one failed cell whose error
// names the kill.
func TestIsolateTimeoutKillsWedgedWorker(t *testing.T) {
	t.Setenv(wedgeEnv, "1")
	start := time.Now()
	rep := mustRun(t, t.TempDir(), fastSpec("lelantus"), Options{Isolate: true, Timeout: 200 * time.Millisecond})
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("wedged cell took %s to fail under a 200ms timeout", elapsed)
	}
	if rep.Total != 1 || rep.Failed != 1 || len(rep.Failures) != 1 {
		t.Fatalf("report: %d cells, %d failed, failures %+v; want one failed cell", rep.Total, rep.Failed, rep.Failures)
	}
	if err := rep.Failures[0].Err; !strings.Contains(err, "worker subprocess killed") {
		t.Fatalf("timed-out cell error %q does not name the kill", err)
	}
}

func TestCreateRefusesExistingRun(t *testing.T) {
	dir := t.TempDir()
	spec := fastSpec()
	if _, err := Create(dir, spec, Options{}); err != nil {
		t.Fatalf("first Create: %v", err)
	}
	if _, err := Create(dir, spec, Options{}); err == nil || !strings.Contains(err.Error(), "resume") {
		t.Fatalf("second Create: err = %v, want a refusal pointing at resume", err)
	}
}

func TestWorkerMainRoundTrip(t *testing.T) {
	cell := fastSpec("lelantus").Cells()[0]
	specJSON, err := json.Marshal(cell)
	if err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := WorkerMain(bytes.NewReader(specJSON), &out, &errb); code != 0 {
		t.Fatalf("WorkerMain = %d, stderr: %s", code, errb.String())
	}
	var res CellResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		t.Fatalf("worker output is not a CellResult: %v", err)
	}
	if res.ID != cell.ID() || res.Result == nil || res.Err != "" {
		t.Fatalf("worker result: %+v", res)
	}

	out.Reset()
	errb.Reset()
	if code := WorkerMain(strings.NewReader("not json"), &out, &errb); code != 1 {
		t.Fatalf("WorkerMain(garbage) = %d, want 1", code)
	}
}

// TestIsolateMatchesInProcess re-execs this test binary (via TestMain's
// LELANTUS_GRID_CLI hook) as the worker subprocess for every cell and checks
// the report is byte-identical to the in-process run.
func TestIsolateMatchesInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess-per-cell run skipped in -short")
	}
	spec := fastSpec()
	inproc, isolated := t.TempDir(), t.TempDir()
	mustRun(t, inproc, spec, Options{Workers: 2})
	rep := mustRun(t, isolated, spec, Options{Workers: 2, Isolate: true, Timeout: time.Minute})
	if rep.Failed != 0 {
		t.Fatalf("isolated run failed cells: %+v", rep.Failures)
	}
	if !bytes.Equal(readReport(t, inproc), readReport(t, isolated)) {
		t.Fatal("isolated report differs from the in-process report")
	}
}

// TestFinishedCrashGridResumesNothing pins that crash-cell records decode
// from the results log: a finished grid whose log holds crash cells must
// resume with zero cells started, and status must report it done.
func TestFinishedCrashGridResumesNothing(t *testing.T) {
	dir := t.TempDir()
	spec := fastSpec()
	spec.CrashPoints = []uint64{0, 50}
	rep := mustRun(t, dir, spec, Options{Workers: 2})
	if rep.Total != 4 {
		t.Fatalf("grid has %d cells, want 4", rep.Total)
	}
	crash := 0
	for _, c := range append(append([]CellResult(nil), rep.Cells...), rep.Failures...) {
		if c.Crash != nil {
			crash++
		}
	}
	if crash != 2 {
		t.Fatalf("%d crash cells ran, want 2 (report %+v)", crash, rep)
	}
	before := readReport(t, dir)

	reg := metrics.NewRegistry()
	coord, err := Open(dir, Options{Workers: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Run(); err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter("grid_cells_started_total", "").Value(); n != 0 {
		t.Fatalf("resume of a finished crash grid started %d cells, want 0", n)
	}
	if !bytes.Equal(readReport(t, dir), before) {
		t.Fatal("resume rewrote report.json differently")
	}
	code, out, errb := runCLI(t, "status", "-dir", dir)
	if code != 0 || !strings.Contains(out, "4/4 done") || !strings.Contains(out, "report   "+filepath.Join(dir, reportFile)) {
		t.Fatalf("status exit %d out %q stderr %q, want 4/4 done with the report", code, out, errb)
	}
}

// TestRunBuildsEachScriptOnce runs a 4-scheme quick grid in process: every
// cell must get its script from one cache that the Run owns, so the four
// cells share one generated script, and the cache is dropped when Run
// returns.
func TestRunBuildsEachScriptOnce(t *testing.T) {
	coord, err := Create(t.TempDir(), Spec{Name: "q", Workloads: []string{"forkbench"}, Quick: true}, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	caches := map[*workload.Cache]bool{}
	ops := map[*workload.Op]bool{}
	coord.opts.cellFn = func(c CellSpec) CellResult {
		scripts := coord.scripts
		_, s, err := c.build(scripts)
		if err != nil || len(s.Ops) == 0 {
			t.Errorf("%s: script %d ops, err %v", c.Tag(), len(s.Ops), err)
			return stubCell(c)
		}
		mu.Lock()
		caches[scripts], ops[&s.Ops[0]] = true, true
		mu.Unlock()
		return RunCell(c, scripts)
	}
	rep, err := coord.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK != 4 {
		t.Fatalf("report: %d ok, %d failed, want 4 ok", rep.OK, rep.Failed)
	}
	if len(caches) != 1 || caches[nil] {
		t.Errorf("cells saw %d caches (nil among them: %v), want one", len(caches), caches[nil])
	}
	if len(ops) != 1 {
		t.Errorf("4 cells ran %d distinct scripts, want 1", len(ops))
	}
	if coord.scripts != nil {
		t.Error("the script cache outlived Run")
	}
}
