package grid

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"lelantus/internal/metrics"
)

// smokeSpec is the throwaway grid the telemetry tests drive: small enough
// for sub-second cells, wide enough to exercise parallelism.
func smokeSpec(schemes ...string) Spec {
	if len(schemes) == 0 {
		schemes = []string{"baseline", "lelantus"}
	}
	return Spec{Workloads: []string{"forkbench"}, Schemes: schemes, RegionKB: 64}
}

// TestCoordinatorTelemetryCounters drives the coordinator with a scripted
// cellFn and checks every instrument lands on its deterministic value:
// started/finished equal the cell count, one permanently failing cell
// shows up in failed and retried, and the queue drains to zero.
func TestCoordinatorTelemetryCounters(t *testing.T) {
	reg := metrics.NewRegistry()
	spec := smokeSpec("baseline", "silent-shredder", "lelantus", "lelantus-cow")
	cells := spec.Cells()
	failID := cells[1].ID()
	coord, err := Create(t.TempDir(), spec, Options{
		Workers: 2,
		Retries: 2,
		Backoff: time.Millisecond,
		Metrics: reg,
		cellFn: func(c CellSpec) CellResult {
			res := CellResult{ID: c.ID(), Tag: c.Tag(), Spec: c}
			if c.ID() == failID {
				res.Err = "scripted failure"
			}
			return res
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := coord.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK != 3 || rep.Failed != 1 {
		t.Fatalf("report %d ok / %d failed, want 3/1", rep.OK, rep.Failed)
	}
	n := uint64(len(cells))
	checks := []struct {
		name string
		got  uint64
		want uint64
	}{
		{"grid_cells_started_total", reg.Counter("grid_cells_started_total", "").Value(), n},
		{"grid_cells_finished_total", reg.Counter("grid_cells_finished_total", "").Value(), n},
		{"grid_cells_failed_total", reg.Counter("grid_cells_failed_total", "").Value(), 1},
		{"grid_cell_retries_total", reg.Counter("grid_cell_retries_total", "").Value(), 2},
		{"grid_cells_total", uint64(reg.Gauge("grid_cells_total", "").Value()), n},
		{"grid_queue_depth", uint64(reg.Gauge("grid_queue_depth", "").Value()), 0},
		{"grid_cell_wall_ns count", reg.Histogram("grid_cell_wall_ns", "").Snapshot().Count, n},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := metrics.ValidatePrometheus(buf.Bytes()); err != nil {
		t.Errorf("coordinator registry exposition invalid: %v", err)
	}
	p := coord.Progress()
	if p.Done != len(cells) || p.Failed != 1 || p.Running {
		t.Errorf("final progress %+v", p)
	}
}

// TestTelemetryMidRunScrape pins the acceptance criterion: scraping the
// HTTP endpoints while the grid is mid-cell returns a valid Prometheus
// exposition and a JSON status snapshot. A scripted cell blocks until the
// scrape completes, so the test observes a genuinely in-flight run.
func TestTelemetryMidRunScrape(t *testing.T) {
	reg := metrics.NewRegistry()
	inCell := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	coord, err := Create(t.TempDir(), smokeSpec(), Options{
		Workers: 1,
		Metrics: reg,
		cellFn: func(c CellSpec) CellResult {
			once.Do(func() {
				close(inCell)
				<-release
			})
			return CellResult{ID: c.ID(), Tag: c.Tag(), Spec: c}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts, err := StartTelemetry("127.0.0.1:0", reg, coord.Progress)
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()

	runErr := make(chan error, 1)
	go func() {
		_, err := coord.Run()
		runErr <- err
	}()
	select {
	case <-inCell:
	case <-time.After(30 * time.Second):
		t.Fatal("first cell never started")
	}

	get := func(path string) []byte {
		resp, err := http.Get("http://" + ts.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return body
	}

	expo := get("/metrics")
	if err := metrics.ValidatePrometheus(expo); err != nil {
		t.Errorf("mid-run /metrics not a valid exposition: %v\n%s", err, expo)
	}
	if !bytes.Contains(expo, []byte("grid_cells_started_total 1")) {
		t.Errorf("mid-run exposition missing the in-flight cell:\n%s", expo)
	}
	var status struct {
		Progress Progress          `json:"progress"`
		Metrics  []json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal(get("/status"), &status); err != nil {
		t.Fatalf("/status not JSON: %v", err)
	}
	if status.Progress.Total != 2 || status.Progress.Done != 0 || !status.Progress.Running {
		t.Errorf("mid-run progress %+v, want 0/2 running", status.Progress)
	}
	if len(status.Metrics) == 0 {
		t.Error("/status carries no metrics")
	}
	if body := get("/debug/pprof/cmdline"); len(body) == 0 {
		t.Error("pprof cmdline endpoint empty")
	}

	close(release)
	if err := <-runErr; err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("grid_cells_finished_total", "").Value(); got != 2 {
		t.Errorf("finished = %d, want 2", got)
	}
}

// TestCLITelemetryEndToEnd runs the real CLI with -telemetry-addr on an
// ephemeral port and a fast heartbeat, then checks every telemetry
// artefact: the listening line, parseable heartbeat JSON on stderr, a
// final telemetry.json, and the live line in `status`.
func TestCLITelemetryEndToEnd(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "g")
	code, _, errb := runCLI(t, "run", "-dir", dir,
		"-workloads", "forkbench", "-schemes", "baseline,lelantus",
		"-region-kb", "64", "-quiet",
		"-telemetry-addr", "127.0.0.1:0", "-heartbeat", "10ms")
	if code != 0 {
		t.Fatalf("run exit %d, stderr: %s", code, errb)
	}
	if !strings.Contains(errb, "telemetry on http://127.0.0.1:") {
		t.Errorf("stderr missing the telemetry listening line:\n%s", errb)
	}
	var beats []Progress
	for _, line := range strings.Split(errb, "\n") {
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var p Progress
		if err := json.Unmarshal([]byte(line), &p); err != nil {
			t.Fatalf("unparseable heartbeat line %q: %v", line, err)
		}
		beats = append(beats, p)
	}
	if len(beats) == 0 {
		t.Fatalf("no heartbeat lines on stderr:\n%s", errb)
	}
	final := beats[len(beats)-1]
	if final.Running || final.Done != 2 || final.Total != 2 || final.Failed != 0 {
		t.Errorf("final heartbeat %+v, want finished 2/2", final)
	}

	p, ok := ReadTelemetry(dir)
	if !ok {
		t.Fatal("telemetry.json missing after a -heartbeat run")
	}
	if p.Running || p.Done != 2 || p.Total != 2 {
		t.Errorf("telemetry.json %+v, want finished 2/2", p)
	}

	code, out, _ := runCLI(t, "status", "-dir", dir)
	if code != 0 {
		t.Fatalf("status exit %d", code)
	}
	if !strings.Contains(out, "live     finished") || !strings.Contains(out, "2/2 done") {
		t.Errorf("status output missing the live telemetry line:\n%s", out)
	}
}

// TestCLIProfileFlags checks -cpuprofile/-memprofile produce non-empty
// pprof files, and that an unwritable profile path fails before the run.
func TestCLIProfileFlags(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "g")
	cpu := filepath.Join(t.TempDir(), "cpu.pb.gz")
	mem := filepath.Join(t.TempDir(), "mem.pb.gz")
	code, _, errb := runCLI(t, "run", "-dir", dir,
		"-workloads", "forkbench", "-schemes", "lelantus", "-region-kb", "64",
		"-quiet", "-cpuprofile", cpu, "-memprofile", mem)
	if code != 0 {
		t.Fatalf("run exit %d, stderr: %s", code, errb)
	}
	for _, path := range []string{cpu, mem} {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile %s: %v", path, err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", path)
		}
	}

	code, _, errb = runCLI(t, "run", "-dir", filepath.Join(t.TempDir(), "g2"),
		"-workloads", "forkbench", "-schemes", "lelantus", "-region-kb", "64",
		"-quiet", "-cpuprofile", filepath.Join(t.TempDir(), "no-such-dir", "cpu.out"))
	if code != 1 || !strings.Contains(errb, "cpuprofile") {
		t.Fatalf("bad cpuprofile path: exit %d stderr %q, want 1 with the cause", code, errb)
	}
}

// TestTailCellPercentiles pins the -tail axis: a tail cell records a
// deterministic per-event-class percentile table (simulated time), and
// attaching the probe does not perturb the measured result.
func TestTailCellPercentiles(t *testing.T) {
	base := CellSpec{Workload: "forkbench", Scheme: "lelantus", Fidelity: "timing", RegionKB: 64}
	tail := base
	tail.Tail = true

	r1, r2 := RunCell(tail, nil), RunCell(tail, nil)
	if r1.Err != "" {
		t.Fatalf("tail cell failed: %s", r1.Err)
	}
	if len(r1.Tail) == 0 {
		t.Fatal("tail cell recorded no percentile table")
	}
	if !reflect.DeepEqual(r1.Tail, r2.Tail) {
		t.Errorf("tail table differs across identical runs:\n%+v\n%+v", r1.Tail, r2.Tail)
	}
	classes := map[string]TailClass{}
	for _, tc := range r1.Tail {
		classes[tc.Class] = tc
		if tc.Count == 0 {
			t.Errorf("class %s has a row but zero count", tc.Class)
		}
		if tc.P50 > tc.P90 || tc.P90 > tc.P99 || tc.P99 > tc.P999 {
			t.Errorf("class %s percentiles not monotone: %+v", tc.Class, tc)
		}
	}
	for _, want := range []string{"read", "write"} {
		if _, ok := classes[want]; !ok {
			t.Errorf("tail table missing event class %q", want)
		}
	}

	plain := RunCell(base, nil)
	if plain.Tail != nil {
		t.Error("non-tail cell recorded a percentile table")
	}
	if !reflect.DeepEqual(plain.Result, r1.Result) {
		t.Error("attaching the tail probe changed the measured result")
	}
}

// TestGridReportByteIdenticalWithTelemetry is the determinism gate for the
// whole telemetry plane: the same grid run with -telemetry-addr and
// -heartbeat enabled — across a kill/resume cycle and a different worker
// count — produces a report.json byte-identical to a plain, uninterrupted,
// telemetry-free run.
func TestGridReportByteIdenticalWithTelemetry(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess kill/resume harness skipped in -short")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	specArgs := []string{
		"-workloads", "forkbench",
		"-schemes", "baseline,silent-shredder,lelantus,lelantus-cow",
		"-region-kb", "64",
		"-tail",
		"-quiet",
	}
	telemetryArgs := []string{"-telemetry-addr", "127.0.0.1:0", "-heartbeat", "10ms"}
	gridCmd := func(args ...string) *exec.Cmd {
		cmd := exec.Command(exe, args...)
		cmd.Env = append(os.Environ(), reexecEnv+"=1")
		return cmd
	}

	// Reference: telemetry off, default workers, uninterrupted.
	refDir := filepath.Join(t.TempDir(), "ref")
	if out, err := gridCmd(append([]string{"run", "-dir", refDir}, specArgs...)...).CombinedOutput(); err != nil {
		t.Fatalf("reference run: %v\n%s", err, out)
	}
	want, err := os.ReadFile(filepath.Join(refDir, reportFile))
	if err != nil {
		t.Fatal(err)
	}

	// Victim: telemetry on, single worker, killed after the second record.
	telDir := filepath.Join(t.TempDir(), "tel")
	victimArgs := append(append([]string{"run", "-dir", telDir, "-workers", "1"}, specArgs...), telemetryArgs...)
	victim := gridCmd(victimArgs...)
	if err := victim.Start(); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(telDir, logFile)
	exited := make(chan error, 1)
	go func() { exited <- victim.Wait() }()
	deadline := time.After(2 * time.Minute)
poll:
	for {
		select {
		case err := <-exited:
			if err != nil {
				t.Fatalf("victim exited early: %v", err)
			}
			break poll // finished before the kill; the comparison still holds
		case <-deadline:
			victim.Process.Kill()
			t.Fatal("victim never reached the kill threshold")
		case <-time.After(2 * time.Millisecond):
			data, err := os.ReadFile(logPath)
			if err == nil && bytes.Count(data, []byte{'\n'}) >= 2 {
				victim.Process.Kill()
				<-exited
				break poll
			}
		}
	}

	// Resume with telemetry still on and a different worker count.
	resumeArgs := append([]string{"resume", "-dir", telDir, "-workers", "3", "-quiet"}, telemetryArgs...)
	if out, err := gridCmd(resumeArgs...).CombinedOutput(); err != nil {
		t.Fatalf("telemetry resume: %v\n%s", err, out)
	}

	got, err := os.ReadFile(filepath.Join(telDir, reportFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("telemetry-on (kill/resume) report differs from the plain run:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
	// The telemetry artefacts exist, but strictly outside the report.
	if _, ok := ReadTelemetry(telDir); !ok {
		t.Error("telemetry.json missing after a -heartbeat run")
	}
	if bytes.Contains(got, []byte("cellsPerSec")) || bytes.Contains(got, []byte("unixMs")) {
		t.Error("report.json contains telemetry fields")
	}
}
