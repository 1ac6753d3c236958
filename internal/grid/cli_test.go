package grid

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lelantus/internal/metrics"
)

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := CLIMain(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestCLIUsageAndFlagErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		code int
		want string // substring of stderr (or stdout for help)
	}{
		{"no args", nil, 2, "lelantus-grid"},
		{"unknown command", []string{"frobnicate"}, 2, "unknown command"},
		{"help", []string{"help"}, 0, ""},
		{"unknown flag", []string{"run", "-dir", "x", "-no-such-flag"}, 2, "no-such-flag"},
		{"bad page mode", []string{"run", "-dir", "x", "-page", "huge"}, 2, "page mode"},
		{"bad seed list", []string{"run", "-dir", "x", "-seeds", "1,zap"}, 2, "bad integer"},
		{"bad preset", []string{"run", "-dir", "x", "-spec", "nope"}, 2, "unknown preset"},
		{"bad scheme", []string{"run", "-dir", "ignored", "-schemes", "nope"}, 2, "scheme"},
		{"bad workload", []string{"run", "-dir", "ignored", "-workloads", "nope"}, 2, "nope"},
		{"status missing dir", []string{"status", "-dir", "/nonexistent-grid"}, 1, "no checkpoint"},
		{"resume missing dir", []string{"resume", "-dir", "/nonexistent-grid"}, 1, "no checkpoint"},
		{"bad heartbeat", []string{"run", "-dir", "x", "-heartbeat", "fast"}, 2, "heartbeat"},
		{"negative workers", []string{"run", "-dir", "ignored", "-workers", "-3"}, 2, "-workers -3"},
		{"negative retries", []string{"run", "-dir", "ignored", "-retries", "-5"}, 2, "-retries -5"},
		{"negative timeout", []string{"run", "-dir", "ignored", "-timeout", "-1s"}, 2, "-timeout -1s"},
		{"negative backoff", []string{"run", "-dir", "ignored", "-backoff", "-1s"}, 2, "-backoff -1s"},
		{"negative heartbeat", []string{"run", "-dir", "ignored", "-heartbeat", "-1s"}, 2, "-heartbeat -1s"},
		{"resume negative workers", []string{"resume", "-dir", "/nonexistent-grid", "-workers", "-3"}, 2, "-workers -3"},
		{"bad telemetry addr", []string{"run", "-dir", "x", "-telemetry-addr", "not-an-addr:not-a-port"}, 1, "telemetry listen"},
		{"promcheck no args", []string{"promcheck"}, 2, "promcheck"},
		{"promcheck missing file", []string{"promcheck", "/nonexistent-scrape.prom"}, 1, "nonexistent-scrape"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Spec errors must fire before any directory is created, so the
			// "ignored" dirs never materialise; others use a throwaway dir.
			args := append([]string(nil), tc.args...)
			for i, a := range args {
				if a == "x" {
					args[i] = filepath.Join(t.TempDir(), "g")
				}
			}
			code, out, errb := runCLI(t, args...)
			if code != tc.code {
				t.Fatalf("exit %d, want %d (stderr: %s)", code, tc.code, errb)
			}
			if tc.want != "" && !strings.Contains(errb, tc.want) {
				t.Fatalf("stderr %q does not contain %q", errb, tc.want)
			}
			if tc.code == 2 {
				lines := strings.Count(strings.TrimRight(errb, "\n"), "\n") + 1
				// flag.Parse prints the message plus usage; our own errors are
				// one line. Either way the first line must carry the cause.
				first, _, _ := strings.Cut(errb, "\n")
				if tc.want != "" && !strings.Contains(first+errb, tc.want) {
					t.Fatalf("first stderr line %q (of %d) not actionable", first, lines)
				}
			}
			_ = out
		})
	}
}

func TestCLIPromCheck(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("grid_cells_started_total", "cells started").Add(3)
	reg.Histogram("grid_cell_wall_ns", "cell wall time").Observe(1234)
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	good := filepath.Join(t.TempDir(), "scrape.prom")
	if err := os.WriteFile(good, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, out, errb := runCLI(t, "promcheck", good); code != 0 || !strings.Contains(out, "promcheck ok") {
		t.Fatalf("valid scrape: exit %d out %q stderr %q", code, out, errb)
	}

	bad := filepath.Join(t.TempDir(), "bad.prom")
	if err := os.WriteFile(bad, []byte("grid_cells_started_total not-a-number\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, errb := runCLI(t, "promcheck", bad); code != 1 || !strings.Contains(errb, "bad.prom") {
		t.Fatalf("malformed scrape: exit %d stderr %q, want 1 naming the file", code, errb)
	}
}

func TestCLIRunStatusResumeFlow(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "g")
	code, out, errb := runCLI(t, "run", "-dir", dir, "-workloads", "forkbench",
		"-schemes", "lelantus,baseline", "-region-kb", "64", "-quiet")
	if code != 0 {
		t.Fatalf("run exit %d, stderr: %s", code, errb)
	}
	if !strings.Contains(out, "2/2 ok, 0 failed") {
		t.Fatalf("run output %q", out)
	}

	code, out, _ = runCLI(t, "status", "-dir", dir)
	if code != 0 || !strings.Contains(out, "2/2 done") || !strings.Contains(out, "2 verified records") {
		t.Fatalf("status exit %d output %q", code, out)
	}

	// A second `run` into the same directory must refuse, pointing at resume.
	code, _, errb = runCLI(t, "run", "-dir", dir, "-workloads", "forkbench",
		"-schemes", "lelantus,baseline", "-region-kb", "64", "-quiet")
	if code != 1 || !strings.Contains(errb, "resume") {
		t.Fatalf("re-run exit %d stderr %q, want a refusal pointing at resume", code, errb)
	}

	code, out, errb = runCLI(t, "resume", "-dir", dir, "-quiet")
	if code != 0 || !strings.Contains(out, "2/2 ok") {
		t.Fatalf("resume exit %d out %q stderr %q", code, out, errb)
	}
}

func TestCLIStrictFailsOnFailedCells(t *testing.T) {
	// A crash point far past the script's persist-point count fails the cell
	// deterministically ("crash point never fired"), so the grid completes
	// with a failures section: exit 0 normally, exit 1 under -strict.
	dir := filepath.Join(t.TempDir(), "g")
	args := []string{"run", "-dir", dir, "-workloads", "forkbench", "-schemes", "lelantus",
		"-region-kb", "64", "-crashpoints", "99999999", "-retries", "0", "-quiet"}
	code, out, _ := runCLI(t, args...)
	if code != 0 {
		t.Fatalf("non-strict run with failed cells exited %d, want 0 (graceful degradation)", code)
	}
	if !strings.Contains(out, "0/1 ok, 1 failed") || !strings.Contains(out, "FAILED") {
		t.Fatalf("run output %q, want the failure surfaced", out)
	}

	dir2 := filepath.Join(t.TempDir(), "g")
	strictArgs := append(append([]string(nil), args...), "-strict")
	for i, a := range strictArgs {
		if a == dir {
			strictArgs[i] = dir2
		}
	}
	if code, _, _ := runCLI(t, strictArgs...); code != 1 {
		t.Fatalf("-strict run with failed cells exited %d, want 1", code)
	}
}

func TestCLIPresetWithOverride(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "g")
	// quick preset is 4 schemes × forkbench; override to one scheme and a
	// smoke-sized region so the test stays sub-second.
	code, out, errb := runCLI(t, "run", "-dir", dir, "-spec", "quick",
		"-schemes", "lelantus", "-region-kb", "64", "-quiet")
	if code != 0 {
		t.Fatalf("preset run exit %d, stderr: %s", code, errb)
	}
	if !strings.Contains(out, "grid quick: 1/1 ok") {
		t.Fatalf("preset run output %q, want the preset name and 1 overridden cell", out)
	}
}

// TestCLINegativeKnobsExitTwo pins the range half of the knob contract on
// the grid's scalar knob flags: a negative count is a one-line usage error
// naming the flag, raised before any directory is created.
func TestCLINegativeKnobsExitTwo(t *testing.T) {
	for _, flag := range []string{"-prefetch-depth", "-ranks", "-banks"} {
		t.Run(flag, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "g")
			code, out, errb := runCLI(t, "run", "-dir", dir, "-workloads", "forkbench", "-region-kb", "64", flag, "-2")
			if code != 2 {
				t.Fatalf("exit %d, want 2 (stderr: %s)", code, errb)
			}
			msg := strings.TrimRight(errb, "\n")
			if strings.Contains(msg, "\n") || !strings.Contains(msg, flag+" -2") {
				t.Fatalf("diagnosis %q is not one line naming %s", msg, flag)
			}
			if out != "" {
				t.Fatalf("bad flag value produced stdout output: %q", out)
			}
			if _, err := os.Stat(dir); !os.IsNotExist(err) {
				t.Fatalf("grid directory created for a bad spec (stat: %v)", err)
			}
		})
	}
}

// TestCLIMemZeroKeepsControllerDefault pins that -mem 0 runs memctrl's
// 16 GiB default machine, the capacity every existing grid directory was
// computed at: the cells' results (which count capacity-dependent tree
// persists) match a -mem 16384 run's and differ from a -mem 512 run's.
func TestCLIMemZeroKeepsControllerDefault(t *testing.T) {
	results := func(mem string) []json.RawMessage {
		dir := filepath.Join(t.TempDir(), "g")
		if code, _, errb := runCLI(t, "run", "-dir", dir, "-workloads", "forkbench", "-schemes", "lelantus",
			"-region-kb", "64", "-mem", mem, "-quiet"); code != 0 {
			t.Fatalf("-mem %s: exit %d, stderr: %s", mem, code, errb)
		}
		var rep struct {
			Cells []struct {
				Result json.RawMessage `json:"result"`
			} `json:"cells"`
		}
		if err := json.Unmarshal(readReport(t, dir), &rep); err != nil {
			t.Fatal(err)
		}
		var out []json.RawMessage
		for _, c := range rep.Cells {
			out = append(out, c.Result)
		}
		return out
	}
	a, b, c := results("0"), results("16384"), results("512")
	if len(a) != 1 || !bytes.Equal(a[0], b[0]) {
		t.Fatalf("-mem 0 results %s differ from -mem 16384 results %s", a, b)
	}
	if bytes.Equal(a[0], c[0]) {
		t.Fatal("-mem 0 results match a -mem 512 run's: the capacity knob has no effect")
	}
}

// TestCLIUnwritableMemProfileFailsBeforeRun pins that a -memprofile path
// that cannot be written fails before any cell runs.
func TestCLIUnwritableMemProfileFailsBeforeRun(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "g")
	code, out, errb := runCLI(t, "run", "-dir", dir, "-workloads", "forkbench", "-schemes", "lelantus",
		"-region-kb", "64", "-quiet", "-memprofile", filepath.Join(t.TempDir(), "no-such-dir", "mem.out"))
	if code != 1 || !strings.Contains(errb, "memprofile") {
		t.Fatalf("exit %d stderr %q, want 1 with the cause", code, errb)
	}
	if out != "" {
		t.Fatalf("stdout %q: want no run", out)
	}
	if data, _ := os.ReadFile(filepath.Join(dir, logFile)); len(data) != 0 {
		t.Fatalf("a cell ran before the profile check: results log %q", data)
	}
}
