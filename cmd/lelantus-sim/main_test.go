package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// TestBadFlagValuesExitTwo pins the CLI's flag-hardening contract: an
// invalid enum value produces exactly one actionable stderr line naming the
// bad value and exits 2 — before any simulation, file write or profile
// starts.
func TestBadFlagValuesExitTwo(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring the diagnosis must carry
	}{
		{"bad scheme", []string{"-scheme", "lelantos"}, "lelantos"},
		{"bad fidelity", []string{"-fidelity", "fast"}, "fast"},
		{"bad persist", []string{"-persist", "nope"}, "nope"},
		{"bad persist triad arg", []string{"-persist", "triad:x"}, "triad"},
		{"bad mlp", []string{"-mlp", "maybe"}, "maybe"},
		{"bad prefetch", []string{"-prefetch", "nope"}, "nope"},
		{"bad probe format", []string{"-probe", "-probe-format", "csv"}, "csv"},
		{"bad workload", []string{"-workload", "nope"}, "nope"},
		{"negative parallel", []string{"-workload", "forkbench", "-all", "-parallel", "-4"}, "-parallel -4"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, &stdout, &stderr)
			if code != 2 {
				t.Fatalf("exit %d, want 2 (stderr: %s)", code, stderr.String())
			}
			msg := strings.TrimRight(stderr.String(), "\n")
			if strings.Contains(msg, "\n") {
				t.Fatalf("diagnosis is not one line:\n%s", msg)
			}
			if !strings.Contains(msg, tc.want) {
				t.Fatalf("diagnosis %q does not name the bad value %q", msg, tc.want)
			}
			if !strings.HasPrefix(msg, "lelantus-sim: ") {
				t.Fatalf("diagnosis %q does not identify the program", msg)
			}
			if stdout.Len() != 0 {
				t.Fatalf("bad flag value produced stdout output: %q", stdout.String())
			}
		})
	}
}

func TestUnknownFlagExitsTwo(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "no-such-flag") {
		t.Fatalf("stderr %q does not name the unknown flag", stderr.String())
	}
}

func TestListExitsZero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "forkbench") {
		t.Fatalf("-list output %q does not mention forkbench", stdout.String())
	}
}

// TestNegativeKnobsExitTwo pins the range half of the knob contract: a
// negative count is a one-line usage error naming the flag, not a value
// the simulator silently replaces with its default.
func TestNegativeKnobsExitTwo(t *testing.T) {
	for _, flag := range []string{"-mshrs", "-prefetch-depth", "-ranks", "-banks"} {
		t.Run(flag, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run([]string{flag, "-3"}, &stdout, &stderr); code != 2 {
				t.Fatalf("exit %d, want 2 (stderr: %s)", code, stderr.String())
			}
			msg := strings.TrimRight(stderr.String(), "\n")
			if strings.Contains(msg, "\n") || !strings.HasPrefix(msg, "lelantus-sim: "+flag+" ") {
				t.Fatalf("diagnosis %q is not one line naming %s", msg, flag)
			}
			if stdout.Len() != 0 {
				t.Fatalf("bad flag value produced stdout output: %q", stdout.String())
			}
		})
	}
}

// TestOversizeKnobsExitTwo pins the upper bounds: a device of more than
// 4096 banks, whether the product of -ranks and -banks is large or wraps,
// and an MSHR file of more than 4096 registers are one-line usage errors,
// not an out-of-memory crash or a silently different device.
func TestOversizeKnobsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-ranks", "1000000000", "-banks", "64"},
		{"-ranks", "4611686018427387904", "-banks", "4"},
		{"-mlp=on", "-mshrs", "2000000000"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(append([]string{}, args...), &stdout, &stderr); code != 2 {
				t.Fatalf("exit %d, want 2 (stderr: %s)", code, stderr.String())
			}
			msg := strings.TrimRight(stderr.String(), "\n")
			if strings.Contains(msg, "\n") || !strings.HasPrefix(msg, "lelantus-sim: -") {
				t.Fatalf("diagnosis %q is not one line naming a flag", msg)
			}
			if stdout.Len() != 0 {
				t.Fatalf("oversize knob produced stdout output: %q", stdout.String())
			}
		})
	}
}

// TestMemZeroIsDefault pins that -mem 0 selects the 512 MiB default
// machine instead of a machine with no frames.
func TestMemZeroIsDefault(t *testing.T) {
	out := func(mem string) string {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-fidelity", "timing", "-json", "-mem", mem}, &stdout, &stderr); code != 0 {
			t.Fatalf("-mem %s: exit %d, stderr: %s", mem, code, stderr.String())
		}
		return stdout.String()
	}
	if out("0") != out("512") {
		t.Fatal("-mem 0 and -mem 512 report different runs")
	}
}

// TestUnwritableMemProfileFailsBeforeRun pins that a -memprofile path that
// cannot be written fails up front, not after the run it was meant to
// profile.
func TestUnwritableMemProfileFailsBeforeRun(t *testing.T) {
	var stdout, stderr bytes.Buffer
	bad := filepath.Join(t.TempDir(), "no-such-dir", "mem.out")
	if code := run([]string{"-memprofile", bad}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1 (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "memprofile") || stdout.Len() != 0 {
		t.Fatalf("stdout %q stderr %q: want no run and a memprofile diagnosis", stdout.String(), stderr.String())
	}
}
