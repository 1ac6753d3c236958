package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestBadFlagValuesExitTwo pins the CLI exit-code contract shared with the
// other commands: a bad flag value is one stderr line naming it, exit 2,
// and no run.
func TestBadFlagValuesExitTwo(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring the diagnosis must carry
	}{
		{"bad scheme", []string{"-scheme", "bogus"}, "bogus"},
		{"negative pages", []string{"-pages", "-3"}, "-pages -3"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 2 {
				t.Fatalf("exit %d, want 2 (stderr: %s)", code, stderr.String())
			}
			msg := strings.TrimRight(stderr.String(), "\n")
			if strings.Contains(msg, "\n") || !strings.HasPrefix(msg, "lelantus-trace: ") || !strings.Contains(msg, tc.want) {
				t.Fatalf("diagnosis %q is not one lelantus-trace line naming %q", msg, tc.want)
			}
			if stdout.Len() != 0 {
				t.Fatalf("bad flag value produced stdout output: %q", stdout.String())
			}
		})
	}
}
