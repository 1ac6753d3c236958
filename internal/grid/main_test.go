package grid

import (
	"os"
	"testing"
	"time"
)

// wedgeEnv, set beside reexecEnv, makes a `worker` subprocess of this test
// binary sleep instead of answering: the wedged cell
// TestIsolateTimeoutKillsWedgedWorker needs its timeout to kill. The
// sleep is bounded so a worker that escaped the kill still exits.
const wedgeEnv = "LELANTUS_GRID_TEST_WEDGE"

// TestMain lets the test binary double as the lelantus-grid CLI: when the
// coordinator (or the kill-resume harness) re-execs os.Executable() with
// LELANTUS_GRID_CLI=1, the process routes straight into CLIMain instead of
// running the test suite. This is how TestGridKillResume drives the whole
// run/kill/resume flow, and how Isolate-mode coordinator tests get worker
// subprocesses, without shelling out to `go build`.
func TestMain(m *testing.M) {
	if os.Getenv(reexecEnv) == "1" {
		if os.Getenv(wedgeEnv) == "1" && len(os.Args) > 1 && os.Args[1] == "worker" {
			time.Sleep(time.Minute)
		}
		os.Exit(CLIMain(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}
