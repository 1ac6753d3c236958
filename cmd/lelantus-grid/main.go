// Command lelantus-grid is the resumable, fault-tolerant experiment-grid
// service: it shards a deterministic cell enumeration (schemes × workloads
// × fault seeds × crash points × persist/MLP/prefetch knobs) over a
// checkpointed coordinator's worker pool, streams every finished cell to
// an append-only checksummed results log, and merges a report that is
// byte-identical at any worker count and across any kill/resume sequence.
//
// Usage:
//
//	lelantus-grid run -dir out -workloads forkbench,shell -schemes lelantus,baseline
//	lelantus-grid run -dir out -spec persist-matrix -workers 8 -isolate -timeout 90s
//	lelantus-grid status -dir out
//	lelantus-grid resume -dir out            # after a crash or kill -9
//	lelantus-grid run -dir out -crashpoints 100,1000 -faultseeds 1,2 -strict
package main

import (
	"os"

	"lelantus/internal/grid"
)

func main() {
	os.Exit(grid.CLIMain(os.Args[1:], os.Stdout, os.Stderr))
}
