package grid

import (
	"fmt"
	"runtime/debug"

	"lelantus/internal/probe"
	"lelantus/internal/sim"
	"lelantus/internal/workload"
)

// CellResult is the self-contained outcome of one cell: the spec that
// produced it (so a results log is meaningful without its checkpoint), and
// exactly one of a measurement result, a crash-recovery cell, or an error.
// It deliberately carries nothing host- or schedule-dependent (no wall
// clock, no attempt count, no worker identity): the merged report is built
// from CellResults alone, which is what makes it byte-identical across
// worker counts, run orders and kill/resume sequences.
type CellResult struct {
	ID     string         `json:"id"`
	Tag    string         `json:"tag"`
	Spec   CellSpec       `json:"spec"`
	Result *sim.Result    `json:"result,omitempty"`
	Crash  *sim.CrashCell `json:"crash,omitempty"`
	// Tail is the per-event-class latency percentile table of a Tail cell
	// (simulated nanoseconds from the cell's probe plane, in probe.Kind
	// order — deterministic, so safe inside the byte-compared report).
	Tail []TailClass `json:"tail,omitempty"`
	Err  string      `json:"error,omitempty"`
}

// TailClass is one event class's tail-latency row: percentiles extracted
// from the cell's log-linear latency histogram (~3% bucket resolution).
type TailClass struct {
	Class string `json:"class"`
	Count uint64 `json:"count"`
	P50   uint64 `json:"p50"`
	P90   uint64 `json:"p90"`
	P99   uint64 `json:"p99"`
	P999  uint64 `json:"p999"`
}

// failed reports whether the cell ended in an error. A crash cell with
// recovery-invariant violations is also a failure: the grid exists to
// surface exactly that.
func (r CellResult) failed() bool {
	if r.Err != "" {
		return true
	}
	return r.Crash != nil && len(r.Crash.Violations) > 0
}

// reason is the one-line cause of a failed cell: the error's first line,
// or the first recovery violation of a crash cell that failed its oracle.
func (r CellResult) reason() string {
	if r.Err != "" || r.Crash == nil || len(r.Crash.Violations) == 0 {
		return firstLine(r.Err)
	}
	return fmt.Sprintf("%d recovery violation(s), first: %s", len(r.Crash.Violations), r.Crash.Violations[0])
}

// RunCell executes one cell in the calling process, taking its script from
// scripts (nil builds it afresh, as a worker subprocess running one cell
// does). It never panics and never returns a partial result: any panic
// under the simulation is recovered into the cell's Err field with its
// stack, so a corrupt cell degrades to one failed record instead of
// killing the coordinator or a worker subprocess.
func RunCell(spec CellSpec, scripts *workload.Cache) (out CellResult) {
	out = CellResult{ID: spec.ID(), Tag: spec.Tag(), Spec: spec}
	defer func() {
		if r := recover(); r != nil {
			out.Result, out.Crash = nil, nil
			out.Err = fmt.Sprintf("cell panic: %v\n%s", r, debug.Stack())
		}
	}()
	cfg, script, err := spec.build(scripts)
	if err != nil {
		out.Err = err.Error()
		return out
	}
	if spec.CrashPoint > 0 {
		seed := spec.FaultSeed
		if seed == 0 {
			seed = 1
		}
		cell, err := sim.CrashAt(cfg, script, seed, spec.CrashPoint)
		if err != nil {
			out.Err = err.Error()
			return out
		}
		out.Crash = &cell
		return out
	}
	var pl *probe.Plane
	if spec.Tail {
		// RingCap 1: histograms and totals cover the whole run regardless of
		// ring size, and the percentile table is all this cell keeps.
		pl = probe.New(probe.Config{RingCap: 1})
		cfg.Mem.Probe = pl
	}
	res, err := sim.RunWith(cfg, script)
	if err != nil {
		out.Err = err.Error()
		return out
	}
	out.Result = &res
	if pl != nil {
		for _, e := range pl.Summary().Events {
			out.Tail = append(out.Tail, TailClass{
				Class: e.Kind, Count: e.Count,
				P50: e.P50, P90: e.P90, P99: e.P99, P999: e.P999,
			})
		}
	}
	return out
}
