// Package lelantus is a library-grade reproduction of "Lelantus:
// Fine-Granularity Copy-On-Write Operations for Secure Non-Volatile
// Memories" (Zhou, Awad, Wang — ISCA 2020).
//
// It simulates a secure-NVM machine — counter-mode encryption with
// split counters, Bonsai Merkle Tree integrity, a counter cache, a
// three-level cache hierarchy, a banked NVM device, and a Linux-like
// kernel with fork/CoW/huge pages — and implements four CoW designs on
// top of it:
//
//	Baseline        conventional page-granularity CoW
//	SilentShredder  zero-initialisation elision via zero counters
//	Lelantus        fine-grained CoW via resized counter blocks
//	LelantusCoW     fine-grained CoW via supplementary metadata
//
// Quick start:
//
//	res, err := lelantus.Run(lelantus.Lelantus, lelantus.Forkbench(lelantus.DefaultForkbench(false)))
//	base, err := lelantus.Run(lelantus.Baseline, lelantus.Forkbench(lelantus.DefaultForkbench(false)))
//	fmt.Printf("speedup %.2fx, writes cut to %.1f%%\n",
//	        res.SpeedupVs(base), 100*res.WriteReductionVs(base))
//
// The experiment harness under internal/experiments (driven by
// cmd/lelantus-bench and the root bench_test.go) regenerates every table
// and figure of the paper's evaluation section.
//
// Concurrency: a Machine is a single simulated system with one global
// clock and is not safe for concurrent use. Independent simulations run
// on independent Machines (they share nothing); RunGridErrs fans a list
// of (scheme, workload, config) cells out over a shared-index worker pool
// that way, with index-aligned results, so sweeps parallelise without
// changing a single reported byte — that is how the benchmark harness
// runs.
package lelantus

import (
	"lelantus/internal/core"
	"lelantus/internal/probe"
	"lelantus/internal/sim"
	"lelantus/internal/workload"
)

// Scheme selects the CoW design a machine runs.
type Scheme = core.Scheme

// The four designs compared in the paper's evaluation.
const (
	Baseline       = core.Baseline
	SilentShredder = core.SilentShredder
	Lelantus       = core.Lelantus
	LelantusCoW    = core.LelantusCoW
)

// ParseScheme maps a scheme name ("baseline", "silent-shredder",
// "lelantus", "lelantus-cow") to its Scheme value.
func ParseScheme(name string) (Scheme, error) { return core.ParseScheme(name) }

// Fidelity selects whether a machine computes the crypto data plane
// (FidelityFull) or elides it while keeping every reported statistic and
// latency identical (FidelityTiming — the grid/benchmark fast path).
type Fidelity = core.Fidelity

// The two fidelities. FidelityFull is the zero value and the default.
const (
	FidelityFull   = core.FidelityFull
	FidelityTiming = core.FidelityTiming
)

// MLPConfig models memory-level parallelism: an MSHR file that lets a line
// access's counter fetch, BMT verify and data read overlap across device
// banks. It changes simulated timing only; no goroutine starts inside a
// machine. The zero value is disabled — every access chain is then charged
// serially. Set it via
// Config.Mem.Core.MLP.
type MLPConfig = core.MLPConfig

// PrefetchConfig drives the metadata prefetch unit: a per-region delta
// prefetcher over counter-block/CoW-table pages and a redirect-chain walker
// that pre-fetches every hop's metadata on first touch of a redirected
// page. The zero value is off — every report byte then matches the
// prefetch-free engine. Set it via Config.Mem.Core.Prefetch.
type PrefetchConfig = core.PrefetchConfig

// PrefetchMode selects which prefetch schemes run.
type PrefetchMode = core.PrefetchMode

// The prefetch modes. PrefetchOff is the zero value and the default.
const (
	PrefetchOff   = core.PrefetchOff
	PrefetchDelta = core.PrefetchDelta
	PrefetchChain = core.PrefetchChain
	PrefetchBoth  = core.PrefetchBoth
)

// Schemes lists every scheme in comparison order.
func Schemes() []Scheme { return core.Schemes() }

// PersistStrategy selects the metadata persistence policy: which integrity
// metadata (BMT leaf digests, inner nodes) persists alongside every counter
// write and whether supplementary CoW-table updates write through eagerly.
// Choose one by name through the persist knob — Knobs.Set("persist",
// "phoenix"), or "strict", "triad:N" — and stamp it onto a Config with
// Knobs.Apply; the zero value is strict write-through.
type PersistStrategy = core.PersistStrategy

// Knobs is the machine-knob surface the CLIs, the experiment harness and
// the grid share: fidelity (full or timing, the crypto-eliding fast path
// with identical measurements), metadata persistence (strict, Phoenix,
// Triad-NVM), memory-level parallelism, metadata prefetch, NVM capacity
// and geometry. Parse spellings with Set, Parse or RegisterFlags, check
// them with Validate and stamp them onto a Config with Apply:
//
//	var k lelantus.Knobs
//	err := k.Parse("fidelity=timing,persist=phoenix,mlp=on,prefetch=both")
//	cfg := lelantus.DefaultConfig(lelantus.Lelantus)
//	k.Apply(&cfg)
//
// The zero value is the default machine. DESIGN.md's knob table lists
// every knob.
type Knobs = sim.Knobs

// Config assembles a simulated machine (memory subsystem + kernel).
type Config = sim.Config

// DefaultConfig returns the paper's Table III machine for a scheme.
func DefaultConfig(s Scheme) Config { return sim.DefaultConfig(s) }

// Machine is a runnable simulated system.
type Machine = sim.Machine

// NewMachine builds a machine from a configuration.
func NewMachine(cfg Config) (*Machine, error) { return sim.NewMachine(cfg) }

// Result is the measurement of one run's measured phase.
type Result = sim.Result

// Script is a workload: a deterministic sequence of process and memory
// operations over process/region slots.
type Script = workload.Script

// ScriptBuilder assembles custom workloads.
type ScriptBuilder = workload.Builder

// NewScript starts building a custom workload script.
func NewScript(name string) *ScriptBuilder { return workload.NewBuilder(name) }

// WorkloadSpec describes a catalogued workload (paper Table IV).
type WorkloadSpec = workload.Spec

// Workloads returns the benchmark catalogue: boot, compile, forkbench,
// redis, mariadb, shell, and the non-copy control.
func Workloads() []WorkloadSpec { return workload.Catalogue() }

// WorkloadByName looks up a catalogued workload.
func WorkloadByName(name string) (WorkloadSpec, error) { return workload.ByName(name) }

// ForkbenchParams parameterises the forkbench micro-benchmark.
type ForkbenchParams = workload.ForkbenchParams

// DefaultForkbench returns the paper's forkbench settings for a page size.
func DefaultForkbench(huge bool) ForkbenchParams { return workload.DefaultForkbench(huge) }

// Forkbench builds the forkbench script.
func Forkbench(p ForkbenchParams) Script { return workload.Forkbench(p) }

// Run executes the script on a fresh default machine for the scheme.
func Run(s Scheme, script Script) (Result, error) { return sim.RunOne(s, script) }

// RunWith executes the script on a fresh machine built from cfg.
func RunWith(cfg Config, script Script) (Result, error) { return sim.RunWith(cfg, script) }

// GridJob is one independent cell of a scheme × workload × configuration
// sweep, executed on its own fresh machine by RunGridErrs.
type GridJob = sim.GridJob

// RunGridErrs executes every job on a worker pool of at most `workers`
// goroutines (<= 0 selects GOMAXPROCS) with per-cell failure isolation:
// every job runs (and panics are recovered into that job's error slot), so
// one broken cell never discards its siblings' results. Both returned
// slices are index-aligned with jobs: the output is byte-identical at any
// worker count.
func RunGridErrs(jobs []GridJob, workers int) ([]Result, []error) {
	return sim.RunGridErrs(jobs, workers)
}

// RecoveryReport summarises one post-crash metadata scrub (torn counter
// blocks, rebuilt Merkle nodes, CoW-chain invariants, MAC mismatches and
// the modeled recovery cost).
type RecoveryReport = core.RecoveryReport

// CrashCell is the outcome of one crash-sweep cell: a deterministic crash
// at one persist point, an unbattery-backed power cycle, the recovery scrub
// and its invariant-check verdict.
type CrashCell = sim.CrashCell

// CrashPoints counts the persist points a script exercises under cfg — the
// index space CrashAt takes its point from.
func CrashPoints(cfg Config, script Script, faultSeed int64) (uint64, error) {
	return sim.CrashPoints(cfg, script, faultSeed)
}

// CrashAt runs the script, crashes deterministically at persist point n,
// power-cycles without battery, recovers, and verifies that reads after
// recovery are correct, detected, or consistently stale — never silently
// wrong.
func CrashAt(cfg Config, script Script, faultSeed int64, n uint64) (CrashCell, error) {
	return sim.CrashAt(cfg, script, faultSeed, n)
}

// Probe is the simulated-time observability plane: a bounded ring of typed
// events, per-class latency histograms, chain-depth/queue-occupancy
// distributions and periodic counter samples, exportable as a deterministic
// JSON summary or a Chrome trace-event / Perfetto trace. Attach one via
// Config.Mem.Probe before NewMachine; a nil plane is free.
type Probe = probe.Plane

// ProbeConfig sizes a probe plane (ring capacity, sampling interval).
type ProbeConfig = probe.Config

// NewProbe creates an enabled observability plane.
func NewProbe(cfg ProbeConfig) *Probe { return probe.New(cfg) }
