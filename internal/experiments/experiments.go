// Package experiments regenerates every table and figure of the paper's
// evaluation section (Section V) on the simulator: Fig. 2 (CoW write
// amplification), Table I (metadata encoding comparison), Fig. 9
// (application speedup and write reduction), Fig. 10 (overflow rate, CoW
// cache misses, page access footprints), Table V (copy/init traffic
// share), Fig. 11 (forkbench sensitivity sweeps) and Fig. 12 (counter
// write-strategy impact). cmd/lelantus-bench and the repository-root
// bench_test.go drive these functions.
package experiments

import (
	"fmt"
	"strings"

	"lelantus/internal/core"
	"lelantus/internal/ctrcache"
	"lelantus/internal/probe"
	"lelantus/internal/sim"
	"lelantus/internal/stats"
	"lelantus/internal/workload"
)

// Options scale the experiments.
type Options struct {
	Seed int64
	// Quick shrinks workloads for CI-speed runs; the full sizes are the
	// paper-comparable defaults.
	Quick bool
	// Parallel caps the worker pool that fans independent simulation runs
	// out over CPU cores (<= 0 selects GOMAXPROCS). Every run is a fully
	// isolated machine and results are consumed index-aligned, so reports
	// are byte-identical at any worker count.
	Parallel int
	// Knobs is the machine every run builds on. Reports are byte-identical
	// at either fidelity (pinned by TestFidelityQuickGridEquivalence); the
	// persist-, mlp- and prefetch-matrix experiments override their own
	// axis per cell.
	sim.Knobs
	// Probe, when non-nil, attaches a fresh observability plane (sized by
	// this config) to every machine the experiments build. Each grid cell
	// gets its own plane, so parallel runs never share one; the planes are
	// reachable afterwards only for runs built through machineConfig by the
	// caller (RunOne-style single runs) — grid reports ignore them.
	Probe *probe.Config

	// scripts interns generated workload scripts across the experiments of
	// one option set (set by DefaultOptions; nil just disables sharing).
	scripts *scriptCache
}

// DefaultOptions returns full-size experiment settings.
func DefaultOptions() Options {
	return Options{Seed: 1, scripts: newScriptCache()}
}

// Report is one regenerated table or figure.
type Report struct {
	ID    string       `json:"id"` // e.g. "fig9", "tableV"
	Title string       `json:"title"`
	Table *stats.Table `json:"table"`
	Notes []string     `json:"notes,omitempty"`
}

// String renders the report.
func (r *Report) String() string {
	var b strings.Builder
	b.WriteString(r.Table.String())
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Markdown renders the report as markdown (EXPERIMENTS.md appendix form).
func (r *Report) Markdown() string {
	var b strings.Builder
	b.WriteString(r.Table.Markdown())
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "\n*%s*\n", n)
	}
	return b.String()
}

// machineConfig builds a simulator config for an experiment run.
func (o Options) machineConfig(scheme core.Scheme, mutate func(*sim.Config)) sim.Config {
	cfg := sim.DefaultConfig(scheme)
	o.Apply(&cfg)
	if o.Probe != nil {
		cfg.Mem.Probe = probe.New(*o.Probe)
	}
	if mutate != nil {
		mutate(&cfg)
	}
	return cfg
}

// run executes one script on a fresh machine.
func (o Options) run(scheme core.Scheme, script workload.Script, mutate func(*sim.Config)) (sim.Result, error) {
	return sim.RunWith(o.machineConfig(scheme, mutate), script)
}

// job builds one grid cell from the option set's machine parameters.
func (o Options) job(tag string, scheme core.Scheme, script workload.Script, mutate func(*sim.Config)) sim.GridJob {
	return sim.GridJob{Tag: tag, Config: o.machineConfig(scheme, mutate), Script: script}
}

// runGrid fans a job list out over the configured worker pool. Generators
// build their jobs in row order and consume the index-aligned results in
// the same order, so every table is independent of the worker count. Cell
// failures are isolated per job and aggregated, so one broken cell reports
// every broken sibling alongside it instead of masking them.
func (o Options) runGrid(jobs []sim.GridJob) ([]sim.Result, error) {
	results, errs := sim.RunGridErrs(jobs, o.Parallel)
	var failed []string
	for i, err := range errs {
		if err != nil {
			failed = append(failed, fmt.Sprintf("%s: %v", jobs[i].Tag, err))
		}
	}
	if len(failed) > 0 {
		return results, fmt.Errorf("experiments: %d/%d grid cells failed:\n  %s",
			len(failed), len(jobs), strings.Join(failed, "\n  "))
	}
	return results, nil
}

// forkbenchParams scales forkbench for the option set.
func (o Options) forkbenchParams(huge bool) workload.ForkbenchParams {
	p := workload.DefaultForkbench(huge)
	if o.Quick {
		p.RegionBytes = 4 << 20
		if huge {
			p.RegionBytes = 8 << 20
		}
	}
	return p
}

// pageModes returns the two page-size configurations of the evaluation.
func pageModes() []struct {
	Name string
	Huge bool
} {
	return []struct {
		Name string
		Huge bool
	}{{"4KB", false}, {"2MB", true}}
}

// comparedSchemes is the Fig. 9 scheme order: the three designs compared
// against the Baseline.
func comparedSchemes() []core.Scheme {
	return []core.Scheme{core.SilentShredder, core.Lelantus, core.LelantusCoW}
}

// All regenerates every table and figure in paper order.
func All(o Options) ([]*Report, error) {
	var reports []*Report
	type gen struct {
		name string
		f    func(Options) (*Report, error)
	}
	gens := []gen{
		{"fig2", Fig2},
		{"tableI", TableI},
		{"tableIII", TableIII},
		{"tableIV", TableIV},
		{"fig9-4KB", func(o Options) (*Report, error) { return Fig9(o, false) }},
		{"fig9-2MB", func(o Options) (*Report, error) { return Fig9(o, true) }},
		{"fig10", Fig10},
		{"tableV", TableV},
		{"fig11-4KB", func(o Options) (*Report, error) { return Fig11(o, false) }},
		{"fig11-2MB", func(o Options) (*Report, error) { return Fig11(o, true) }},
		{"fig12", Fig12},
		{"ablation-nonsecure", AblationNonSecure},
		{"ablation-cowcache", AblationCoWCache},
		{"ablation-ctrcache", AblationCtrCache},
		{"ablation-wear", AblationWear},
		{"ablation-tlb", AblationTLB},
		{"usecases", UseCases},
		{"ablation-writequeue", AblationWriteQueue},
		{"persist-matrix", PersistMatrix},
		{"mlp-matrix", MLPMatrix},
		{"prefetch-matrix", PrefetchMatrix},
	}
	for _, g := range gens {
		r, err := g.f(o)
		if err != nil {
			return reports, fmt.Errorf("experiments: %s: %w", g.name, err)
		}
		reports = append(reports, r)
	}
	return reports, nil
}

// generatorByID resolves an experiment identifier (including the fig9 /
// fig11 aliases) to its generator.
func generatorByID(id string) (func(Options) (*Report, error), error) {
	switch id {
	case "fig2":
		return Fig2, nil
	case "tableI":
		return TableI, nil
	case "tableIII":
		return TableIII, nil
	case "tableIV":
		return TableIV, nil
	case "fig9", "fig9-4KB":
		return func(o Options) (*Report, error) { return Fig9(o, false) }, nil
	case "fig9-2MB":
		return func(o Options) (*Report, error) { return Fig9(o, true) }, nil
	case "fig10":
		return Fig10, nil
	case "tableV":
		return TableV, nil
	case "fig11", "fig11-4KB":
		return func(o Options) (*Report, error) { return Fig11(o, false) }, nil
	case "fig11-2MB":
		return func(o Options) (*Report, error) { return Fig11(o, true) }, nil
	case "fig12":
		return Fig12, nil
	case "ablation-nonsecure":
		return AblationNonSecure, nil
	case "ablation-cowcache":
		return AblationCoWCache, nil
	case "ablation-ctrcache":
		return AblationCtrCache, nil
	case "ablation-wear":
		return AblationWear, nil
	case "ablation-tlb":
		return AblationTLB, nil
	case "usecases":
		return UseCases, nil
	case "ablation-writequeue":
		return AblationWriteQueue, nil
	case "persist-matrix":
		return PersistMatrix, nil
	case "mlp-matrix":
		return MLPMatrix, nil
	case "prefetch-matrix":
		return PrefetchMatrix, nil
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q (see -list)", id)
}

// Lookup validates an experiment identifier without running it, so a CLI
// can reject a typo before any simulation starts. It returns the id.
func Lookup(id string) (string, error) {
	if _, err := generatorByID(id); err != nil {
		return "", err
	}
	return id, nil
}

// ByID regenerates a single experiment.
func ByID(o Options, id string) (*Report, error) {
	gen, err := generatorByID(id)
	if err != nil {
		return nil, err
	}
	return gen(o)
}

// IDs lists the experiment identifiers in paper order.
func IDs() []string {
	return []string{"fig2", "tableI", "tableIII", "tableIV", "fig9-4KB",
		"fig9-2MB", "fig10", "tableV", "fig11-4KB", "fig11-2MB", "fig12",
		"ablation-nonsecure", "ablation-cowcache", "ablation-ctrcache",
		"ablation-wear", "ablation-tlb", "usecases", "ablation-writequeue",
		"persist-matrix", "mlp-matrix", "prefetch-matrix"}
}

var _ = ctrcache.WriteBack // referenced by fig12.go
