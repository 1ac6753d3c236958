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
	"slices"
	"strings"

	"lelantus/internal/core"
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

// experiment is one registry entry: its id, any aliases it also answers
// to, and its generator.
type experiment struct {
	id      string
	aliases []string
	gen     func(Options) (*Report, error)
}

// registry lists every experiment in paper order. All, ByID, Lookup and IDs
// all read it.
var registry = []experiment{
	{"fig2", nil, Fig2},
	{"tableI", nil, TableI},
	{"tableIII", nil, TableIII},
	{"tableIV", nil, TableIV},
	{"fig9-4KB", []string{"fig9"}, func(o Options) (*Report, error) { return Fig9(o, false) }},
	{"fig9-2MB", nil, func(o Options) (*Report, error) { return Fig9(o, true) }},
	{"fig10", nil, Fig10},
	{"tableV", nil, TableV},
	{"fig11-4KB", []string{"fig11"}, func(o Options) (*Report, error) { return Fig11(o, false) }},
	{"fig11-2MB", nil, func(o Options) (*Report, error) { return Fig11(o, true) }},
	{"fig12", nil, Fig12},
	{"ablation-nonsecure", nil, AblationNonSecure},
	{"ablation-cowcache", nil, AblationCoWCache},
	{"ablation-ctrcache", nil, AblationCtrCache},
	{"ablation-wear", nil, AblationWear},
	{"ablation-tlb", nil, AblationTLB},
	{"usecases", nil, UseCases},
	{"ablation-writequeue", nil, AblationWriteQueue},
	{"persist-matrix", nil, PersistMatrix},
	{"mlp-matrix", nil, MLPMatrix},
	{"prefetch-matrix", nil, PrefetchMatrix},
}

// All regenerates every table and figure in paper order.
func All(o Options) ([]*Report, error) {
	var reports []*Report
	for _, x := range registry {
		r, err := x.gen(o)
		if err != nil {
			return reports, fmt.Errorf("experiments: %s: %w", x.id, err)
		}
		reports = append(reports, r)
	}
	return reports, nil
}

// find resolves an experiment identifier or alias to its registry entry.
func find(id string) (*experiment, error) {
	for i := range registry {
		x := &registry[i]
		if x.id == id || slices.Contains(x.aliases, id) {
			return x, nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q (see -list)", id)
}

// Lookup validates an experiment identifier without running it, so a CLI
// can reject a typo before any simulation starts. It returns the id.
func Lookup(id string) (string, error) {
	if _, err := find(id); err != nil {
		return "", err
	}
	return id, nil
}

// ByID regenerates a single experiment.
func ByID(o Options, id string) (*Report, error) {
	x, err := find(id)
	if err != nil {
		return nil, err
	}
	return x.gen(o)
}

// IDs lists the experiment identifiers in paper order.
func IDs() []string {
	ids := make([]string, len(registry))
	for i, x := range registry {
		ids[i] = x.id
	}
	return ids
}
