// Package grid is the resumable, fault-tolerant experiment-grid service:
// a coordinator that shards a deterministic cell enumeration (cell ID =
// stable hash of the full job spec) across worker goroutines and optional
// worker subprocesses, and streams every finished cell as one checksummed
// JSON line to an append-only results log. The log is the grid's only
// progress record; state.json holds the grid's identity (its resolved spec
// and hash) and is written once, atomically, when the grid is created. So
// a SIGKILL at any instant resumes without recomputing finished cells, a
// torn final record is detected by checksum and re-run, and the merged
// report is byte-identical to an uninterrupted run (merge sorts by cell
// ID, never by completion order). DESIGN.md §16 documents the write
// discipline and the determinism argument.
package grid

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"

	"lelantus/internal/core"
	"lelantus/internal/sim"
	"lelantus/internal/workload"
)

// CellSpec is the fully serializable description of one grid cell: enough
// to rebuild the machine configuration and the workload script bit for bit
// in any process, which is what lets cells run in worker subprocesses and
// lets a resumed run recognise finished cells. Every field is a value (no
// closures, no pointers), and the canonical JSON encoding of the struct is
// the input of the cell's stable ID.
type CellSpec struct {
	// Workload is a catalogue name (see lelantus-sim -list).
	Workload string `json:"workload"`
	Huge     bool   `json:"huge,omitempty"`
	Seed     int64  `json:"seed"`
	// Scheme/Fidelity/Persist/MLP/Prefetch are the flag spellings, parsed
	// by sim.Knobs like the CLIs' flags; empty strings select the defaults
	// (full fidelity, strict persistence, mlp/prefetch off).
	Scheme        string `json:"scheme"`
	Fidelity      string `json:"fidelity,omitempty"`
	Persist       string `json:"persist,omitempty"`
	MLP           string `json:"mlp,omitempty"`
	Prefetch      string `json:"prefetch,omitempty"`
	PrefetchDepth int    `json:"prefetchDepth,omitempty"`
	// FaultSeed seeds the fault plane of a crash cell; CrashPoint > 0
	// turns the cell into a crash-recovery cell (sim.CrashAt at that
	// persist point) instead of a plain measurement run.
	FaultSeed  int64  `json:"faultSeed,omitempty"`
	CrashPoint uint64 `json:"crashPoint,omitempty"`
	// MemMB sizes the simulated NVM (0 = memctrl's 16 GiB default). Quick
	// selects reduced workload sizes where a workload supports them
	// (forkbench), and RegionKB overrides the forkbench region outright —
	// the knob the smoke grids use for sub-second cells.
	MemMB    uint64 `json:"memMB,omitempty"`
	Quick    bool   `json:"quick,omitempty"`
	RegionKB uint64 `json:"regionKB,omitempty"`
	Ranks    int    `json:"ranks,omitempty"`
	Banks    int    `json:"banks,omitempty"`
	// Tail attaches a probe plane to measurement cells and records per-
	// event-class tail-latency percentiles (simulated time, so still
	// deterministic) in the cell result. omitempty keeps the canonical JSON
	// — and therefore every pre-existing cell ID — unchanged when off.
	Tail bool `json:"tail,omitempty"`
}

// ID is the cell's stable identity: the hex-truncated SHA-256 of the
// spec's canonical JSON. Two cells with the same spec have the same ID in
// every process and every run — the property resume and the merged
// report's sort order are built on.
func (c CellSpec) ID() string {
	// CellSpec is a struct of plain values; Marshal cannot fail on it.
	payload, _ := json.Marshal(c)
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:8])
}

// Tag is the human-readable cell label used in progress and error lines.
func (c CellSpec) Tag() string {
	tag := c.Workload
	if c.Huge {
		tag += "/2MB"
	}
	tag += "/" + c.Scheme
	if c.Persist != "" && c.Persist != "strict" {
		tag += "/persist=" + c.Persist
	}
	if c.MLP == "on" {
		tag += "/mlp"
	}
	if c.Prefetch != "" && c.Prefetch != "off" {
		tag += "/prefetch=" + c.Prefetch
	}
	if c.CrashPoint > 0 {
		tag += fmt.Sprintf("/crash@%d", c.CrashPoint)
	}
	return tag
}

// Build resolves the spec into a machine configuration and a freshly
// generated workload script. Every knob is parsed and range-checked by
// sim.Knobs, the parser behind the CLI flags, so a spec that came from disk
// (a resumed state.json, a worker's stdin) fails with an actionable error
// instead of a panic or a silent default.
func (c CellSpec) Build() (sim.Config, workload.Script, error) {
	return c.build(nil)
}

// build is Build with the script taken from scripts (nil builds afresh).
func (c CellSpec) build(scripts *workload.Cache) (sim.Config, workload.Script, error) {
	cfg, err := c.config()
	if err != nil {
		return sim.Config{}, workload.Script{}, err
	}
	if c.Workload == "forkbench" && c.RegionKB > cfg.Mem.MemBytes>>10 {
		return sim.Config{}, workload.Script{}, fmt.Errorf("regionKB %d: region exceeds the %d MiB machine", c.RegionKB, cfg.Mem.MemBytes>>20)
	}
	script, err := scripts.Get(workload.Key{Name: c.Workload, Huge: c.Huge, Seed: c.Seed, Quick: c.Quick, RegionKB: c.RegionKB})
	if err != nil {
		return sim.Config{}, workload.Script{}, err
	}
	return cfg, script, nil
}

// config resolves the scheme and the knobs into a machine configuration.
func (c CellSpec) config() (sim.Config, error) {
	scheme, err := core.ParseScheme(c.Scheme)
	if err != nil {
		return sim.Config{}, err
	}
	k := sim.Knobs{
		Prefetch: core.PrefetchConfig{Depth: c.PrefetchDepth},
		Ranks:    c.Ranks,
		Banks:    c.Banks,
	}
	mem := ""
	if c.MemMB > 0 {
		mem = strconv.FormatUint(c.MemMB, 10)
	}
	for _, kv := range [...][2]string{{"fidelity", c.Fidelity}, {"persist", c.Persist}, {"mlp", c.MLP}, {"prefetch", c.Prefetch}, {"mem", mem}} {
		if kv[1] == "" {
			continue // the knob's default
		}
		if err := k.Set(kv[0], kv[1]); err != nil {
			return sim.Config{}, err
		}
	}
	if err := k.Validate(); err != nil {
		return sim.Config{}, err
	}
	cfg := sim.DefaultConfig(scheme)
	if k.MemBytes == 0 {
		// memMB 0 keeps memctrl's 16 GiB default, which every grid has run
		// at: the capacity is not part of a cell's ID, so resolving it any
		// other way would mix two machines in one resumed report.
		k.MemBytes = cfg.Mem.MemBytes
	}
	k.Apply(&cfg)
	return cfg, nil
}

// Spec is a grid specification: the axes whose cross product is the cell
// list. The zero value of every axis selects a sensible default, so a
// spec can be as small as {Workloads: ["forkbench"]}. Cells() enumerates
// the cross product in a fixed nested-loop order; the enumeration order
// only affects scheduling (the merged report sorts by cell ID), but it is
// deterministic so shards are stable across resume.
type Spec struct {
	Name      string   `json:"name"`
	Workloads []string `json:"workloads"`
	// Huge lists the page modes to sweep (default {false} = 4 KB pages).
	Huge    []bool   `json:"huge,omitempty"`
	Seeds   []int64  `json:"seeds,omitempty"`   // default {1}
	Schemes []string `json:"schemes,omitempty"` // default all four
	// Fidelity applies to every cell (default "timing": the grid is a bulk
	// statistics run and reports are pinned byte-identical either way).
	Fidelity string   `json:"fidelity,omitempty"`
	Persist  []string `json:"persist,omitempty"`  // default {"strict"}
	MLP      []string `json:"mlp,omitempty"`      // default {"off"}
	Prefetch []string `json:"prefetch,omitempty"` // default {"off"}
	// CrashPoints > 0 adds crash-recovery cells; FaultSeeds seeds their
	// fault planes (default {1}). An empty CrashPoints list means plain
	// measurement cells only.
	FaultSeeds    []int64  `json:"faultSeeds,omitempty"`
	CrashPoints   []uint64 `json:"crashPoints,omitempty"`
	PrefetchDepth int      `json:"prefetchDepth,omitempty"`
	MemMB         uint64   `json:"memMB,omitempty"`
	Quick         bool     `json:"quick,omitempty"`
	RegionKB      uint64   `json:"regionKB,omitempty"`
	Ranks         int      `json:"ranks,omitempty"`
	Banks         int      `json:"banks,omitempty"`
	// Tail records per-event-class latency percentiles in every
	// measurement cell's result (see CellSpec.Tail).
	Tail bool `json:"tail,omitempty"`
}

func defaultStrings(v []string, def ...string) []string {
	if len(v) == 0 {
		return def
	}
	return v
}

// withDefaults returns the spec with every empty axis filled in, so the
// enumeration below (and the spec hash recorded in the checkpoint) sees
// the resolved axes.
func (s Spec) withDefaults() Spec {
	if s.Name == "" {
		s.Name = "grid"
	}
	s.Workloads = defaultStrings(s.Workloads, "forkbench")
	if len(s.Huge) == 0 {
		s.Huge = []bool{false}
	}
	if len(s.Seeds) == 0 {
		s.Seeds = []int64{1}
	}
	if len(s.Schemes) == 0 {
		s.Schemes = nil
		for _, sc := range core.Schemes() {
			s.Schemes = append(s.Schemes, sc.String())
		}
	}
	if s.Fidelity == "" {
		s.Fidelity = "timing"
	}
	s.Persist = defaultStrings(s.Persist, "strict")
	s.MLP = defaultStrings(s.MLP, "off")
	s.Prefetch = defaultStrings(s.Prefetch, "off")
	if len(s.FaultSeeds) == 0 {
		s.FaultSeeds = []int64{1}
	}
	if len(s.CrashPoints) == 0 {
		s.CrashPoints = []uint64{0}
	}
	return s
}

// Cells enumerates the cross product in fixed nested-loop order. The
// returned specs are fully resolved (defaults applied), so cell IDs are
// stable no matter how sparsely the Spec was written.
func (s Spec) Cells() []CellSpec {
	s = s.withDefaults()
	var cells []CellSpec
	for _, wl := range s.Workloads {
		for _, huge := range s.Huge {
			for _, seed := range s.Seeds {
				for _, scheme := range s.Schemes {
					for _, persist := range s.Persist {
						for _, mlp := range s.MLP {
							for _, pf := range s.Prefetch {
								for _, cp := range s.CrashPoints {
									seeds := []int64{0}
									if cp > 0 {
										seeds = s.FaultSeeds
									}
									for _, fs := range seeds {
										cells = append(cells, CellSpec{
											Workload:      wl,
											Huge:          huge,
											Seed:          seed,
											Scheme:        scheme,
											Fidelity:      s.Fidelity,
											Persist:       persist,
											MLP:           mlp,
											Prefetch:      pf,
											PrefetchDepth: s.PrefetchDepth,
											FaultSeed:     fs,
											CrashPoint:    cp,
											MemMB:         s.MemMB,
											Quick:         s.Quick,
											RegionKB:      s.RegionKB,
											Ranks:         s.Ranks,
											Banks:         s.Banks,
											Tail:          s.Tail,
										})
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return cells
}

// Validate checks every axis value with the same parsers Build uses and
// rejects duplicate cell IDs (a spec listing an axis value twice would
// otherwise silently collapse in the resume bookkeeping). It returns a
// one-line actionable error for the first problem found. Workloads are
// only resolved by name: generating a script cannot fail after that.
func (s Spec) Validate() error {
	cells := s.Cells()
	if len(cells) == 0 {
		return fmt.Errorf("grid: spec enumerates no cells")
	}
	seen := make(map[string]int, len(cells))
	for i, c := range cells {
		_, err := c.config()
		if err == nil {
			_, err = workload.ByName(c.Workload)
		}
		if err != nil {
			return fmt.Errorf("grid: cell %d (%s): %w", i, c.Tag(), err)
		}
		id := c.ID()
		if prev, dup := seen[id]; dup {
			return fmt.Errorf("grid: cells %d and %d are identical (%s): deduplicate the spec's axes", prev, i, c.Tag())
		}
		seen[id] = i
	}
	return nil
}

// Hash is the spec's identity: the hex-truncated SHA-256 of the resolved
// spec's canonical JSON. resume refuses to continue a directory whose
// checkpoint hash differs from the spec it re-derives, so a run can never
// silently merge cells from two different grids.
func (s Spec) Hash() string {
	// Spec is a struct of plain values; Marshal cannot fail on it.
	payload, _ := json.Marshal(s.withDefaults())
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:8])
}

// Presets returns the named grid specs mirroring the experiment harness's
// matrix experiments (persist-matrix, mlp-matrix, prefetch-matrix) plus
// the quick smoke grid and the crash matrix, so the resumable service
// runs the same sweeps `lelantus-bench` runs in one process. The presets
// produce the raw per-cell results; the derived comparison tables
// (speedup-vs-baseline columns) remain lelantus-bench's job.
func Presets() []Spec {
	all := []string{"baseline", "silent-shredder", "lelantus", "lelantus-cow"}
	return []Spec{
		{
			Name:      "quick",
			Workloads: []string{"forkbench"},
			Schemes:   all,
			Quick:     true,
		},
		{
			Name:      "schemes-matrix",
			Workloads: []string{"boot", "compile", "forkbench", "redis", "mariadb", "shell"},
			Huge:      []bool{false, true},
			Schemes:   all,
		},
		{
			Name:      "persist-matrix",
			Workloads: []string{"forkbench"},
			Schemes:   all,
			Persist:   []string{"strict", "phoenix", "triad:1", "triad:2"},
			Quick:     true,
		},
		{
			Name:      "mlp-matrix",
			Workloads: []string{"forkbench"},
			Schemes:   all,
			MLP:       []string{"off", "on"},
			Quick:     true,
		},
		{
			Name:      "prefetch-matrix",
			Workloads: []string{"forkbench", "shell"},
			Schemes:   all,
			MLP:       []string{"on"},
			Prefetch:  []string{"off", "delta", "chain", "both"},
			Quick:     true,
		},
		{
			Name:        "crash-matrix",
			Workloads:   []string{"forkbench"},
			Schemes:     all,
			FaultSeeds:  []int64{1, 2},
			CrashPoints: []uint64{100, 1000},
			Quick:       true,
		},
	}
}

// PresetByName resolves a preset spec.
func PresetByName(name string) (Spec, error) {
	var names []string
	for _, p := range Presets() {
		if p.Name == name {
			return p, nil
		}
		names = append(names, p.Name)
	}
	return Spec{}, fmt.Errorf("grid: unknown preset %q (want one of %v)", name, names)
}
