package sim

import (
	"cmp"
	"flag"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"lelantus/internal/core"
	"lelantus/internal/nvm"
	"lelantus/internal/prefetch"
)

// DefaultMemBytes is the simulated NVM capacity a zero Knobs.MemBytes
// selects: big enough for every workload while keeping host memory modest
// (the paper's 16 GB changes nothing for these working sets).
const DefaultMemBytes = 512 << 20

// MaxBanks caps the device's total bank count (ranks × banks per rank) and
// MaxMSHRs the MSHR file: the simulator allocates state per bank and per
// register, so a larger value would exhaust host memory. Each is 256× or
// more its default.
const (
	MaxBanks = 4096
	MaxMSHRs = 4096
)

// Knobs is the machine-knob surface every front end shares: the CLIs'
// flags, the experiment harness's options, the grid's cell specs and the
// benchmarks' LELANTUS_KNOBS variable all reach a Config through it. Set
// (and Parse, its name=value list form) is the one parser of knob
// spellings, Validate the one range check and Apply the one place knob
// values land in a Config. The zero value is the default machine: full
// fidelity, strict persistence, mlp and prefetch off, 512 MiB, the
// device's default geometry.
type Knobs struct {
	Fidelity core.Fidelity
	// Persist is the metadata persistence strategy (nil = strict).
	Persist core.PersistStrategy
	// MLP carries the mlp and mshrs knobs.
	MLP core.MLPConfig
	// Prefetch carries the prefetch and prefetch-depth knobs.
	Prefetch core.PrefetchConfig
	// MemBytes is the NVM capacity (0 = DefaultMemBytes); its spelling is
	// in MiB.
	MemBytes uint64
	// Ranks and Banks override the device geometry when positive.
	Ranks, Banks int
}

// knob is one row of the knob table: its flag usage text, its parser and
// its spelling (the flags' default text). num is the field behind a
// numeric knob, which Validate range-checks; nil for the others.
type knob struct {
	name, usage string
	set         func(k *Knobs, v string) error
	get         func(k *Knobs) string
	num         func(k *Knobs) *int
}

// numKnob is the row of a non-negative integer knob stored at field.
func numKnob(name, usage string, field func(*Knobs) *int) knob {
	return knob{name: name, usage: usage, num: field,
		set: func(k *Knobs, v string) error {
			n, err := strconv.Atoi(v)
			if err != nil {
				return fmt.Errorf("want an integer, got %q", v)
			}
			*field(k) = n
			return nil
		},
		get: func(k *Knobs) string { return strconv.Itoa(*field(k)) },
	}
}

// knobTable lists every knob in canonical order (the order of DESIGN.md's
// knob table).
var knobTable = []knob{
	{name: "fidelity", usage: "full | timing (timing elides the crypto data plane; measurements are identical)",
		set: func(k *Knobs, v string) (err error) { k.Fidelity, err = core.ParseFidelity(v); return err },
		get: func(k *Knobs) string { return k.Fidelity.String() }},
	{name: "persist", usage: "metadata persistence strategy: strict | phoenix | triad:N",
		set: func(k *Knobs, v string) (err error) { k.Persist, err = core.ParsePersist(v); return err },
		get: func(k *Knobs) string {
			if k.Persist == nil {
				return "strict"
			}
			return k.Persist.Name()
		}},
	{name: "mlp", usage: "memory-level parallelism: off (serial engine) | on (MSHR-overlapped metadata path); measurements change, traffic does not",
		set: func(k *Knobs, v string) (err error) { k.MLP.Enabled, err = core.ParseMLP(v); return err },
		get: func(k *Knobs) string {
			if k.MLP.Enabled {
				return "on"
			}
			return "off"
		}},
	numKnob("mshrs", "MSHR registers for -mlp=on (0 = default 8, at most 4096)",
		func(k *Knobs) *int { return &k.MLP.MSHRs }),
	{name: "prefetch", usage: "metadata prefetch: off | delta (counter-stride) | chain (redirect-chain walker) | both; timing and metadata traffic change, functional state does not",
		set: func(k *Knobs, v string) (err error) { k.Prefetch.Mode, err = prefetch.ParseMode(v); return err },
		get: func(k *Knobs) string { return k.Prefetch.Mode.String() }},
	numKnob("prefetch-depth", "pages per confirmed delta prediction for -prefetch=delta/both (0 = default 4)",
		func(k *Knobs) *int { return &k.Prefetch.Depth }),
	{name: "mem", usage: "simulated NVM capacity in MiB (0 = 512)",
		set: func(k *Knobs, v string) error {
			mb, err := strconv.ParseUint(v, 10, 44)
			if err != nil {
				return fmt.Errorf("want a size in MiB, got %q", v)
			}
			k.MemBytes = mb << 20
			return nil
		},
		get: func(k *Knobs) string {
			if k.MemBytes == 0 {
				return strconv.FormatUint(DefaultMemBytes>>20, 10)
			}
			return strconv.FormatUint(k.MemBytes>>20, 10)
		}},
	numKnob("ranks", "NVM ranks (0 = default 2; ranks × banks at most 4096)", func(k *Knobs) *int { return &k.Ranks }),
	numKnob("banks", "NVM banks per rank (0 = default 8; ranks × banks at most 4096)", func(k *Knobs) *int { return &k.Banks }),
}

// parse runs the knob's parser on k; the error names the knob's flag.
func (kn *knob) parse(k *Knobs, value string) error {
	if err := kn.set(k, value); err != nil {
		return fmt.Errorf("-%s: %w", kn.name, err)
	}
	return nil
}

// Set parses one knob's spelling into k. The error names the knob's flag.
func (k *Knobs) Set(name, value string) error {
	for i := range knobTable {
		if knobTable[i].name == name {
			return knobTable[i].parse(k, value)
		}
	}
	return fmt.Errorf("unknown knob %q", name)
}

// Validate reports the first negative numeric knob, then a size past
// MaxMSHRs or MaxBanks.
func (k Knobs) Validate() error {
	for _, kn := range knobTable {
		if kn.num != nil && *kn.num(&k) < 0 {
			return fmt.Errorf("-%s %d: must be >= 0 (0 selects the default)", kn.name, *kn.num(&k))
		}
	}
	if k.MLP.MSHRs > MaxMSHRs {
		return fmt.Errorf("-mshrs %d: must be <= %d", k.MLP.MSHRs, MaxMSHRs)
	}
	def := nvm.DefaultConfig()
	ranks, banks := cmp.Or(k.Ranks, def.Ranks), cmp.Or(k.Banks, def.BanksPerRank)
	if ranks > MaxBanks/banks { // ranks*banks > MaxBanks, without overflow
		return fmt.Errorf("-ranks %d -banks %d: more than %d banks in total", ranks, banks, MaxBanks)
	}
	return nil
}

// Parse applies a comma-separated name=value knob list (the text form the
// LELANTUS_KNOBS variable and `make bench-json KNOBS=` take) on top of k
// and validates the result.
func (k *Knobs) Parse(text string) error {
	for _, f := range strings.FieldsFunc(text, func(r rune) bool { return r == ',' }) {
		name, value, ok := strings.Cut(f, "=")
		if !ok {
			return fmt.Errorf("knob %q: want name=value", f)
		}
		if err := k.Set(name, value); err != nil {
			return err
		}
	}
	return k.Validate()
}

// Apply stamps the knobs onto a machine configuration.
func (k Knobs) Apply(cfg *Config) {
	cfg.Mem.MemBytes = k.MemBytes
	if cfg.Mem.MemBytes == 0 {
		cfg.Mem.MemBytes = DefaultMemBytes
	}
	cfg.Mem.Core.Fidelity = k.Fidelity
	cfg.Mem.Core.Persist = k.Persist
	cfg.Mem.Core.MLP = k.MLP
	cfg.Mem.Core.Prefetch = k.Prefetch
	if k.Ranks > 0 {
		cfg.Mem.NVM.Ranks = k.Ranks
	}
	if k.Banks > 0 {
		cfg.Mem.NVM.BanksPerRank = k.Banks
	}
}

// RegisterFlags binds every knob not named in omit to fs as a flag of the
// same name, defaulting to k's current value. A bad spelling does not fail
// fs.Parse, which would follow the error with the whole usage text: it is
// held, and the returned check, called after fs.Parse, reports it as a
// one-line diagnosis before running Validate.
func (k *Knobs) RegisterFlags(fs *flag.FlagSet, omit ...string) (check func() error) {
	var bad error
	for i := range knobTable {
		if !slices.Contains(omit, knobTable[i].name) {
			fs.Var(knobFlag{k, &knobTable[i], &bad}, knobTable[i].name, knobTable[i].usage)
		}
	}
	return func() error {
		if bad != nil {
			return bad
		}
		return k.Validate()
	}
}

// knobFlag is one knob as a flag.Value; bad holds the first spelling the
// flags could not parse.
type knobFlag struct {
	k   *Knobs
	kn  *knob
	bad *error
}

func (f knobFlag) String() string {
	if f.k == nil {
		return "" // the flag package's zero-value probe
	}
	return f.kn.get(f.k)
}

func (f knobFlag) Set(value string) error {
	if err := f.kn.parse(f.k, value); err != nil && *f.bad == nil {
		*f.bad = err
	}
	return nil
}
