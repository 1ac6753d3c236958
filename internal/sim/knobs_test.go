package sim

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	"lelantus/internal/core"
)

// TestKnobsParse pins the name=value list form, and that every flag's
// default text (the knob's spelling of its current value) parses back to
// that value.
func TestKnobsParse(t *testing.T) {
	const text = "fidelity=timing,persist=triad:2,mlp=on,mshrs=16,prefetch=both,prefetch-depth=8,mem=256,ranks=4,banks=16"
	var k Knobs
	if err := k.Parse(text); err != nil {
		t.Fatal(err)
	}
	want := Knobs{
		Fidelity: core.FidelityTiming,
		Persist:  core.TriadPersist(2),
		MLP:      core.MLPConfig{Enabled: true, MSHRs: 16},
		Prefetch: core.PrefetchConfig{Mode: core.PrefetchBoth, Depth: 8},
		MemBytes: 256 << 20,
		Ranks:    4,
		Banks:    16,
	}
	if !reflect.DeepEqual(k, want) {
		t.Fatalf("Parse(%q) = %+v, want %+v", text, k, want)
	}
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	k.RegisterFlags(fs)
	var back Knobs
	n := 0
	fs.VisitAll(func(f *flag.Flag) {
		n++
		if err := back.Set(f.Name, f.DefValue); err != nil {
			t.Error(err)
		}
	})
	if n != len(knobTable) || !reflect.DeepEqual(back, k) {
		t.Fatalf("%d flags read back %+v, want %d flags and %+v", n, back, len(knobTable), k)
	}
}

func TestKnobsRejectBadSpellings(t *testing.T) {
	for _, text := range []string{"fidelity=fast", "persist=triad:0", "mlp=maybe", "prefetch=all",
		"mshrs=x", "mem=-1", "ranks=-2", "nope=1", "mlp"} {
		var k Knobs
		if err := k.Parse(text); err == nil {
			t.Errorf("Parse(%q) accepted", text)
		}
	}
}

// TestKnobsRejectOversize pins the upper bounds: more than MaxBanks banks
// in total or more than MaxMSHRs registers is an error naming the flag,
// including a ranks × banks product that wraps a 64-bit int, while the
// caps themselves are accepted. Zero ranks or banks counts as the default.
func TestKnobsRejectOversize(t *testing.T) {
	for _, c := range []struct{ text, flag string }{
		{"ranks=1000000000,banks=64", "-ranks"}, {"ranks=4611686018427387904,banks=4", "-ranks"},
		{"ranks=513", "-ranks"}, {"banks=2049", "-ranks"}, {"ranks=4097,banks=1", "-ranks"},
		{"mlp=on,mshrs=2000000000", "-mshrs"}, {"mshrs=4097", "-mshrs"},
	} {
		var k Knobs
		if err := k.Parse(c.text); err == nil || !strings.HasPrefix(err.Error(), c.flag+" ") {
			t.Errorf("Parse(%q) = %v, want an error naming %s", c.text, err, c.flag)
		}
	}
	for _, text := range []string{"ranks=512", "banks=2048", "ranks=4096,banks=1", "ranks=1,banks=4096", "mshrs=4096"} {
		var k Knobs
		if err := k.Parse(text); err != nil {
			t.Errorf("Parse(%q): %v", text, err)
		}
	}
}

// TestKnobsApply pins where every knob lands in a Config, and that a zero
// MemBytes selects DefaultMemBytes.
func TestKnobsApply(t *testing.T) {
	cfg := DefaultConfig(core.Lelantus)
	Knobs{}.Apply(&cfg)
	if cfg.Mem.MemBytes != DefaultMemBytes {
		t.Fatalf("zero knobs: MemBytes %d, want %d", cfg.Mem.MemBytes, DefaultMemBytes)
	}
	want := DefaultConfig(core.Lelantus)
	want.Mem.MemBytes = DefaultMemBytes
	if !reflect.DeepEqual(cfg, want) {
		t.Fatal("zero knobs changed more than the capacity")
	}
	var k Knobs
	if err := k.Parse("fidelity=timing,persist=phoenix,mlp=on,mshrs=4,prefetch=delta,prefetch-depth=2,mem=64,ranks=4,banks=2"); err != nil {
		t.Fatal(err)
	}
	k.Apply(&cfg)
	c := cfg.Mem
	if c.MemBytes != 64<<20 || c.Core.Fidelity != core.FidelityTiming || c.Core.Persist.Name() != "phoenix" ||
		c.Core.MLP != (core.MLPConfig{Enabled: true, MSHRs: 4}) ||
		c.Core.Prefetch != (core.PrefetchConfig{Mode: core.PrefetchDelta, Depth: 2}) ||
		c.NVM.Ranks != 4 || c.NVM.BanksPerRank != 2 {
		t.Fatalf("Apply produced %+v", c)
	}
}

// TestKnobsFlagErrorsDeferred pins the registrar's contract: a bad spelling
// does not fail fs.Parse (whose error path prints the whole usage text) but
// comes back from the check RegisterFlags returns.
func TestKnobsFlagErrorsDeferred(t *testing.T) {
	var k Knobs
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	check := k.RegisterFlags(fs, "fidelity")
	if fs.Lookup("fidelity") != nil {
		t.Fatal("omitted knob registered")
	}
	if err := fs.Parse([]string{"-mlp=on", "-prefetch", "nope", "-ranks", "4"}); err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if err := check(); err == nil || !strings.Contains(err.Error(), "-prefetch") {
		t.Fatalf("check = %v, want the -prefetch spelling error", err)
	}
	if !k.MLP.Enabled || k.Ranks != 4 {
		t.Fatalf("good flags not applied: %+v", k)
	}
}
