// Command lelantus-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	lelantus-bench                 # run every experiment (full size)
//	lelantus-bench -exp fig9-4KB   # run one experiment
//	lelantus-bench -quick          # reduced sizes (seconds, not minutes)
//	lelantus-bench -parallel 8     # fan independent runs over 8 workers
//	lelantus-bench -fidelity full  # force the full crypto data plane
//	lelantus-bench -mlp=on         # MSHR-overlapped metadata path
//	lelantus-bench -json           # machine-readable report output
//	lelantus-bench -list           # list experiment identifiers
//
// Reports are byte-identical at either fidelity; "-fidelity auto" (the
// default) picks timing for the full "-exp all" grid and full otherwise.
//
// Exit codes: 0 success, 1 runtime failure, 2 flag/usage errors — an
// invalid -exp value, machine-knob spelling or negative knob count is a
// one-line diagnosis, not a partial run. The machine knobs are DESIGN.md
// §18's.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"lelantus/internal/core"
	"lelantus/internal/experiments"
	"lelantus/internal/hostprof"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run carries the whole program so the profile-flushing defers execute on
// every exit path (os.Exit in main would skip them) and so the flag-
// hardening tests can drive it in-process with their own streams.
func run(args []string, stdout, stderr io.Writer) int {
	badFlag := func(err error) int {
		fmt.Fprintf(stderr, "lelantus-bench: %v\n", err)
		return 2
	}

	fs := flag.NewFlagSet("lelantus-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment id (see -list) or 'all'")
	quick := fs.Bool("quick", false, "use reduced workload sizes")
	seed := fs.Int64("seed", 1, "workload generator seed")
	parallel := fs.Int("parallel", 0, "worker pool for independent simulation runs (0 = all CPUs); reports are byte-identical at any setting")
	fidelity := fs.String("fidelity", "auto", "full | timing | auto (timing for '-exp all', full otherwise); reports are byte-identical either way")
	o := experiments.DefaultOptions()
	checkKnobs := o.RegisterFlags(fs, "fidelity")
	prof := hostprof.Register(fs)
	list := fs.Bool("list", false, "list experiment identifiers and exit")
	markdown := fs.Bool("markdown", false, "emit markdown tables (EXPERIMENTS.md form)")
	asJSON := fs.Bool("json", false, "emit reports as a JSON array")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		fmt.Fprintln(stdout, strings.Join(experiments.IDs(), "\n"))
		return 0
	}
	if *exp != "all" {
		if _, err := experiments.Lookup(*exp); err != nil {
			return badFlag(err)
		}
	}

	o.Quick = *quick
	o.Seed = *seed
	o.Parallel = *parallel
	switch {
	case *fidelity != "auto":
		if err := o.Set("fidelity", *fidelity); err != nil {
			return badFlag(err)
		}
	case *exp == "all":
		// The full grid is a bulk statistics run where the elided crypto
		// cannot change a byte of output; single experiments stay on the
		// full data plane by default.
		o.Fidelity = core.FidelityTiming
	}
	if err := checkKnobs(); err != nil {
		return badFlag(err)
	}
	if *parallel < 0 {
		return badFlag(fmt.Errorf("-parallel %d: must be >= 0 (0 = all CPUs)", *parallel))
	}

	stopProf, err := prof.Start(stderr, "lelantus-bench")
	if err != nil {
		fmt.Fprintf(stderr, "lelantus-bench: %v\n", err)
		return 1
	}
	defer stopProf()

	start := time.Now()
	var reports []*experiments.Report
	if *exp == "all" {
		reports, err = experiments.All(o)
	} else {
		var r *experiments.Report
		r, err = experiments.ByID(o, *exp)
		reports = []*experiments.Report{r}
	}
	if *asJSON {
		ok := make([]*experiments.Report, 0, len(reports))
		for _, r := range reports {
			if r != nil {
				ok = append(ok, r)
			}
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", " ")
		if jerr := enc.Encode(ok); jerr != nil && err == nil {
			err = jerr
		}
	} else {
		for _, r := range reports {
			if r == nil {
				continue
			}
			if *markdown {
				fmt.Fprintln(stdout, r.Markdown())
			} else {
				fmt.Fprintln(stdout, r)
			}
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "lelantus-bench: %v\n", err)
		return 1
	}
	if !*asJSON {
		fmt.Fprintf(stdout, "completed in %.1fs (host time)\n", time.Since(start).Seconds())
	}
	return 0
}
