// Command lelantus-trace visualises the page-access footprints behind
// Fig. 10c/10d: it runs forkbench with footprint tracking and renders each
// CoW destination page as a 64-character strip — '#' for a touched
// cacheline, '.' for an untouched one. Under the Baseline every page is
// solid (the copy touches all 64 lines); under Lelantus only the lines the
// child actually wrote appear.
//
// Exit codes: 0 success, 1 runtime failure, 2 flag/usage errors (an
// invalid -scheme or a negative -pages is a one-line diagnosis).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"lelantus"
	"lelantus/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run carries the whole program so tests can drive it in-process with
// their own streams.
func run(args []string, stdout, stderr io.Writer) int {
	fail := func(code int, err error) int {
		fmt.Fprintf(stderr, "lelantus-trace: %v\n", err)
		return code
	}
	fs := flag.NewFlagSet("lelantus-trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	schemeName := fs.String("scheme", "lelantus", "baseline | silent-shredder | lelantus | lelantus-cow")
	pages := fs.Int("pages", 16, "number of CoW destination pages to render")
	bytesPerPage := fs.Uint64("bytes", 32, "bytes the child updates per page")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	scheme, err := lelantus.ParseScheme(*schemeName)
	if err != nil {
		return fail(2, err)
	}
	if *pages < 0 {
		return fail(2, fmt.Errorf("-pages %d: must be >= 0", *pages))
	}

	cfg := lelantus.DefaultConfig(scheme)
	cfg.Mem.MemBytes = 256 << 20
	cfg.Kernel.TrackFootprints = true
	m, err := lelantus.NewMachine(cfg)
	if err != nil {
		return fail(1, err)
	}

	script := workload.Forkbench(workload.ForkbenchParams{
		RegionBytes:  4 << 20,
		BytesPerUnit: *bytesPerPage,
		ChildExits:   true,
	})
	if _, err := m.Run(script); err != nil {
		return fail(1, err)
	}

	fps := m.Ctl.Engine.Footprints()
	pfns := make([]uint64, 0, len(fps))
	for pfn := range fps {
		pfns = append(pfns, pfn)
	}
	sort.Slice(pfns, func(i, j int) bool { return pfns[i] < pfns[j] })

	fmt.Fprintf(stdout, "CoW destination page footprints under %v (%d tracked pages, showing %d)\n",
		scheme, len(pfns), min(*pages, len(pfns)))
	fmt.Fprintln(stdout, "each row is one 4KB page; '#' = cacheline touched, '.' = untouched")
	total := 0
	for i, pfn := range pfns {
		mask := fps[pfn]
		if i < *pages {
			row := make([]byte, 64)
			for li := 0; li < 64; li++ {
				if mask&(1<<uint(li)) != 0 {
					row[li] = '#'
				} else {
					row[li] = '.'
				}
			}
			fmt.Fprintf(stdout, "pfn %#08x  %s\n", pfn, row)
		}
		for m := mask; m != 0; m &= m - 1 {
			total++
		}
	}
	if len(pfns) > 0 {
		fmt.Fprintf(stdout, "average lines touched per page: %.1f of 64\n", float64(total)/float64(len(pfns)))
	}
	return 0
}
