// Package hostprof is the -cpuprofile/-memprofile plumbing every CLI
// shares: pprof profiles of the host process over a whole run.
package hostprof

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags holds the two profile paths ("" = off).
type Flags struct{ cpu, mem *string }

// Register binds -cpuprofile and -memprofile to fs.
func Register(fs *flag.FlagSet) *Flags {
	return &Flags{
		cpu: fs.String("cpuprofile", "", "write a CPU profile of the run to this file"),
		mem: fs.String("memprofile", "", "write a heap profile, taken after the run, to this file"),
	}
}

// Start begins the CPU profile and creates the heap profile's file, so a
// bad path of either kind fails before any work runs. The returned stop
// ends the CPU profile and writes the heap profile, reporting a failure as
// one "prog: ..." line on errw.
func (f *Flags) Start(errw io.Writer, prog string) (stop func(), err error) {
	var cpu, mem *os.File
	if *f.cpu != "" {
		if cpu, err = os.Create(*f.cpu); err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	if *f.mem != "" {
		if mem, err = os.Create(*f.mem); err != nil {
			if cpu != nil {
				pprof.StopCPUProfile()
				cpu.Close()
			}
			return nil, fmt.Errorf("memprofile: %w", err)
		}
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			cpu.Close()
		}
		if mem == nil {
			return
		}
		defer mem.Close()
		runtime.GC() // materialise up-to-date heap statistics
		if err := pprof.WriteHeapProfile(mem); err != nil {
			fmt.Fprintf(errw, "%s: memprofile: %v\n", prog, err)
		}
	}, nil
}
