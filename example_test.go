package lelantus_test

import (
	"fmt"

	"lelantus"
)

// The simplest comparison: run the paper's forkbench under the Baseline
// and under Lelantus on identical machines.
func Example() {
	script := lelantus.Forkbench(lelantus.ForkbenchParams{
		RegionBytes:  1 << 20, // 1 MB keeps the example fast
		BytesPerUnit: 32,
		ChildExits:   true,
	})
	cfg := func(s lelantus.Scheme) lelantus.Config {
		c := lelantus.DefaultConfig(s)
		c.Mem.MemBytes = 64 << 20
		return c
	}
	base, err := lelantus.RunWith(cfg(lelantus.Baseline), script)
	if err != nil {
		panic(err)
	}
	fine, err := lelantus.RunWith(cfg(lelantus.Lelantus), script)
	if err != nil {
		panic(err)
	}
	fmt.Printf("lelantus issued %d page_copy commands for %d CoW faults\n",
		fine.Engine.PageCopies, fine.Kernel.CoWFaults)
	fmt.Printf("baseline wrote more to NVM: %v\n", base.NVMWrites > fine.NVMWrites)
	// Output:
	// lelantus issued 256 page_copy commands for 256 CoW faults
	// baseline wrote more to NVM: true
}

// Building a custom workload with the script builder: a parent process
// initialises memory, forks, and the child diverges on a single line.
func ExampleScriptBuilder() {
	b := lelantus.NewScript("tiny")
	b.Spawn(0)
	b.Mmap(0, 0, 4096, false)
	b.Store(0, 0, 0, 64, 0xAA) // demand-zero fault, then data
	b.Fork(0, 1)
	b.Store(1, 0, 0, 8, 0xBB) // CoW fault: one page_copy under Lelantus
	b.Exit(1)
	b.Exit(0)

	cfg := lelantus.DefaultConfig(lelantus.LelantusCoW)
	cfg.Mem.MemBytes = 64 << 20
	res, err := lelantus.RunWith(cfg, b.Script())
	if err != nil {
		panic(err)
	}
	fmt.Printf("faults: %d zero, %d CoW\n", res.Kernel.ZeroFaults, res.Kernel.CoWFaults)
	// Output:
	// faults: 1 zero, 1 CoW
}

// Comparing all four schemes on one workload.
func ExampleSchemes() {
	for _, s := range lelantus.Schemes() {
		fmt.Println(s)
	}
	// Output:
	// baseline
	// silent-shredder
	// lelantus
	// lelantus-cow
}

// Knobs configure the beyond-paper machine axes from the same text the
// CLIs' flags and the benchmarks' LELANTUS_KNOBS variable accept.
func ExampleKnobs() {
	var k lelantus.Knobs
	if err := k.Parse("fidelity=timing,persist=phoenix,mlp=on,mem=64"); err != nil {
		panic(err)
	}
	cfg := lelantus.DefaultConfig(lelantus.Lelantus)
	k.Apply(&cfg)
	fmt.Println(cfg.Mem.Core.Fidelity, "fidelity,", cfg.Mem.MemBytes>>20, "MiB,", cfg.Mem.Core.Persist.Name(), "persistence")

	err := k.Parse("mshrs=-4")
	fmt.Println(err)
	// Output:
	// timing fidelity, 64 MiB, phoenix persistence
	// -mshrs -4: must be >= 0 (0 selects the default)
}
