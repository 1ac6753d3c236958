package grid

import (
	"encoding/json"
	"testing"
)

// fuzzMaxRegionKB bounds the forkbench region the fuzz target builds: a
// larger region is a valid cell whose script only costs host memory.
const fuzzMaxRegionKB = 64 << 10

// oversizeSpecs are cell specs whose sizes overflowed into a different
// machine, or past host memory, before Build checked them: a memMB past the
// mem knob's 44 bits wrapped to a 1 MiB machine, a regionKB past 2^54
// wrapped to an empty forkbench region, 10^9 ranks of 64 banks ran the
// worker out of memory, and 2^62 ranks of 4 banks wrapped to a 1-bank
// device.
var oversizeSpecs = []string{
	`{"workload":"forkbench","seed":1,"scheme":"lelantus","memMB":17592186044417,"quick":true}`,
	`{"workload":"forkbench","seed":1,"scheme":"lelantus","regionKB":18014398509481984}`,
	`{"workload":"forkbench","seed":1,"scheme":"lelantus","quick":true,"ranks":1000000000,"banks":64}`,
	`{"workload":"forkbench","seed":1,"scheme":"lelantus","quick":true,"ranks":4611686018427387904,"banks":4}`,
}

// TestCellSpecRejectsOversize: a size that does not fit is an error, not a
// silently different cell.
func TestCellSpecRejectsOversize(t *testing.T) {
	for _, in := range oversizeSpecs {
		var c CellSpec
		if err := json.Unmarshal([]byte(in), &c); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Build(); err == nil {
			t.Errorf("%s: built, want an error", in)
		}
	}
}

// FuzzCellSpec fuzzes the input a grid worker reads on stdin: arbitrary
// bytes go through json.Unmarshal into a CellSpec, then Build. Every input
// must give an error or a runnable cell — a configuration of the asked-for
// capacity holding the forkbench region, and a non-empty script — never a
// panic. The corpus seeds are every preset's cells and the oversize specs.
func FuzzCellSpec(f *testing.F) {
	for _, in := range oversizeSpecs {
		f.Add([]byte(in))
	}
	for _, p := range Presets() {
		for _, c := range p.Cells() {
			raw, err := json.Marshal(c)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(raw)
		}
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		var c CellSpec
		if json.Unmarshal(in, &c) != nil || c.RegionKB > fuzzMaxRegionKB {
			return
		}
		cfg, script, err := c.Build()
		if err != nil {
			return
		}
		if cfg.Mem.MemBytes == 0 || (c.MemMB > 0 && cfg.Mem.MemBytes != c.MemMB<<20) ||
			c.RegionKB<<10 > cfg.Mem.MemBytes || len(script.Ops) == 0 || script.Procs == 0 {
			t.Fatalf("%s built an unrunnable cell: %d MiB, %d ops, %d procs",
				in, cfg.Mem.MemBytes>>20, len(script.Ops), script.Procs)
		}
	})
}
