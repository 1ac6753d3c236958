package core

import (
	"fmt"
	"testing"

	"lelantus/internal/mem"
)

// allocAddrs returns a warm working set: every line of a handful of pages.
// Rotating over ~256 lines keeps minor counters far from overflow during the
// measured runs (no re-encryption sweeps) while exercising distinct cache
// sets and tweak-cache slots.
func allocAddrs() []uint64 {
	var addrs []uint64
	for pfn := uint64(4); pfn < 8; pfn++ {
		for li := 0; li < mem.LinesPerPage; li++ {
			addrs = append(addrs, mem.LineAddr(pfn, li))
		}
	}
	return addrs
}

// TestHotPathAllocFree pins the tentpole property: once the working set is
// warm (counter blocks cached, MAC entries materialised), ReadLine and
// WriteLine run without a single heap allocation for every scheme, at both
// fidelities.
func TestHotPathAllocFree(t *testing.T) {
	for _, s := range Schemes() {
		t.Run(s.String(), func(t *testing.T) {
			for _, f := range []Fidelity{FidelityFull, FidelityTiming} {
				e := testEngine(t, s, func(c *Config) { c.Fidelity = f })
				addrs := allocAddrs()
				var plain [mem.LineBytes]byte
				for i := range plain {
					plain[i] = 0x5A
				}
				now := uint64(0)
				for _, a := range addrs { // warm-up: materialise all metadata
					d, err := e.WriteLine(now, a, &plain)
					if err != nil {
						t.Fatal(err)
					}
					now = d
				}

				var k int
				writes := testing.AllocsPerRun(200, func() {
					a := addrs[k%len(addrs)]
					k++
					d, err := e.WriteLine(now, a, &plain)
					if err != nil {
						t.Fatal(err)
					}
					now = d
				})
				if writes != 0 {
					t.Errorf("%v WriteLine: %.2f allocs/op, want 0", f, writes)
				}

				k = 0
				reads := testing.AllocsPerRun(200, func() {
					a := addrs[k%len(addrs)]
					k++
					_, d, err := e.ReadLine(now, a)
					if err != nil {
						t.Fatal(err)
					}
					now = d
				})
				if reads != 0 {
					t.Errorf("%v ReadLine: %.2f allocs/op, want 0", f, reads)
				}
			}
		})
	}
}

// TestHotPathAllocFreeNonSecure covers the plaintext (Section III-G) path,
// which skips pads, MACs and the tree but shares the counter machinery.
func TestHotPathAllocFreeNonSecure(t *testing.T) {
	e := testEngine(t, Lelantus, func(c *Config) { c.NonSecure = true })
	addrs := allocAddrs()
	var plain [mem.LineBytes]byte
	plain[0] = 1
	now := uint64(0)
	for _, a := range addrs {
		d, err := e.WriteLine(now, a, &plain)
		if err != nil {
			t.Fatal(err)
		}
		now = d
	}
	var k int
	avg := testing.AllocsPerRun(200, func() {
		a := addrs[k%len(addrs)]
		k++
		if _, err := e.WriteLine(now, a, &plain); err != nil {
			t.Fatal(err)
		}
		if _, _, err := e.ReadLine(now, a); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("non-secure hot path: %.2f allocs/op, want 0", avg)
	}
}

// BenchmarkCoreWriteLine measures the raw engine write path (no simulator
// around it) for profiling; the sim-level benchmarks live in the repo root.
func BenchmarkCoreWriteLine(b *testing.B) {
	for _, s := range Schemes() {
		b.Run(fmt.Sprint(s), func(b *testing.B) {
			e := testEngine(b, s, nil)
			addrs := allocAddrs()
			var plain [mem.LineBytes]byte
			plain[0] = 0x77
			now := uint64(0)
			for _, a := range addrs {
				d, err := e.WriteLine(now, a, &plain)
				if err != nil {
					b.Fatal(err)
				}
				now = d
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d, err := e.WriteLine(now, addrs[i%len(addrs)], &plain)
				if err != nil {
					b.Fatal(err)
				}
				now = d
			}
		})
	}
}

// TestReencryptSweepAllocFree pins that the overflow re-encryption sweep
// runs without a heap allocation — with MLP off and on, at both
// fidelities: it opens and seals each line on the engine's own crypto
// state.
func TestReencryptSweepAllocFree(t *testing.T) {
	for _, mlp := range []bool{false, true} {
		for _, f := range []Fidelity{FidelityFull, FidelityTiming} {
			t.Run(fmt.Sprintf("mlp=%v/%v", mlp, f), func(t *testing.T) {
				e := testEngine(t, Lelantus, func(c *Config) {
					c.Fidelity = f
					c.MLP = MLPConfig{Enabled: mlp}
				})
				const pfn = 4
				var plain [mem.LineBytes]byte
				plain[0] = 0x3C
				now := uint64(0)
				write := func(li int) {
					d, err := e.WriteLine(now, mem.LineAddr(pfn, li), &plain)
					if err != nil {
						t.Fatal(err)
					}
					now = d
				}
				for li := 0; li < mem.LinesPerPage; li++ {
					write(li)
				}
				// Each run rewrites one line past a full minor-counter
				// period, so it holds at least one 63-line sweep.
				overflows := e.Stats.Overflows
				avg := testing.AllocsPerRun(20, func() {
					for i := 0; i < 130; i++ {
						write(0)
					}
				})
				if e.Stats.Overflows-overflows < 21 {
					t.Fatalf("only %d overflows in 21 runs", e.Stats.Overflows-overflows)
				}
				if avg != 0 {
					t.Errorf("%.2f allocs per run, want 0", avg)
				}
			})
		}
	}
}
