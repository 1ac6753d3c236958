package core

import (
	"testing"

	"lelantus/internal/mem"
)

// TestMLPResolveOverlap pins the tentpole timing effect at the engine level:
// with the MSHR file on, a read whose counter block misses the counter cache
// overlaps the data fetch with the counter fetch + verify instead of
// serialising them, so the read completes strictly earlier. The two engines
// execute the identical op sequence, so every device access exists in both;
// only completion times may move.
func TestMLPResolveOverlap(t *testing.T) {
	for _, s := range Schemes() {
		t.Run(s.String(), func(t *testing.T) {
			run := func(mlp bool) uint64 {
				e := testEngine(t, s, func(c *Config) {
					c.MLP = MLPConfig{Enabled: mlp}
				})
				// Touch enough pages to evict page 3's counter block from
				// the counter cache, then read it back: the final read pays
				// a counter miss, the case overlap exists for.
				for pfn := uint64(1); pfn <= 200; pfn++ {
					writeLine(t, e, pfn, 5, byte(pfn))
				}
				_, done, err := e.ReadLine(1<<20, mem.LineAddr(3, 5))
				if err != nil {
					t.Fatal(err)
				}
				if e.CtrCache.Misses == 0 {
					t.Fatal("workload produced no counter misses — overlap untested")
				}
				return done
			}
			serial, overlapped := run(false), run(true)
			if overlapped >= serial {
				t.Errorf("mlp=on counter-miss read completes at %d ns, serial at %d ns — no overlap",
					overlapped, serial)
			}
		})
	}
}

// TestMLPStatsExposed pins the MSHR bookkeeping: an enabled engine issues
// through its MSHR file, a disabled one has none.
func TestMLPStatsExposed(t *testing.T) {
	e := testEngine(t, Lelantus, func(c *Config) { c.MLP = MLPConfig{Enabled: true} })
	writeLine(t, e, 3, 5, 0xAB)
	readLine(t, e, 3, 5)
	if e.mshr.Issues == 0 {
		t.Error("enabled engine issued nothing through the MSHR file")
	}
	off := testEngine(t, Lelantus, nil)
	writeLine(t, off, 3, 5, 0xAB)
	if off.mshr != nil {
		t.Errorf("disabled engine has an MSHR file: %+v", off.mshr)
	}
}
