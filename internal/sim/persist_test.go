package sim

import (
	"bytes"
	"encoding/json"
	"testing"

	"lelantus/internal/core"
	"lelantus/internal/workload"
)

func persistScript() workload.Script {
	p := workload.DefaultForkbench(false)
	p.RegionBytes = 1 << 20
	return workload.Forkbench(p)
}

func persistRun(t *testing.T, scheme core.Scheme, strat core.PersistStrategy) Result {
	t.Helper()
	cfg := DefaultConfig(scheme)
	cfg.Mem.MemBytes = 64 << 20
	cfg.Mem.Core.Fidelity = core.FidelityTiming
	cfg.Mem.Core.Persist = strat
	res, err := RunWith(cfg, persistScript())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestStrictPersistEquivalence is the end-to-end gate on the default
// strategy: a machine whose config leaves Persist unset (the zero
// PersistStrategy) must produce byte-identical results to one configured
// with an explicit StrictPersist, for every scheme.
func TestStrictPersistEquivalence(t *testing.T) {
	for _, s := range core.Schemes() {
		t.Run(s.String(), func(t *testing.T) {
			zeroRes := persistRun(t, s, core.PersistStrategy{})
			strictRes := persistRun(t, s, core.StrictPersist())
			jz, err := json.Marshal(zeroRes)
			if err != nil {
				t.Fatal(err)
			}
			js, err := json.Marshal(strictRes)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(jz, js) {
				t.Errorf("explicit strict diverges from the unset default:\nunset:  %s\nstrict: %s", jz, js)
			}
		})
	}
}
