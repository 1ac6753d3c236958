package sim

import (
	"fmt"
	"runtime"
	"testing"

	"lelantus/internal/core"
	"lelantus/internal/mem"
	"lelantus/internal/workload"
)

// mlpConfig builds a small machine with the MSHR-overlapped engine on.
func mlpConfig(s core.Scheme, f core.Fidelity, seed int64, workers int) Config {
	cfg := fidelityConfig(s, f, seed)
	cfg.Mem.Core.MLP = core.MLPConfig{Enabled: true, Workers: workers}
	return cfg
}

// overflowScript drives two lines through hundreds of non-temporal rewrites
// so minor counters overflow and the page re-encryption sweep runs — the
// batched reencrypt path under MLP.
func overflowScript() workload.Script {
	b := workload.NewBuilder("mlp-overflow")
	b.Spawn(0)
	b.Mmap(0, 0, 64<<10, false)
	for off := uint64(0); off < 4096; off += mem.LineBytes {
		b.StoreNT(0, 0, off, 0x11)
	}
	b.Fork(0, 1)
	b.BeginMeasure()
	for i := 0; i < 300; i++ {
		b.StoreNT(0, 0, 128, byte(i))
		b.StoreNT(1, 0, 192, byte(i))
	}
	b.EndMeasure()
	b.Exit(1)
	b.Exit(0)
	return b.Script()
}

// TestMLPOffKnobInert pins the -mlp=off contract: a disabled MLPConfig with
// non-zero MSHR and worker counts changes nothing — every Result field is
// identical to the zero-config machine. The page engines and scrub passes
// run one path at either setting, so what pins mlp=off output to its
// historical bytes is TestGoldenResults' literal digests.
func TestMLPOffKnobInert(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		script := randomScript(seed)
		for _, s := range core.Schemes() {
			for _, f := range []core.Fidelity{core.FidelityFull, core.FidelityTiming} {
				plain, err := RunWith(fidelityConfig(s, f, seed), script)
				if err != nil {
					t.Fatalf("seed %d %v: %v", seed, s, err)
				}
				cfg := fidelityConfig(s, f, seed)
				cfg.Mem.Core.MLP = core.MLPConfig{Enabled: false, MSHRs: 7, Workers: 3}
				knob, err := RunWith(cfg, script)
				if err != nil {
					t.Fatalf("seed %d %v knob: %v", seed, s, err)
				}
				if plain != knob {
					t.Errorf("seed %d %v %v: disabled MLP config is not inert\nplain: %+v\nknob:  %+v",
						seed, s, f, plain, knob)
				}
			}
		}
	}
}

// TestMLPOnFidelityEquivalence extends the fidelity contract to the
// MSHR-overlapped engine: for random scripts over every scheme, the Result
// under mlp=on must be identical whether the crypto data plane ran or was
// elided. The scripts' forks plus munmaps exercise page_phyc (the batched
// chain-walk copy) and the overflow script exercises the batched
// re-encryption sweep; the test refuses to pass if neither fired.
func TestMLPOnFidelityEquivalence(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6}
	if testing.Short() {
		seeds = seeds[:3]
	}
	scripts := []workload.Script{overflowScript()}
	for _, seed := range seeds {
		scripts = append(scripts, randomScript(seed))
	}
	var phycs, overflows uint64
	for si, script := range scripts {
		for _, s := range core.Schemes() {
			full, err := RunWith(mlpConfig(s, core.FidelityFull, int64(si), 0), script)
			if err != nil {
				t.Fatalf("%s %v full: %v", script.Name, s, err)
			}
			timing, err := RunWith(mlpConfig(s, core.FidelityTiming, int64(si), 0), script)
			if err != nil {
				t.Fatalf("%s %v timing: %v", script.Name, s, err)
			}
			if full != timing {
				t.Errorf("%s %v: mlp=on results diverge across fidelity\nfull:   %+v\ntiming: %+v",
					script.Name, s, full, timing)
			}
			phycs += full.Engine.PagePhycs
			overflows += full.Engine.Overflows
		}
	}
	if phycs == 0 || overflows == 0 {
		t.Errorf("script set exercised %d page_phycs and %d overflows — the batched paths went untested", phycs, overflows)
	}
}

// TestMLPOnPoolSizeDeterminism pins the issue-window contract: with the
// MSHR-overlapped engine on, every Result field is identical whether the
// batched page engines run inline (workers=1), on a small pool, or across
// every CPU. make race runs this under the race detector, which also checks
// the pool's worker-private state really is private.
func TestMLPOnPoolSizeDeterminism(t *testing.T) {
	pools := []int{1, 4, runtime.NumCPU()}
	scripts := []workload.Script{overflowScript(), randomScript(2), randomScript(3)}
	for _, script := range scripts {
		for _, s := range core.Schemes() {
			for _, f := range []core.Fidelity{core.FidelityFull, core.FidelityTiming} {
				var ref Result
				for pi, workers := range pools {
					res, err := RunWith(mlpConfig(s, f, 2, workers), script)
					if err != nil {
						t.Fatalf("%s %v workers=%d: %v", script.Name, s, workers, err)
					}
					if pi == 0 {
						ref = res
					} else if res != ref {
						t.Errorf("%s %v %v: results diverge at workers=%d\nworkers=1: %+v\nworkers=%d: %+v",
							script.Name, s, f, workers, ref, workers, res)
					}
				}
			}
		}
	}
}

// TestMLPOnTrafficInvariant pins the perfect-predictor model: MLP moves
// completion times, never a request — NVM read/write counts and every
// traffic statistic are identical between mlp=off and mlp=on. Execution
// time must improve in aggregate across the matrix; individual cells may
// regress (bursty batched issue can pile write-queue drains onto one bank
// — the write cliff — and a 4 KB page spans half a row, so page engines
// find no bank parallelism inside one page), but if overlap never paid for
// the model anywhere the engine would be wrong.
func TestMLPOnTrafficInvariant(t *testing.T) {
	var execOff, execOn uint64
	for _, seed := range []int64{1, 2, 3} {
		script := randomScript(seed)
		for _, s := range core.Schemes() {
			off, err := RunWith(fidelityConfig(s, core.FidelityTiming, seed), script)
			if err != nil {
				t.Fatalf("seed %d %v off: %v", seed, s, err)
			}
			on, err := RunWith(mlpConfig(s, core.FidelityTiming, seed, 0), script)
			if err != nil {
				t.Fatalf("seed %d %v on: %v", seed, s, err)
			}
			if on.NVMReads != off.NVMReads || on.NVMWrites != off.NVMWrites {
				t.Errorf("seed %d %v: traffic moved under mlp=on: reads %d->%d writes %d->%d",
					seed, s, off.NVMReads, on.NVMReads, off.NVMWrites, on.NVMWrites)
			}
			if on.Engine.DataReads != off.Engine.DataReads ||
				on.Engine.DataWrites != off.Engine.DataWrites ||
				on.Engine.Redirects != off.Engine.Redirects ||
				on.Engine.Overflows != off.Engine.Overflows {
				t.Errorf("seed %d %v: engine statistics moved under mlp=on\noff: %+v\non:  %+v",
					seed, s, off.Engine, on.Engine)
			}
			execOff += off.ExecNs
			execOn += on.ExecNs
		}
	}
	if execOn >= execOff {
		t.Errorf("mlp=on never beats the serial engine in aggregate (%d ns >= %d ns)", execOn, execOff)
	}
}

// TestMLPGridConcurrent runs mlp=on cells concurrently over the grid pool —
// under -race this pins that concurrent machines with private issue-window
// pools share nothing.
func TestMLPGridConcurrent(t *testing.T) {
	script := randomScript(2)
	var jobs []GridJob
	for _, s := range core.Schemes() {
		for rep := 0; rep < 2; rep++ {
			jobs = append(jobs, GridJob{
				Tag:    fmt.Sprintf("%v/rep%d", s, rep),
				Config: mlpConfig(s, core.FidelityTiming, 2, 2),
				Script: script,
			})
		}
	}
	results, err := RunGrid(jobs, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(results); i += 2 {
		if results[i] != results[i+1] {
			t.Errorf("%s: duplicate cells diverge", jobs[i].Tag)
		}
	}
}
