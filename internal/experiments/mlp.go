package experiments

import (
	"fmt"

	"lelantus/internal/core"
	"lelantus/internal/sim"
	"lelantus/internal/stats"
)

// MLPMatrix regenerates the memory-level-parallelism axis (a Fig-9-style
// runtime comparison): every scheme runs forkbench with the serial engine
// (mlp=off) and with the MSHR/bank-parallel model (mlp=on), and the table
// reports execution time side by side with the speedup the overlap model
// attributes to each design. Traffic counts are identical across the axis
// — MLP moves completion times, never a single request — so the NVM-write
// column doubles as a cross-check.
func MLPMatrix(o Options) (*Report, error) {
	t := stats.NewTable("Memory-level parallelism — serial vs MSHR-overlapped engine (forkbench, 4KB)",
		"mlp", "scheme", "exec-ms", "nvm-reads", "nvm-writes", "speedup-vs-off")
	script := o.forkbench()
	schemes := comparedSchemes()
	modes := []struct {
		name string
		on   bool
	}{{"off", false}, {"on", true}}
	var jobs []sim.GridJob
	for _, m := range modes {
		for _, s := range schemes {
			om := o
			om.MLP.Enabled = m.on
			jobs = append(jobs, om.job(fmt.Sprintf("mlp-matrix/%s/%v", m.name, s), s, script, nil))
		}
	}
	results, err := o.runGrid(jobs)
	if err != nil {
		return nil, err
	}
	next := 0
	off := make(map[core.Scheme]sim.Result, len(schemes))
	for _, m := range modes {
		for _, s := range schemes {
			res := results[next]
			next++
			speedup := 1.0
			if m.name == "off" {
				off[s] = res
			} else {
				speedup = res.SpeedupVs(off[s])
			}
			t.Add(m.name, s.String(),
				float64(res.ExecNs)/1e6,
				res.NVMReads,
				res.NVMWrites,
				speedup)
		}
	}
	return &Report{
		ID:    "mlp-matrix",
		Title: "Memory-level parallelism",
		Table: t,
		Notes: []string{
			"mlp=on overlaps each access's counter fetch, BMT verify and data read across device banks behind an MSHR file",
			"speedup-vs-off is simulated execution time of the serial engine over the overlapped one (same scheme)",
			"traffic columns are identical across the axis by construction: MLP moves completion times, never a request",
		},
	}, nil
}
