package experiments

import (
	"fmt"

	"lelantus/internal/core"
	"lelantus/internal/sim"
	"lelantus/internal/stats"
)

// persistStrategies is the strategy axis of the persistence-matrix
// experiment, in increasing runtime-persistence order: counters only,
// leaves lazy-interior, leveled, strict write-through.
func persistStrategies() []core.PersistStrategy {
	return []core.PersistStrategy{
		core.TriadPersist(1),
		core.PhoenixPersist(),
		core.TriadPersist(2),
		core.StrictPersist(),
	}
}

// PersistMatrix regenerates the recovery-time-versus-runtime-write-overhead
// axis the persistence strategies span: every strategy × scheme cell runs
// forkbench, takes a battery-backed crash at end of run, recovers, and
// reports the runtime metadata-write overhead next to the modeled recovery
// cost. Strict pays the most at runtime and recovers fastest; relaxing
// persistence (phoenix, triad:N) moves cost from the write path to the
// post-crash scrub.
func PersistMatrix(o Options) (*Report, error) {
	t := stats.NewTable("Persistence strategies — runtime write overhead vs recovery time (forkbench, 4KB)",
		"strategy", "scheme", "exec-ms", "tree-persists", "cow-meta-writes", "recovery-us")
	script := o.forkbench()
	strategies := persistStrategies()
	schemes := comparedSchemes()
	type recCell struct {
		ns  uint64
		err error
	}
	rec := make([]recCell, len(strategies)*len(schemes))
	var jobs []sim.GridJob
	for _, strat := range strategies {
		for _, s := range schemes {
			op := o
			op.Persist = strat
			slot := len(jobs)
			job := op.job(fmt.Sprintf("persist-matrix/%s/%v", strat.Name(), s), s, script, nil)
			job.After = func(m *sim.Machine, _ sim.Result) {
				if err := m.Ctl.Crash(m.Now(), true); err != nil {
					rec[slot] = recCell{err: err}
					return
				}
				rep, err := m.Ctl.Recover()
				if err != nil {
					rec[slot] = recCell{err: err}
					return
				}
				rec[slot] = recCell{ns: rep.RecoveryNs}
			}
			jobs = append(jobs, job)
		}
	}
	results, err := o.runGrid(jobs)
	if err != nil {
		return nil, err
	}
	next := 0
	for _, strat := range strategies {
		for _, s := range schemes {
			if rec[next].err != nil {
				return nil, fmt.Errorf("persist-matrix %s/%v: %w", strat.Name(), s, rec[next].err)
			}
			res := results[next]
			t.Add(strat.Name(), s.String(),
				float64(res.ExecNs)/1e6,
				res.Engine.TreePersistWrites,
				res.Engine.CoWMetaWrite,
				float64(rec[next].ns)/1e3)
			next++
		}
	}
	return &Report{
		ID:    "persist-matrix",
		Title: "Metadata persistence strategies",
		Table: t,
		Notes: []string{
			"tree-persists is the modeled count of BMT nodes made durable per run (no device traffic)",
			"recovery-us is the modeled post-crash scrub cost after a battery-backed crash at end of run",
		},
	}, nil
}
