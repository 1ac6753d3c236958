package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"lelantus/internal/grid"
	"lelantus/internal/metrics"
)

// gridWorkers is the coordinator pool size: the two CPUs the benchmark
// targets.
const gridWorkers = 2

// crashGridSpec is a superset of the shipped crash-matrix preset: every
// scheme on the quick forkbench, plain cells (crash point 0) plus crashes at
// persist points 100 and 1000 under fault seeds 1 and 2, with strict and
// Phoenix persistence. The fault seeds are part of the cell definition, not
// of the generated inputs: seeds 1 and 2 are the preset's.
func crashGridSpec(seed int64) grid.Spec {
	return grid.Spec{
		Name:        "perfbench-crash-grid",
		Workloads:   []string{"forkbench"},
		Seeds:       []int64{seed},
		Schemes:     []string{"baseline", "silent-shredder", "lelantus", "lelantus-cow"},
		Persist:     []string{"strict", "phoenix"},
		FaultSeeds:  []int64{1, 2},
		CrashPoints: []uint64{0, 100, 1000},
		Quick:       true,
	}
}

// gridPass is one crash-grid pass: the run and the resume that follows it.
type gridPass struct {
	passStats
	report          *grid.Report
	reportBytes     []byte
	resumeS         float64
	decodeS         float64
	logRecords      int // records the run appended to the results log
	decodedRecords  int // records DecodeLog accepted from that log
	rejectedRecords int // records that do not decode on their own
	rerun           int // cells the resume ran again
	steals          uint64
	wallHist        metrics.Hist
	cells           []grid.CellResult // the report's cells, ok and failed, index-aligned with runs
	persistPoints   uint64            // persist points the crash cells passed
}

// gridSetup creates a fresh grid directory (spec validation builds every
// cell's configuration and script, then the first checkpoint is written):
// one set-up sample.
func gridSetup(dir string, seed int64, opts grid.Options) (*grid.Coordinator, float64, error) {
	runtime.GC()
	t0 := time.Now()
	coord, err := grid.Create(dir, crashGridSpec(seed), opts)
	if err != nil {
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return coord, time.Since(t0).Seconds(), nil
}

// runGridPass creates the grid in dir, runs it, decodes the results log it
// wrote, resumes the finished directory and checks the resume: it must run
// nothing and leave report.json byte for byte as the run wrote it.
func runGridPass(dir string, seed int64) (*gridPass, error) {
	reg := metrics.NewRegistry()
	coord, setupS, err := gridSetup(dir, seed, grid.Options{Workers: gridWorkers, Metrics: reg})
	if err != nil {
		return nil, err
	}
	gp := &gridPass{}
	gp.setupS, gp.genS = setupS, setupS
	t0 := time.Now()
	rep, err := coord.Run()
	gp.runS = time.Since(t0).Seconds()
	gp.runParts = []float64{gp.runS}
	if err != nil {
		return nil, fmt.Errorf("grid run: %w", err)
	}
	gp.report = rep
	gp.steals = reg.Counter("grid_steals_total", "").Value()
	gp.wallHist = reg.Histogram("grid_cell_wall_ns", "").Snapshot()
	if gp.reportBytes, err = os.ReadFile(filepath.Join(dir, "report.json")); err != nil {
		return nil, err
	}

	logData, err := os.ReadFile(filepath.Join(dir, "results.log"))
	if err != nil {
		return nil, err
	}
	gp.logRecords = bytes.Count(logData, []byte{'\n'})
	t1 := time.Now()
	recs, _, _ := grid.DecodeLog(logData) // a decode error is the torn-tail report; the records before it are what resume keeps
	gp.decodeS = time.Since(t1).Seconds()
	gp.decodedRecords = len(recs)
	kept := make(map[string]bool, len(recs))
	for _, r := range recs {
		kept[r.Cell.ID] = true
	}
	rejected, shadowed := splitLog(logData)
	gp.rejectedRecords = len(rejected)

	resumeReg := metrics.NewRegistry()
	resumed, err := grid.Open(dir, grid.Options{Workers: gridWorkers, Metrics: resumeReg})
	if err != nil {
		return nil, fmt.Errorf("grid resume: %w", err)
	}
	t2 := time.Now()
	if _, err := resumed.Run(); err != nil {
		return nil, fmt.Errorf("grid resume: %w", err)
	}
	gp.resumeS = time.Since(t2).Seconds()
	gp.rerun = int(resumeReg.Counter("grid_cells_started_total", "").Value())
	after, err := os.ReadFile(filepath.Join(dir, "report.json"))
	if err != nil {
		return nil, err
	}

	gp.cells = append(append([]grid.CellResult(nil), rep.Cells...), rep.Failures...)
	for _, c := range gp.cells {
		run := cellRun{group: fmt.Sprintf("%s/%s", c.Spec.Workload, c.Spec.Persist), scheme: c.Spec.Scheme, res: c.Result, err: c.Err}
		if c.Crash != nil {
			run.violations = len(c.Crash.Violations)
			gp.persistPoints += c.Crash.Point
		}
		if c.Spec.CrashPoint > 0 {
			run.group += fmt.Sprintf("/crash@%d/fault%d", c.Spec.CrashPoint, c.Spec.FaultSeed)
		}
		gp.runs = append(gp.runs, run)
		if c.Result != nil {
			gp.refs += c.Result.CPUReads + c.Result.CPUWrites
		}
	}
	gp.failed = checkCells(gp.runs)
	changed := !bytes.Equal(after, gp.reportBytes)
	if changed {
		gp.wrong = append(gp.wrong, "report.json changed by resume")
	}
	for i, c := range gp.cells {
		if _, done := gp.failed[i]; done {
			continue
		}
		switch {
		case changed:
			gp.failed[i] = failResumeDiff
		case rejected[c.ID]:
			gp.failed[i] = failResumeRecord
		case gp.rerun > 0 && !kept[c.ID] && !shadowed[c.ID]:
			gp.failed[i] = failResumeRerun
		}
	}
	return gp, nil
}

// splitLog decodes each results-log line on its own. rejected names the
// cells whose own record does not decode; shadowed names the cells whose
// record follows a rejected one. DecodeLog keeps nothing past the first
// rejected record, so resume re-runs a shadowed cell because of the record
// before it, not because of its own: the failure is counted once, on the
// rejected record's cell. Which cells a rejected record shadows depends on
// the order the workers finished in; which records are rejected does not.
func splitLog(data []byte) (rejected, shadowed map[string]bool) {
	rejected, shadowed = map[string]bool{}, map[string]bool{}
	behind := false
	for _, line := range bytes.SplitAfter(data, []byte{'\n'}) {
		if len(line) == 0 {
			continue
		}
		// The cell ID is read without the decoder, which rejects the
		// whole record; an unreadable ID stays "".
		var head struct {
			Cell struct {
				ID string `json:"id"`
			} `json:"cell"`
		}
		if len(line) > 9 {
			_ = json.Unmarshal(line[9:], &head)
		}
		id := head.Cell.ID
		if _, _, err := grid.DecodeLog(line); err != nil {
			rejected[id] = true
			behind = true
		} else if behind {
			shadowed[id] = true
		}
	}
	return rejected, shadowed
}
