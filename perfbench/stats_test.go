package main

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"lelantus/internal/core"
	"lelantus/internal/metrics"
	"lelantus/internal/sim"
	"lelantus/internal/workload"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestGeomeanSpeedupAndWriteRatio(t *testing.T) {
	pairs := []pair{
		{group: "a", base: sim.Result{ExecNs: 200, NVMWrites: 100}, lel: sim.Result{ExecNs: 100, NVMWrites: 50}},
		{group: "b", base: sim.Result{ExecNs: 800, NVMWrites: 800}, lel: sim.Result{ExecNs: 100, NVMWrites: 100}},
	}
	if got := lelantusSpeedup(pairs); !near(got, 4) { // sqrt(2 * 8)
		t.Errorf("speedup = %v, want 4", got)
	}
	if got := lelantusWriteRatio(pairs); !near(got, 0.25) { // sqrt(0.5 * 0.125)
		t.Errorf("write ratio = %v, want 0.25", got)
	}
	if got := geomean(nil); got != 0 {
		t.Errorf("geomean(nil) = %v, want 0", got)
	}
	if got := geomean([]float64{2, 0}); got != 0 {
		t.Errorf("geomean with a zero = %v, want 0", got)
	}
}

func TestPaperSpeedupErr(t *testing.T) {
	scaled := func(f float64) map[string]float64 {
		m := map[string]float64{}
		for k, v := range paperFig9 {
			m[k] = v * f
		}
		return m
	}
	for _, c := range []struct {
		f, want float64
	}{{1, 1}, {2, 2}, {0.5, 2}} {
		got, err := paperSpeedupErr(scaled(c.f))
		if err != nil || !near(got, c.want) {
			t.Errorf("ours = %v x paper: err factor %v (%v), want %v", c.f, got, err, c.want)
		}
	}
	// Off by 4x on one cell and exact on the other eleven.
	ours := scaled(1)
	ours["redis/2MB"] *= 4
	if got, _ := paperSpeedupErr(ours); !near(got, math.Pow(4, 1.0/12)) {
		t.Errorf("one cell off by 4x: %v, want 4^(1/12)", got)
	}
	delete(ours, "boot/4KB")
	if _, err := paperSpeedupErr(ours); err == nil {
		t.Error("missing paper cell accepted")
	}
}

// TestPaperColumnsMatchExperiments pins paperFig9 to the paper columns of
// the Fig. 9 table in EXPERIMENTS.md.
func TestPaperColumnsMatchExperiments(t *testing.T) {
	f, err := os.Open("../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	found := map[string]float64{}
	inFig9 := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "## ") {
			inFig9 = strings.HasPrefix(line, "## Fig. 9")
			continue
		}
		if !inFig9 || !strings.HasPrefix(line, "| ") {
			continue
		}
		cols := strings.Split(strings.Trim(line, "|"), "|")
		if len(cols) < 5 {
			continue
		}
		app := strings.TrimSpace(cols[0])
		for _, c := range []struct {
			col  int
			mode string
		}{{1, "4KB"}, {3, "2MB"}} {
			v, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(cols[c.col]), "×"), 64)
			if err == nil {
				found[app+"/"+c.mode] = v
			}
		}
	}
	for k, v := range paperFig9 {
		if found[k] != v {
			t.Errorf("%s: paperFig9 has %v, EXPERIMENTS.md has %v", k, v, found[k])
		}
	}
	if len(found) != len(paperFig9)+2 { // plus the non-copy control's two 1.00 cells
		t.Errorf("EXPERIMENTS.md Fig. 9 table has %d paper cells, want %d", len(found), len(paperFig9)+2)
	}
}

func TestErrorRateCounting(t *testing.T) {
	res := func(writes uint64) *sim.Result {
		r := &sim.Result{}
		r.Engine.DataWrites = writes
		return r
	}
	cells := []cellRun{
		{group: "a", scheme: "baseline", res: res(100)},
		{group: "a", scheme: "lelantus", res: res(101)},     // above Baseline
		{group: "a", scheme: "lelantus-cow", res: res(100)}, // equal is fine
		{group: "a", scheme: "silent-shredder", res: res(500)},
		{group: "b", scheme: "baseline", err: "boom"},
		{group: "b", scheme: "lelantus", res: res(1 << 40)}, // no Baseline to compare with
		{group: "c", scheme: "baseline", violations: 2},
		{group: "c", scheme: "lelantus", err: "panic: x", violations: 1}, // counted once
	}
	failed := checkCells(cells)
	want := map[int]string{1: failWrites, 4: failError, 6: failOracle, 7: failError}
	if len(failed) != len(want) {
		t.Fatalf("failed = %v, want %v", failed, want)
	}
	for i, r := range want {
		if failed[i] != r {
			t.Errorf("cell %d: reason %q, want %q", i, failed[i], r)
		}
	}
	if got := errorRate(len(failed), len(cells)); got != 0.5 {
		t.Errorf("error rate = %v, want 0.5", got)
	}
	if got := errorRate(0, 0); got != 0 {
		t.Errorf("error rate with nothing attempted = %v, want 0", got)
	}
}

func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n, idx int
		pct    float64
		ok     bool
	}{{10, 0, 0, false}, {11, 0, 100.0 / 11, true}, {56, 45, 100 * 46.0 / 56, true}, {100, 89, 90, true}} {
		idx, pct, ok := tailRank(c.n)
		if idx != c.idx || !near(pct, c.pct) || ok != c.ok {
			t.Errorf("tailRank(%d) = %d, %v, %v; want %d, %v, %v", c.n, idx, pct, ok, c.idx, c.pct, c.ok)
		}
	}
	var samples []float64
	for i := 100; i >= 1; i-- {
		samples = append(samples, float64(i))
	}
	ct := summariseCells(samples)
	if ct.p50 != 50.5 || ct.tail != 90 || ct.tailPct != 90 || ct.n != 100 {
		t.Errorf("summariseCells(1..100) = %+v, want p50 50.5, tail 90 at p90 of 100", ct)
	}
	// The histogram form, on 60 cells of 1..60 ns: values below 64 have
	// exact buckets, so the ranks read back exactly.
	var h metrics.Hist
	for i := uint64(1); i <= 60; i++ {
		h.Observe(i)
	}
	hc := histCells(h)
	if hc.p50 != 30e-9 || hc.tail != 50e-9 || !near(hc.tailPct, 100*50.0/60) || hc.n != 60 {
		t.Errorf("histCells(1..60 ns) = %+v, want p50 30ns, tail 50ns at p83.3", hc)
	}
}

// TestMeasuredCountersReplay checks the measured-phase counter method on a
// small forkbench: the cut runs reproduce the full run's measured writes.
func TestMeasuredCountersReplay(t *testing.T) {
	p := workload.DefaultForkbench(false)
	p.RegionBytes = 128 << 10
	s := workload.Forkbench(p)
	cfg := sim.DefaultConfig(core.Lelantus)
	cfg.Mem.MemBytes = 64 << 20
	full, err := sim.RunWith(cfg, s)
	if err != nil {
		t.Fatal(err)
	}
	d, err := measuredCounters(cfg, s, full)
	if err != nil {
		t.Fatal(err)
	}
	if d.nvmWrites != full.NVMWrites || d.redirects != full.Engine.Redirects || d.tlbWalks != full.TLBWalks {
		t.Errorf("measured counters %d writes, %d redirects, %d walks; result has %d, %d, %d",
			d.nvmWrites, d.redirects, d.tlbWalks, full.NVMWrites, full.Engine.Redirects, full.TLBWalks)
	}
	full.NVMWrites++
	if _, err := measuredCounters(cfg, s, full); err == nil {
		t.Error("a replay that disagrees with the full run was accepted")
	}
}

// TestMetricListsMatchBenchmarkJSON keeps BENCHMARK.json and the metric
// tables the program prints in step.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

func TestBadFlagsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "fig9", "-trace", "2"},
		{"-workload", "fig9", "-seconds", "0"},
		{"-no-such-flag"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}

func TestAccountCountsDistinctCells(t *testing.T) {
	pass := func(failed map[int]string) *passStats {
		return &passStats{runs: []cellRun{{group: "a", scheme: "baseline"}, {group: "a", scheme: "lelantus"}, {group: "b", scheme: "baseline"}}, failed: failed}
	}
	o := newOutcome()
	o.account(pass(map[int]string{1: failWrites}))
	o.account(pass(map[int]string{1: failWrites}))
	o.account(pass(map[int]string{2: failError})) // a failure in any pass counts
	if o.attempted != 3 || o.failed != 2 {
		t.Errorf("attempted %d, failed %d over three passes; want 3 and 2", o.attempted, o.failed)
	}
}

func TestBestRunS(t *testing.T) {
	if got := bestRunS([][]float64{{1, 5, 2}, {2, 3, 2}, {4, 4, 1}}); !near(got, 5) { // 1 + 3 + 1
		t.Errorf("bestRunS = %v, want 5", got)
	}
	if got := bestRunS([][]float64{{7}}); !near(got, 7) {
		t.Errorf("bestRunS of one pass = %v, want 7", got)
	}
}
