package sim

import (
	"fmt"
	"strings"
	"testing"

	"lelantus/internal/core"
	"lelantus/internal/mem"
	"lelantus/internal/workload"
)

func gridScript(lines int) workload.Script {
	p := workload.ForkbenchParams{
		RegionBytes: uint64(lines) * mem.LineBytes, BytesPerUnit: 16, ChildExits: true,
	}
	return workload.Forkbench(p)
}

func gridJobs() []GridJob {
	script := gridScript(4096)
	var jobs []GridJob
	for _, s := range core.Schemes() {
		jobs = append(jobs, GridJob{
			Tag:    "grid/" + s.String(),
			Config: smallConfig(s),
			Script: script,
		})
	}
	return jobs
}

// TestRunGridMatchesSequential pins the grid runner to the sequential
// runner: every cell must produce exactly the result RunWith produces.
func TestRunGridMatchesSequential(t *testing.T) {
	jobs := gridJobs()
	results, err := RunGrid(jobs, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, job := range jobs {
		want, err := RunWith(job.Config, job.Script)
		if err != nil {
			t.Fatal(err)
		}
		if results[i] != want {
			t.Fatalf("%s: grid result differs from sequential:\n grid %+v\n seq  %+v",
				job.Tag, results[i], want)
		}
	}
}

// TestRunGridWorkerCountInvariance is the determinism guarantee: the same
// job list produces identical, index-aligned results at every worker count.
func TestRunGridWorkerCountInvariance(t *testing.T) {
	jobs := gridJobs()
	ref, err := RunGrid(jobs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8, 0} {
		got, err := RunGrid(jobs, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d job %d: %+v != %+v", workers, i, got[i], ref[i])
			}
		}
	}
}

// TestRunGridAfterHook verifies the post-run hook sees the finished machine.
func TestRunGridAfterHook(t *testing.T) {
	jobs := gridJobs()
	seen := make([]bool, len(jobs))
	for i := range jobs {
		i := i
		jobs[i].After = func(m *Machine, res Result) {
			seen[i] = m != nil && res.NVMWrites > 0
		}
	}
	if _, err := RunGrid(jobs, 2); err != nil {
		t.Fatal(err)
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("After hook of job %d did not run on a finished machine", i)
		}
	}
}

// TestRunGridErrorNamesJob: a failing cell must surface its tag, and the
// remaining cells must still run.
func TestRunGridErrorNamesJob(t *testing.T) {
	bad := workload.NewBuilder("bad")
	bad.Spawn(0)
	bad.Exit(0)
	bad.Store(0, 0, 0, 8, 1) // store by a dead process
	jobs := []GridJob{
		{Tag: "good", Config: smallConfig(core.Baseline), Script: gridScript(512)},
		{Tag: "broken", Config: smallConfig(core.Baseline), Script: bad.Script()},
	}
	results, err := RunGrid(jobs, 2)
	if err == nil {
		t.Fatal("expected the broken job's error")
	}
	if !strings.Contains(err.Error(), "broken") {
		t.Fatalf("error does not name the failing job: %v", err)
	}
	if results[0].NVMWrites == 0 {
		t.Fatal("healthy job was not run to completion")
	}
}

// TestRunGridErrsIsolatesFailures is the regression test for the grid
// failure semantics: a failing cell must not abort the grid — every
// surviving cell still returns its full result, and each failure sits in
// its own error slot instead of masking the others.
func TestRunGridErrsIsolatesFailures(t *testing.T) {
	bad := workload.NewBuilder("bad")
	bad.Spawn(0)
	bad.Exit(0)
	bad.Store(0, 0, 0, 8, 1) // store by a dead process
	jobs := []GridJob{
		{Tag: "good-0", Config: smallConfig(core.Baseline), Script: gridScript(512)},
		{Tag: "broken-1", Config: smallConfig(core.Baseline), Script: bad.Script()},
		{Tag: "good-2", Config: smallConfig(core.Lelantus), Script: gridScript(512)},
		{Tag: "broken-3", Config: smallConfig(core.Lelantus), Script: bad.Script()},
	}
	results, errs := RunGridErrs(jobs, 2)
	for _, i := range []int{1, 3} {
		if errs[i] == nil {
			t.Fatalf("job %d (%s): expected an error", i, jobs[i].Tag)
		}
	}
	for _, i := range []int{0, 2} {
		if errs[i] != nil {
			t.Fatalf("job %d (%s): unexpected error: %v", i, jobs[i].Tag, errs[i])
		}
		if results[i].NVMWrites == 0 {
			t.Fatalf("job %d (%s): surviving cell did not run to completion", i, jobs[i].Tag)
		}
		want, err := RunWith(jobs[i].Config, jobs[i].Script)
		if err != nil {
			t.Fatal(err)
		}
		if results[i] != want {
			t.Fatalf("job %d (%s): surviving cell's result differs from a solo run", i, jobs[i].Tag)
		}
	}
}

// TestRunGridRecoversPanics: a panicking cell (here via the After hook, the
// only externally injectable panic site) becomes that cell's error instead
// of killing the process and every other cell's finished work.
func TestRunGridRecoversPanics(t *testing.T) {
	jobs := []GridJob{
		{Tag: "ok", Config: smallConfig(core.Baseline), Script: gridScript(512)},
		{Tag: "panicky", Config: smallConfig(core.Baseline), Script: gridScript(512),
			After: func(*Machine, Result) { panic("injected cell panic") }},
	}
	results, errs := RunGridErrs(jobs, 2)
	if errs[0] != nil {
		t.Fatalf("healthy cell errored: %v", errs[0])
	}
	if results[0].NVMWrites == 0 {
		t.Fatal("healthy cell did not run")
	}
	if errs[1] == nil || !strings.Contains(errs[1].Error(), "injected cell panic") {
		t.Fatalf("panic was not converted to the cell's error: %v", errs[1])
	}
}

// TestKSMTimeAttribution is the regression test for the KSM billing bug:
// OpKSM carries its participants in a group and leaves op.Proc at zero,
// so its elapsed time used to be billed to process slot 0 even when slot 0
// was not involved in the merge.
func TestKSMTimeAttribution(t *testing.T) {
	build := func(measure int) workload.Script {
		b := workload.NewBuilder("ksm-attrib")
		b.Spawn(0)
		b.Mmap(0, 0, mem.PageBytes, false)
		b.Store(0, 0, 0, 8, 1)
		b.Spawn(1)
		b.Mmap(1, 1, mem.PageBytes, false)
		b.Store(1, 1, 0, 8, 0x55)
		b.Fork(1, 2)
		b.Store(2, 1, 0, 8, 0x55)
		b.MeasureProcess(measure)
		b.BeginMeasure()
		b.KSM(1, 0, 1, 2)
		b.EndMeasure()
		return b.Script()
	}
	bystander, err := RunWith(smallConfig(core.Lelantus), build(0))
	if err != nil {
		t.Fatal(err)
	}
	participant, err := RunWith(smallConfig(core.Lelantus), build(1))
	if err != nil {
		t.Fatal(err)
	}
	if participant.Kernel.KSMMerges == 0 {
		t.Fatal("KSM merge did not happen; the attribution check is vacuous")
	}
	if participant.ExecNs == 0 {
		t.Fatal("participating slot was not charged for the merge")
	}
	if bystander.ExecNs != 0 {
		t.Fatalf("bystander slot 0 was billed %d ns of KSM time", bystander.ExecNs)
	}
}

// TestOversizedAccessSplit is the regression test for the clampSize bug:
// an OpStore/OpLoad above 64 B used to be silently truncated to one line.
func TestOversizedAccessSplit(t *testing.T) {
	const size = 256 // four lines
	b := workload.NewBuilder("oversize")
	b.Spawn(0)
	b.Mmap(0, 0, mem.PageBytes, false)
	b.Store(0, 0, 0, size, 0xAB)
	b.Load(0, 0, 0, size)
	script := b.Script()

	m, err := NewMachine(smallConfig(core.Baseline))
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(script)
	if err != nil {
		t.Fatal(err)
	}
	// Four per-line kernel requests per op, not one truncated request.
	if res.Kernel.StoreOps != size/mem.LineBytes {
		t.Fatalf("StoreOps = %d, want %d", res.Kernel.StoreOps, size/mem.LineBytes)
	}
	if res.Kernel.LoadOps != size/mem.LineBytes {
		t.Fatalf("LoadOps = %d, want %d", res.Kernel.LoadOps, size/mem.LineBytes)
	}
	// Every scripted byte must actually have been written.
	var line [mem.LineBytes]byte
	for off := uint64(0); off < size; off += mem.LineBytes {
		if _, err := m.Kern.Read(m.Now(), m.Pid(0), m.Region(0)+off, line[:]); err != nil {
			t.Fatal(err)
		}
		for i, v := range line {
			if v != 0xAB {
				t.Fatalf("byte %d of line at +%#x = %#x, want 0xAB (truncated store)", i, off, v)
			}
		}
	}
}

// TestUnalignedAccessSplit: an access that straddles a line boundary is
// split at the boundary instead of silently reading past the line.
func TestUnalignedAccessSplit(t *testing.T) {
	b := workload.NewBuilder("straddle")
	b.Spawn(0)
	b.Mmap(0, 0, mem.PageBytes, false)
	b.Store(0, 0, 48, 32, 0xCD) // bytes 48..80: crosses the line-0/line-1 boundary
	script := b.Script()

	m, err := NewMachine(smallConfig(core.Baseline))
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(script)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kernel.StoreOps != 2 {
		t.Fatalf("StoreOps = %d, want 2 (split at the line boundary)", res.Kernel.StoreOps)
	}
	buf := make([]byte, 16)
	if _, err := m.Kern.Read(m.Now(), m.Pid(0), m.Region(0)+mem.LineBytes, buf); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ { // bytes 64..80 belong to the second line
		if buf[i] != 0xCD {
			t.Fatalf("byte %d past the boundary = %#x, want 0xCD", i, buf[i])
		}
	}
}

// BenchmarkGridRun measures grid throughput at several worker counts; on a
// multi-core host the runs scale near-linearly because machines share no
// state.
func BenchmarkGridRun(b *testing.B) {
	jobs := gridJobs()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := RunGrid(jobs, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
