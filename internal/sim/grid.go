package sim

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"lelantus/internal/workload"
)

// GridJob is one independent cell of a scheme × workload × configuration
// sweep: a fresh machine built from Config runs Script to completion.
type GridJob struct {
	// Tag labels the job in error messages, e.g. "fig9/redis/lelantus".
	Tag    string
	Config Config
	Script workload.Script
	// After, when non-nil, runs on the worker goroutine once the script
	// completes, with exclusive access to the finished machine. Use it to
	// harvest state the Result does not carry (footprints, write-queue
	// merge counters) into per-job storage.
	After func(*Machine, Result)
}

// ForEach calls fn(i) exactly once for every i in [0, n) over a pool of at
// most `workers` goroutines (<= 0 selects GOMAXPROCS) and returns when
// every call has returned. Workers take the next index from one shared
// counter, so an idle worker always picks up the next cell and a slow one
// never holds up the rest. One worker runs inline on the caller's
// goroutine. ForEach promises nothing about order or about which
// goroutine runs fn(i): callers that write fn's output index-aligned get
// the same result at any worker count.
func ForEach(n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// runJob executes one grid cell on a fresh machine, converting a panic
// anywhere under the cell (machine construction, the run, the After hook)
// into a per-cell error instead of killing the whole process: one corrupt
// cell must never take down the other cells' finished work.
func runJob(job *GridJob) (res Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res = Result{}
			err = fmt.Errorf("cell panic: %v\n%s", r, debug.Stack())
		}
	}()
	m, err := NewMachine(job.Config)
	if err != nil {
		return Result{}, err
	}
	res, err = m.Run(job.Script)
	if err != nil {
		return Result{}, err
	}
	if job.After != nil {
		job.After(m, res)
	}
	return res, nil
}

// RunGridErrs executes every job on a fresh machine over a ForEach pool
// of at most `workers` goroutines (<= 0 selects GOMAXPROCS) and
// returns results and errors index-aligned with the jobs. Failures are
// fully isolated per cell: a job that errors — or panics — leaves its
// error in its own slot while every surviving cell still runs to
// completion and returns its result. Machines share no state, and outputs
// are written index-aligned, so the result slice is byte-identical at any
// worker count and in any order the pool runs them.
func RunGridErrs(jobs []GridJob, workers int) ([]Result, []error) {
	results := make([]Result, len(jobs))
	errs := make([]error, len(jobs))
	ForEach(len(jobs), workers, func(i int) {
		results[i], errs[i] = runJob(&jobs[i])
	})
	return results, errs
}
