// Package issuewin provides the deterministic work-partitioning pool behind
// the engine's page engines and recovery scrub passes. A batch of n
// independent per-index jobs is split into contiguous chunks, one per
// worker goroutine; each job writes only to its own index's output slot,
// and the caller merges the slots in index order after RunWith returns.
// Because job outputs are pure functions of their index (workers carry
// private scratch state, never shared mutable state), the merged result is
// byte-identical at any worker count — the pool-size determinism contract
// the MLP tests pin.
package issuewin

import "sync"

// Batch is a set of independent per-index jobs with per-worker state.
type Batch[S any] interface {
	// State returns worker w's private state. It is called once per
	// participating worker; a batch that runs inline has only worker 0.
	State(w int) S
	// Do runs job i with the calling worker's state. It must only write
	// to per-index output.
	Do(s S, i int)
}

// RunWith executes b.Do for every i in [0, n), fanned out over `workers`
// goroutines in contiguous index chunks. workers <= 1 (or a batch too small
// to split) runs inline on the caller's goroutine as worker 0. The batch is
// an interface rather than a closure so that a caller whose batch state
// already lives on the heap allocates nothing on the inline path.
func RunWith[S any](workers, n int, b Batch[S]) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		s := b.State(0)
		for i := 0; i < n; i++ {
			b.Do(s, i)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		go func(w, lo, hi int) {
			defer wg.Done()
			s := b.State(w)
			for i := lo; i < hi; i++ {
				b.Do(s, i)
			}
		}(w, lo, hi)
	}
	wg.Wait()
}
