package sim

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestForEachEachIndexOnce: the pool's core contract — every index runs
// exactly once at any (n, workers) combination, including workers > n,
// inline execution and empty input.
func TestForEachEachIndexOnce(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{
		{0, 4}, {1, 1}, {1, 8}, {7, 1}, {7, 2}, {7, 16},
		{64, 3}, {1000, 8}, {1000, 1000},
	} {
		counts := make([]int32, tc.n)
		ForEach(tc.n, tc.workers, func(i int) {
			atomic.AddInt32(&counts[i], 1)
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("n=%d workers=%d: index %d ran %d times", tc.n, tc.workers, i, c)
			}
		}
	}
}

// TestForEachIndexAlignedDeterminism: writing outputs index-aligned yields
// the same result slice at every worker count — the property RunGrid
// builds its byte-identical-report guarantee on.
func TestForEachIndexAlignedDeterminism(t *testing.T) {
	const n = 200
	ref := make([]int, n)
	ForEach(n, 1, func(i int) { ref[i] = i * i })
	for _, workers := range []int{2, 5, 13, 64} {
		got := make([]int, n)
		ForEach(n, workers, func(i int) { got[i] = i * i })
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: index %d = %d, want %d", workers, i, got[i], ref[i])
			}
		}
	}
}

// TestForEachFinishesAroundStraggler: at 2 workers, fn(0) blocks until
// every other index has run. A pool that hands indices out up front (a
// static split) deadlocks here; the test fails after 10 s instead of
// hanging.
func TestForEachFinishesAroundStraggler(t *testing.T) {
	const n = 64
	var others atomic.Int64
	done := make(chan struct{})
	ForEach(n, 2, func(i int) {
		if i != 0 {
			if others.Add(1) == n-1 {
				close(done)
			}
			return
		}
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Errorf("fn(0) waited 10 s: only %d of %d other indices ran", others.Load(), n-1)
		}
	})
}
