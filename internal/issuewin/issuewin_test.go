package issuewin

import (
	"crypto/sha256"
	"runtime"
	"testing"
)

// funcBatch adapts two closures to Batch.
type funcBatch[S any] struct {
	state func(w int) S
	do    func(s S, i int)
}

func (b funcBatch[S]) State(w int) S { return b.state(w) }
func (b funcBatch[S]) Do(s S, i int) { b.do(s, i) }

// TestRunCoversEveryIndexOnce checks the chunk partition at awkward sizes.
func TestRunCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 7, 16, 1000} {
		for _, n := range []int{0, 1, 2, 5, 63, 64, 65, 1000} {
			counts := make([]int32, n)
			RunWith(workers, n, funcBatch[struct{}]{
				state: func(int) struct{} { return struct{}{} },
				do:    func(_ struct{}, i int) { counts[i]++ },
			})
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d executed %d times", workers, n, i, c)
				}
			}
		}
	}
}

// TestRunWithDeterministicAcrossPoolSizes is the ordered-merge contract:
// per-index outputs computed with per-worker scratch state are identical at
// any worker count.
func TestRunWithDeterministicAcrossPoolSizes(t *testing.T) {
	const n = 513
	run := func(workers int) [][32]byte {
		out := make([][32]byte, n)
		RunWith(workers, n, funcBatch[*[8]byte]{
			state: func(int) *[8]byte { return new([8]byte) }, // private scratch per worker
			do: func(s *[8]byte, i int) {
				for b := range s {
					s[b] = byte(i >> (8 * b))
				}
				out[i] = sha256.Sum256(s[:])
			},
		})
		return out
	}
	want := run(1)
	for _, workers := range []int{2, 4, runtime.NumCPU(), 64} {
		got := run(workers)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: output %d differs from serial run", workers, i)
			}
		}
	}
}

// TestRunWithWorkerStateNotShared pins that two workers never observe the
// same state instance concurrently (runs under -race in make race), and
// that worker indices are distinct and start at 0.
func TestRunWithWorkerStateNotShared(t *testing.T) {
	const n, workers = 4096, 8
	out := make([]int, n)
	var seen [workers]int
	RunWith(workers, n, funcBatch[*int]{
		state: func(w int) *int { seen[w]++; return new(int) },
		do: func(s *int, i int) {
			*s++ // would race if a state instance were shared
			out[i] = i
		},
	})
	for i, v := range out {
		if v != i {
			t.Fatalf("index %d got %d", i, v)
		}
	}
	for w, c := range seen {
		if c != 1 {
			t.Fatalf("worker %d state built %d times, want 1", w, c)
		}
	}
}
