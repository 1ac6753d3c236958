package bmt

import "testing"

// benchBlocks is secure-mlp's counter-block count: a 256 MiB machine has
// one block per 4 KB page, which makes a seven-level tree.
const benchBlocks = 1 << 16

// benchStride spreads consecutive operations over the tree, as counter
// cache misses do, instead of walking one sibling group.
const benchStride = 7919

// treeBench is a steady-state tree: every block stored and the root
// propagated. It is filled one sibling group per flush, as fetches
// interleave with updates in a run, so no dirty set ever grows past one
// path. Its methods are the benchmark bodies, so the allocation pin
// measures exactly what the benchmarks time.
type treeBench struct {
	tr  *Tree
	raw []byte
	i   uint64
}

func newTreeBench() *treeBench {
	b := &treeBench{tr: New([]byte("bench-key"), benchBlocks), raw: blockBytes(7)}
	for idx := uint64(0); idx < benchBlocks; idx++ {
		b.tr.Update(idx, b.raw)
		if idx%Arity == Arity-1 {
			b.tr.Root()
		}
	}
	return b
}

func (b *treeBench) next() uint64 {
	b.i++
	return b.i * benchStride % benchBlocks
}

// verify is a counter-block fetch: verify one block, nothing pending.
func (b *treeBench) verify() error { return b.tr.Verify(b.next(), b.raw) }

// updateVerify is the drain pattern: a counter block is written back, then
// a neighbour is fetched, so the fetch first propagates the dirty path.
func (b *treeBench) updateVerify() error {
	idx := b.next()
	b.tr.Update(idx, b.raw)
	return b.tr.Verify(idx^1, b.raw)
}

func BenchmarkTreeVerify(b *testing.B) {
	tb := newTreeBench()
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if err := tb.verify(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTreeUpdateVerify(b *testing.B) {
	tb := newTreeBench()
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if err := tb.updateVerify(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMACSum(b *testing.B) {
	s := newMACStore(b, "bench-mac-key")
	ciph := blockBytes(9)
	b.ReportAllocs()
	for i := range b.N {
		s.Sum(uint64(i), ciph, 3, 1)
	}
}

// TestBenchBodiesAllocFree pins 0 allocs/op on the benchmark bodies.
func TestBenchBodiesAllocFree(t *testing.T) {
	tb := newTreeBench()
	s := newMACStore(t, "bench-mac-key")
	ciph := blockBytes(9)
	for name, body := range map[string]func(){
		"TreeVerify":       func() { _ = tb.verify() },
		"TreeUpdateVerify": func() { _ = tb.updateVerify() },
		"MACSum":           func() { s.Sum(tb.next(), ciph, 3, 1) },
	} {
		if avg := testing.AllocsPerRun(200, body); avg != 0 {
			t.Errorf("%s allocates %.2f allocs/op, want 0", name, avg)
		}
	}
}
