package kernel

import (
	"math/rand"
	"testing"

	"lelantus/internal/core"
	"lelantus/internal/mem"
)

// shadowAS is the functional reference for one process: plain bytes with
// eager fork copies. What a process reads through the kernel must always
// equal its shadow.
type shadowAS struct {
	regions map[uint64][]byte // vaddr -> content
}

func (s *shadowAS) clone() *shadowAS {
	c := &shadowAS{regions: make(map[uint64][]byte, len(s.regions))}
	for va, data := range s.regions {
		c.regions[va] = append([]byte(nil), data...)
	}
	return c
}

// TestPropertyForkTreeTransparency drives a random tree of processes
// through fork / write / read / munmap / exit — including the orderings
// that trigger early reclamation and recursive chains — and checks every
// read against an eager-copy shadow address space, under all four schemes.
// It also checks the allocator for frame leaks at the end.
func TestPropertyForkTreeTransparency(t *testing.T) {
	for _, scheme := range core.Schemes() {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				runForkTree(t, scheme, seed)
			}
		})
	}
}

func runForkTree(t *testing.T, scheme core.Scheme, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	k := testKernel(t, scheme)
	baseFrames := k.alloc.InUse()

	type proc struct {
		pid    Pid
		shadow *shadowAS
	}
	root := &proc{pid: k.Spawn(), shadow: &shadowAS{regions: map[uint64][]byte{}}}
	procs := []*proc{root}

	const regionPages = 6
	now := uint64(0)
	var err error

	mmap := func(p *proc) {
		var va uint64
		va, now, err = k.Mmap(now, p.pid, regionPages*mem.PageBytes, false)
		if err != nil {
			t.Fatalf("seed %d mmap: %v", seed, err)
		}
		p.shadow.regions[va] = make([]byte, regionPages*mem.PageBytes)
	}
	mmap(root)

	pickRegion := func(p *proc) (uint64, []byte) {
		for va, data := range p.shadow.regions {
			return va, data
		}
		return 0, nil
	}

	for step := 0; step < 1500; step++ {
		p := procs[rng.Intn(len(procs))]
		va, data := pickRegion(p)
		if data == nil {
			mmap(p)
			va, data = pickRegion(p)
		}
		off := uint64(rng.Intn(len(data)))
		// Keep accesses inside one line.
		if rem := mem.LineBytes - off%mem.LineBytes; rem < 8 {
			off -= 8 - rem
		}
		switch r := rng.Intn(20); {
		case r < 9: // write
			val := byte(rng.Intn(256))
			buf := []byte{val, val ^ 0xFF, val + 1}
			if now, err = k.Write(now, p.pid, va+off, buf); err != nil {
				t.Fatalf("seed %d step %d write: %v", seed, step, err)
			}
			copy(data[off:], buf)
		case r < 16: // read + verify
			buf := make([]byte, 4)
			if now, err = k.Read(now, p.pid, va+off, buf); err != nil {
				t.Fatalf("seed %d step %d read: %v", seed, step, err)
			}
			for i := range buf {
				if buf[i] != data[off+uint64(i)] {
					t.Fatalf("seed %d step %d (%v): pid %d vaddr %#x+%d: got %#x want %#x",
						seed, step, scheme, p.pid, va+off, i, buf[i], data[off+uint64(i)])
				}
			}
		case r < 18 && len(procs) < 10: // fork
			var child Pid
			if child, now, err = k.Fork(now, p.pid); err != nil {
				t.Fatalf("seed %d step %d fork: %v", seed, step, err)
			}
			procs = append(procs, &proc{pid: child, shadow: p.shadow.clone()})
		default: // exit (keep at least one process)
			if len(procs) == 1 {
				continue
			}
			if now, err = k.Exit(now, p.pid); err != nil {
				t.Fatalf("seed %d step %d exit: %v", seed, step, err)
			}
			for i, q := range procs {
				if q == p {
					procs = append(procs[:i], procs[i+1:]...)
					break
				}
			}
		}
	}

	// Final sweep: every live process sees exactly its shadow.
	for _, p := range procs {
		for va, data := range p.shadow.regions {
			buf := make([]byte, 8)
			for off := uint64(0); off < uint64(len(data)); off += 3 * mem.LineBytes {
				if now, err = k.Read(now, p.pid, va+off, buf); err != nil {
					t.Fatalf("seed %d final read: %v", seed, err)
				}
				for i := range buf {
					if buf[i] != data[off+uint64(i)] {
						t.Fatalf("seed %d final (%v): pid %d vaddr %#x+%d: got %#x want %#x",
							seed, scheme, p.pid, va+off, i, buf[i], data[off+uint64(i)])
					}
				}
			}
		}
	}

	// Teardown: no leaked frames.
	for _, p := range procs {
		if now, err = k.Exit(now, p.pid); err != nil {
			t.Fatalf("seed %d teardown: %v", seed, err)
		}
	}
	if got := k.alloc.InUse(); got != baseFrames {
		t.Fatalf("seed %d (%v): leaked frames: %d vs %d", seed, scheme, got, baseFrames)
	}
}

// TestPropertyHugeForkTree is the same random stress over 2 MB mappings,
// with fewer steps (each CoW fault moves 512 frames).
func TestPropertyHugeForkTree(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	for _, scheme := range []core.Scheme{core.Baseline, core.Lelantus, core.LelantusCoW} {
		rng := rand.New(rand.NewSource(7))
		k := testKernel(t, scheme)
		base := k.alloc.InUse()
		type proc struct {
			pid    Pid
			shadow []byte
		}
		rootPid := k.Spawn()
		va, now, err := k.Mmap(0, rootPid, mem.HugePageBytes, true)
		if err != nil {
			t.Fatal(err)
		}
		procs := []*proc{{pid: rootPid, shadow: make([]byte, mem.HugePageBytes)}}
		for step := 0; step < 200; step++ {
			p := procs[rng.Intn(len(procs))]
			off := (rng.Uint64() % (mem.HugePageBytes / mem.LineBytes)) * mem.LineBytes
			switch r := rng.Intn(10); {
			case r < 5:
				val := byte(rng.Intn(256))
				if now, err = k.Write(now, p.pid, va+off, []byte{val}); err != nil {
					t.Fatalf("%v step %d write: %v", scheme, step, err)
				}
				p.shadow[off] = val
			case r < 8:
				buf := make([]byte, 1)
				if now, err = k.Read(now, p.pid, va+off, buf); err != nil {
					t.Fatalf("%v step %d read: %v", scheme, step, err)
				}
				if buf[0] != p.shadow[off] {
					t.Fatalf("%v step %d: off %#x got %#x want %#x", scheme, step, off, buf[0], p.shadow[off])
				}
			case r < 9 && len(procs) < 4:
				var child Pid
				if child, now, err = k.Fork(now, p.pid); err != nil {
					t.Fatalf("%v fork: %v", scheme, err)
				}
				procs = append(procs, &proc{pid: child, shadow: append([]byte(nil), p.shadow...)})
			default:
				if len(procs) == 1 {
					continue
				}
				if now, err = k.Exit(now, p.pid); err != nil {
					t.Fatalf("%v exit: %v", scheme, err)
				}
				for i, q := range procs {
					if q == p {
						procs = append(procs[:i], procs[i+1:]...)
						break
					}
				}
			}
		}
		for _, p := range procs {
			if now, err = k.Exit(now, p.pid); err != nil {
				t.Fatal(err)
			}
		}
		if got := k.alloc.InUse(); got != base {
			t.Fatalf("%v leaked %d frames", scheme, got-base)
		}
	}
}
