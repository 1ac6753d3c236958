package kernel

import (
	"testing"

	"lelantus/internal/core"
	"lelantus/internal/mem"
	"lelantus/internal/memctrl"
)

// testKernel builds a kernel over a small machine for the given scheme.
func testKernel(t testing.TB, scheme core.Scheme) *Kernel {
	t.Helper()
	cfg := memctrl.DefaultConfig(scheme)
	cfg.MemBytes = 64 << 20 // keep host memory modest
	ctl, err := memctrl.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	k, err := New(DefaultConfig(), ctl)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func kwrite(t testing.TB, k *Kernel, pid Pid, va uint64, val byte, n int) {
	t.Helper()
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = val
	}
	if _, err := k.Write(0, pid, va, buf); err != nil {
		t.Fatalf("write pid=%d va=%#x: %v", pid, va, err)
	}
}

func kread(t testing.TB, k *Kernel, pid Pid, va uint64, n int) []byte {
	t.Helper()
	buf := make([]byte, n)
	if _, err := k.Read(0, pid, va, buf); err != nil {
		t.Fatalf("read pid=%d va=%#x: %v", pid, va, err)
	}
	return buf
}

func TestDemandZeroAndWrite(t *testing.T) {
	for _, s := range core.Schemes() {
		t.Run(s.String(), func(t *testing.T) {
			k := testKernel(t, s)
			pid := k.Spawn()
			va, _, err := k.Mmap(0, pid, 8*mem.PageBytes, false)
			if err != nil {
				t.Fatal(err)
			}
			// Fresh mappings read zero without faulting.
			if got := kread(t, k, pid, va, 8); got[0] != 0 {
				t.Fatal("fresh page must read zero")
			}
			if k.Stats.ZeroFaults != 0 {
				t.Fatal("reads must not take write faults")
			}
			// First write faults once per page, then sticks.
			kwrite(t, k, pid, va+100, 0xAA, 4)
			if k.Stats.ZeroFaults != 1 {
				t.Fatalf("ZeroFaults = %d, want 1", k.Stats.ZeroFaults)
			}
			kwrite(t, k, pid, va+200, 0xBB, 4)
			if k.Stats.ZeroFaults != 1 {
				t.Fatal("second write to the same page must not fault")
			}
			if got := kread(t, k, pid, va+100, 4); got[0] != 0xAA {
				t.Fatalf("read back %#x", got[0])
			}
			// The rest of the page still reads zero.
			if got := kread(t, k, pid, va+300, 4); got[0] != 0 {
				t.Fatal("untouched bytes of a faulted page must stay zero")
			}
		})
	}
}

func TestForkCoWIsolation(t *testing.T) {
	for _, s := range core.Schemes() {
		t.Run(s.String(), func(t *testing.T) {
			k := testKernel(t, s)
			parent := k.Spawn()
			va, _, err := k.Mmap(0, parent, 4*mem.PageBytes, false)
			if err != nil {
				t.Fatal(err)
			}
			for p := uint64(0); p < 4; p++ {
				kwrite(t, k, parent, va+p*mem.PageBytes, byte(0x10+p), 8)
			}
			child, _, err := k.Fork(0, parent)
			if err != nil {
				t.Fatal(err)
			}
			// Child sees the parent's data.
			if got := kread(t, k, child, va, 8); got[0] != 0x10 {
				t.Fatalf("child read %#x, want 0x10", got[0])
			}
			// Child writes are invisible to the parent and vice versa.
			kwrite(t, k, child, va, 0xC0, 8)
			if got := kread(t, k, parent, va, 8); got[0] != 0x10 {
				t.Fatalf("parent sees child write: %#x", got[0])
			}
			kwrite(t, k, parent, va+mem.PageBytes, 0xD0, 8)
			if got := kread(t, k, child, va+mem.PageBytes, 8); got[0] != 0x11 {
				t.Fatalf("child sees parent write: %#x", got[0])
			}
			if k.Stats.CoWFaults == 0 {
				t.Fatal("no CoW faults recorded")
			}
			// The child's copied page keeps the source's other lines.
			if got := kread(t, k, child, va+64, 8); got[0] != 0 {
				// Parent only wrote the first 8 bytes of line 0; line 1 is 0.
				t.Fatalf("unmodified line of copied page = %#x", got[0])
			}
		})
	}
}

// TestEarlyReclamationWriteToSource is the paper's Section III-D scenario:
// after the child takes its copy, the source page's map count drops to one
// and the parent writes it in place. The child's still-uncopied lines must
// have been materialised first, or they would read the parent's new data.
func TestEarlyReclamationWriteToSource(t *testing.T) {
	for _, s := range core.Schemes() {
		t.Run(s.String(), func(t *testing.T) {
			k := testKernel(t, s)
			parent := k.Spawn()
			va, _, err := k.Mmap(0, parent, mem.PageBytes, false)
			if err != nil {
				t.Fatal(err)
			}
			// Parent fills the page with a known pattern, line by line.
			for li := uint64(0); li < mem.LinesPerPage; li++ {
				kwrite(t, k, parent, va+li*mem.LineBytes, byte(li+1), 8)
			}
			child, _, err := k.Fork(0, parent)
			if err != nil {
				t.Fatal(err)
			}
			// Child writes one line: a CoW copy with 63 pending lines.
			kwrite(t, k, child, va, 0xEE, 8)
			// Source map count is now 1 (parent); parent writes in place.
			kwrite(t, k, parent, va+5*mem.LineBytes, 0x99, 8)
			if k.Stats.ReuseFaults == 0 {
				t.Fatal("parent's in-place write must take a reuse fault")
			}
			// The child's line 5 must still show the ORIGINAL value.
			if got := kread(t, k, child, va+5*mem.LineBytes, 8); got[0] != 6 {
				t.Fatalf("child line 5 = %#x, want 0x06 (original)", got[0])
			}
			// And the parent sees its own update.
			if got := kread(t, k, parent, va+5*mem.LineBytes, 8); got[0] != 0x99 {
				t.Fatalf("parent line 5 = %#x, want 0x99", got[0])
			}
		})
	}
}

// TestEarlyReclamationSourceFreed covers the other reclamation trigger:
// the parent exits while the child still has uncopied lines referencing
// the parent's (about to be freed and recycled) page.
func TestEarlyReclamationSourceFreed(t *testing.T) {
	for _, s := range core.Schemes() {
		t.Run(s.String(), func(t *testing.T) {
			k := testKernel(t, s)
			parent := k.Spawn()
			va, _, err := k.Mmap(0, parent, 2*mem.PageBytes, false)
			if err != nil {
				t.Fatal(err)
			}
			for li := uint64(0); li < mem.LinesPerPage; li++ {
				kwrite(t, k, parent, va+li*mem.LineBytes, byte(li+1), 8)
			}
			child, _, err := k.Fork(0, parent)
			if err != nil {
				t.Fatal(err)
			}
			kwrite(t, k, child, va, 0xEE, 8) // child's partial copy
			if _, err := k.Exit(0, parent); err != nil {
				t.Fatal(err)
			}
			// Recycle memory hard: new process dirties fresh pages, which
			// will reuse the parent's freed frames.
			scav := k.Spawn()
			sva, _, err := k.Mmap(0, scav, 4*mem.PageBytes, false)
			if err != nil {
				t.Fatal(err)
			}
			for p := uint64(0); p < 4; p++ {
				kwrite(t, k, scav, sva+p*mem.PageBytes, 0xFF, 8)
			}
			// The child's uncopied lines must still show the original data.
			for _, li := range []uint64{1, 5, 63} {
				if got := kread(t, k, child, va+li*mem.LineBytes, 8); got[0] != byte(li+1) {
					t.Fatalf("child line %d = %#x, want %#x", li, got[0], byte(li+1))
				}
			}
		})
	}
}

func TestFrameAccountingAcrossExit(t *testing.T) {
	for _, s := range core.Schemes() {
		t.Run(s.String(), func(t *testing.T) {
			k := testKernel(t, s)
			base := k.alloc.InUse()
			pid := k.Spawn()
			va, _, err := k.Mmap(0, pid, 16*mem.PageBytes, false)
			if err != nil {
				t.Fatal(err)
			}
			for p := uint64(0); p < 16; p++ {
				kwrite(t, k, pid, va+p*mem.PageBytes, 1, 8)
			}
			child, _, err := k.Fork(0, pid)
			if err != nil {
				t.Fatal(err)
			}
			kwrite(t, k, child, va, 2, 8)
			if _, err := k.Exit(0, child); err != nil {
				t.Fatal(err)
			}
			if _, err := k.Exit(0, pid); err != nil {
				t.Fatal(err)
			}
			if got := k.alloc.InUse(); got != base {
				t.Fatalf("leaked frames: InUse = %d, want %d", got, base)
			}
		})
	}
}

func TestMunmapFreesFrames(t *testing.T) {
	k := testKernel(t, core.Lelantus)
	pid := k.Spawn()
	base := k.alloc.InUse()
	va, _, err := k.Mmap(0, pid, 8*mem.PageBytes, false)
	if err != nil {
		t.Fatal(err)
	}
	for p := uint64(0); p < 8; p++ {
		kwrite(t, k, pid, va+p*mem.PageBytes, 1, 8)
	}
	if _, err := k.Munmap(0, pid, va, 8*mem.PageBytes); err != nil {
		t.Fatal(err)
	}
	if got := k.alloc.InUse(); got != base {
		t.Fatalf("munmap leaked: %d vs %d", got, base)
	}
	if _, err := k.Read(0, pid, va, make([]byte, 4)); err == nil {
		t.Fatal("read of unmapped range must fail")
	}
}

func TestHugePageCoW(t *testing.T) {
	for _, s := range core.Schemes() {
		t.Run(s.String(), func(t *testing.T) {
			k := testKernel(t, s)
			parent := k.Spawn()
			va, _, err := k.Mmap(0, parent, mem.HugePageBytes, true)
			if err != nil {
				t.Fatal(err)
			}
			// Touch scattered constituents.
			kwrite(t, k, parent, va, 0x31, 8)
			kwrite(t, k, parent, va+1000*mem.PageBytes/2, 0x32, 8)
			if k.Stats.PagesInited != mem.FramesPerHuge {
				t.Fatalf("huge zero fault must init %d constituents, got %d",
					mem.FramesPerHuge, k.Stats.PagesInited)
			}
			child, _, err := k.Fork(0, parent)
			if err != nil {
				t.Fatal(err)
			}
			kwrite(t, k, child, va, 0x41, 8)
			if k.Stats.PagesCopied != mem.FramesPerHuge {
				t.Fatalf("huge CoW must copy %d constituents, got %d",
					mem.FramesPerHuge, k.Stats.PagesCopied)
			}
			if got := kread(t, k, parent, va, 8); got[0] != 0x31 {
				t.Fatalf("parent corrupted: %#x", got[0])
			}
			if got := kread(t, k, child, va+1000*mem.PageBytes/2, 8); got[0] != 0x32 {
				t.Fatalf("child lost inherited data: %#x", got[0])
			}
		})
	}
}

func TestSegfaults(t *testing.T) {
	k := testKernel(t, core.Baseline)
	pid := k.Spawn()
	if _, err := k.Read(0, pid, 0xdead000, make([]byte, 4)); err == nil {
		t.Fatal("unmapped read must fail")
	}
	if _, err := k.Write(0, pid, 0xdead000, []byte{1}); err == nil {
		t.Fatal("unmapped write must fail")
	}
	if _, err := k.Read(0, 999, 0, make([]byte, 1)); err == nil {
		t.Fatal("dead pid must fail")
	}
	if _, _, err := k.Fork(0, 999); err == nil {
		t.Fatal("fork of dead pid must fail")
	}
	if _, err := k.Exit(0, 999); err == nil {
		t.Fatal("exit of dead pid must fail")
	}
}

func TestGrandchildForkChain(t *testing.T) {
	// fork -> fork: recursive copy chains (Section III-E) through the
	// kernel path, with all three generations diverging.
	for _, s := range []core.Scheme{core.Baseline, core.Lelantus, core.LelantusCoW} {
		t.Run(s.String(), func(t *testing.T) {
			k := testKernel(t, s)
			gp := k.Spawn()
			va, _, err := k.Mmap(0, gp, mem.PageBytes, false)
			if err != nil {
				t.Fatal(err)
			}
			for li := uint64(0); li < 8; li++ {
				kwrite(t, k, gp, va+li*mem.LineBytes, byte(0x50+li), 8)
			}
			parent, _, err := k.Fork(0, gp)
			if err != nil {
				t.Fatal(err)
			}
			kwrite(t, k, parent, va, 0x61, 8) // parent diverges on line 0
			child, _, err := k.Fork(0, parent)
			if err != nil {
				t.Fatal(err)
			}
			kwrite(t, k, child, va+mem.LineBytes, 0x62, 8) // child diverges on line 1

			if got := kread(t, k, gp, va, 8); got[0] != 0x50 {
				t.Fatalf("grandparent line 0 = %#x", got[0])
			}
			if got := kread(t, k, parent, va+mem.LineBytes, 8); got[0] != 0x51 {
				t.Fatalf("parent line 1 = %#x", got[0])
			}
			if got := kread(t, k, child, va, 8); got[0] != 0x61 {
				t.Fatalf("child line 0 = %#x (inherits parent's divergence)", got[0])
			}
			if got := kread(t, k, child, va+2*mem.LineBytes, 8); got[0] != 0x52 {
				t.Fatalf("child line 2 = %#x (inherits grandparent)", got[0])
			}
			// Tear down oldest-first to stress source reclamation.
			for _, p := range []Pid{gp, parent} {
				if _, err := k.Exit(0, p); err != nil {
					t.Fatal(err)
				}
			}
			if got := kread(t, k, child, va+2*mem.LineBytes, 8); got[0] != 0x52 {
				t.Fatalf("child line 2 after ancestors exited = %#x", got[0])
			}
		})
	}
}

func TestKSMMergeAndBreak(t *testing.T) {
	for _, s := range []core.Scheme{core.Baseline, core.Lelantus, core.LelantusCoW} {
		t.Run(s.String(), func(t *testing.T) {
			k := testKernel(t, s)
			a := k.Spawn()
			b := k.Spawn()
			vaA, _, err := k.Mmap(0, a, mem.PageBytes, false)
			if err != nil {
				t.Fatal(err)
			}
			vaB, _, err := k.Mmap(0, b, mem.PageBytes, false)
			if err != nil {
				t.Fatal(err)
			}
			// Identical content in both processes.
			kwrite(t, k, a, vaA, 0x77, 8)
			kwrite(t, k, b, vaB, 0x77, 8)
			inUse := k.alloc.InUse()
			merged, _, err := k.KSMMerge(0, []PageRef{{a, vaA}, {b, vaB}})
			if err != nil {
				t.Fatal(err)
			}
			if merged != 1 {
				t.Fatalf("merged = %d, want 1", merged)
			}
			if got := k.alloc.InUse(); got != inUse-1 {
				t.Fatalf("dedup must free one frame: %d -> %d", inUse, got)
			}
			// Both still read the content.
			if got := kread(t, k, b, vaB, 8); got[0] != 0x77 {
				t.Fatalf("b after merge: %#x", got[0])
			}
			// Writing breaks the share without affecting the other process.
			kwrite(t, k, b, vaB, 0x88, 8)
			if got := kread(t, k, a, vaA, 8); got[0] != 0x77 {
				t.Fatalf("a corrupted by b's post-merge write: %#x", got[0])
			}
			if got := kread(t, k, b, vaB, 8); got[0] != 0x88 {
				t.Fatalf("b lost its write: %#x", got[0])
			}
		})
	}
}

func TestKSMMismatchNotMerged(t *testing.T) {
	k := testKernel(t, core.Lelantus)
	a := k.Spawn()
	vaA, _, _ := k.Mmap(0, a, 2*mem.PageBytes, false)
	kwrite(t, k, a, vaA, 1, 8)
	kwrite(t, k, a, vaA+mem.PageBytes, 2, 8)
	merged, _, err := k.KSMMerge(0, []PageRef{{a, vaA}, {a, vaA + mem.PageBytes}})
	if err != nil {
		t.Fatal(err)
	}
	if merged != 0 {
		t.Fatal("different content must not merge")
	}
}

func TestWriteLineNT(t *testing.T) {
	k := testKernel(t, core.Lelantus)
	pid := k.Spawn()
	va, _, _ := k.Mmap(0, pid, mem.PageBytes, false)
	var line [mem.LineBytes]byte
	for i := range line {
		line[i] = 0x3C
	}
	if _, err := k.WriteLineNT(0, pid, va+2*mem.LineBytes, &line); err != nil {
		t.Fatal(err)
	}
	if got := kread(t, k, pid, va+2*mem.LineBytes, 8); got[0] != 0x3C {
		t.Fatalf("NT store lost: %#x", got[0])
	}
}

func TestStatsSub(t *testing.T) {
	a := Stats{Forks: 5, CoWFaults: 7, FaultNs: 100}
	d := a.Sub(Stats{Forks: 2, CoWFaults: 3, FaultNs: 40})
	if d.Forks != 3 || d.CoWFaults != 4 || d.FaultNs != 60 {
		t.Fatalf("Sub = %+v", d)
	}
}

func TestTLBChargesAndInvalidates(t *testing.T) {
	k := testKernel(t, core.Baseline)
	pid := k.Spawn()
	va, _, err := k.Mmap(0, pid, 2*mem.PageBytes, false)
	if err != nil {
		t.Fatal(err)
	}
	// The first write walks, then the fault fix-up (frame change) shoots
	// the translation down; the second write re-walks and caches the final
	// translation; only then do accesses hit.
	kwrite(t, k, pid, va, 1, 1)
	if k.TLBWalks() == 0 {
		t.Fatal("first access must walk the page table")
	}
	kwrite(t, k, pid, va+8, 1, 1)
	w1 := k.TLBWalks()
	kwrite(t, k, pid, va+16, 1, 1)
	if k.TLBWalks() != w1 {
		t.Fatal("access after the fixed-up translation is cached must hit the TLB")
	}
	// Fork write-protects: the translation is re-walked on the next use.
	if _, _, err := k.Fork(0, pid); err != nil {
		t.Fatal(err)
	}
	kwrite(t, k, pid, va, 2, 1)
	if k.TLBWalks() <= w1 {
		t.Fatal("post-fork access must miss the flushed TLB")
	}
}

func TestMunmapErrors(t *testing.T) {
	k := testKernel(t, core.Baseline)
	if _, err := k.Munmap(0, 99, 0, 4096); err == nil {
		t.Fatal("dead pid accepted")
	}
	pid := k.Spawn()
	if _, err := k.Munmap(0, pid, 0xdead000, 4096); err == nil {
		t.Fatal("unmapped range accepted")
	}
}

// TestMmapLargerThanMemory pins that a mapping larger than the machine is
// refused up front: Mmap installs one PTE per unit, so an absurd length
// would otherwise run for as long as it takes to install them all.
func TestMmapLargerThanMemory(t *testing.T) {
	k := testKernel(t, core.Baseline)
	pid := k.Spawn()
	if _, _, err := k.Mmap(0, pid, 1<<60, false); err == nil {
		t.Fatal("1<<60-byte mapping accepted")
	}
	if _, _, err := k.Mmap(0, pid, 64<<20, true); err != nil {
		t.Fatalf("mapping the whole memory: %v", err)
	}
}
