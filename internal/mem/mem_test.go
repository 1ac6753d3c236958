package mem

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestAddressHelpers(t *testing.T) {
	addr := uint64(0x12345)
	if LineNo(addr) != addr>>6 {
		t.Fatal("LineNo")
	}
	if PageOf(addr) != addr>>12 {
		t.Fatal("PageOf")
	}
	if PageAddr(5) != 5<<12 {
		t.Fatal("PageAddr")
	}
	if LineIndex(0x1000+3*64+7) != 3 {
		t.Fatal("LineIndex")
	}
	if LineAddr(2, 5) != 2<<12|5<<6 {
		t.Fatal("LineAddr")
	}
}

// TestQuickLineAddrInverse: LineAddr and (PageOf, LineIndex) are inverses.
func TestQuickLineAddrInverse(t *testing.T) {
	f := func(pfn uint64, idx uint8) bool {
		pfn &= 1<<50 - 1
		i := int(idx) % LinesPerPage
		la := LineAddr(pfn, i)
		return PageOf(la) == pfn && LineIndex(la) == i
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPhysicalLineRoundTrip(t *testing.T) {
	p := NewPhysical(1 << 30)
	var in, out [LineBytes]byte
	for i := range in {
		in[i] = byte(i + 1)
	}
	addr := uint64(5*PageBytes + 7*LineBytes)
	p.WriteLine(addr, &in)
	p.ReadLine(addr, &out)
	if in != out {
		t.Fatal("line round trip failed")
	}
	// Neighbouring lines unaffected (read as zero).
	p.ReadLine(addr+LineBytes, &out)
	if out != ([LineBytes]byte{}) {
		t.Fatal("neighbour line dirtied")
	}
}

func TestPhysicalAbsentReadsZero(t *testing.T) {
	p := NewPhysical(1 << 30)
	var out [LineBytes]byte
	out[0] = 0xFF
	p.ReadLine(123456<<6, &out)
	if out != ([LineBytes]byte{}) {
		t.Fatal("absent frame must read as zeros")
	}
	if p.ResidentFrames() != 0 {
		t.Fatal("read must not materialise frames")
	}
}

func TestPhysicalCrossPageRange(t *testing.T) {
	p := NewPhysical(1 << 30)
	data := make([]byte, 3*PageBytes)
	for i := range data {
		data[i] = byte(i % 251)
	}
	base := uint64(7*PageBytes + 100) // deliberately unaligned
	p.Write(base, data)
	got := make([]byte, len(data))
	p.Read(base, got)
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("byte %d: got %#x want %#x", i, got[i], data[i])
		}
	}
}

func TestAllocatorBasics(t *testing.T) {
	a := NewAllocator(10, 20)
	f1, err := a.Alloc()
	if err != nil || f1 != 10 {
		t.Fatalf("first alloc = %d, %v", f1, err)
	}
	f2, _ := a.Alloc()
	if f2 != 11 {
		t.Fatalf("second alloc = %d", f2)
	}
	a.Free(f1)
	f3, _ := a.Alloc()
	if f3 != f1 {
		t.Fatalf("freed frame not reused: got %d want %d", f3, f1)
	}
	if got := a.InUse(); got != 2 {
		t.Fatalf("InUse = %d, want 2", got)
	}
}

func TestAllocatorExhaustion(t *testing.T) {
	a := NewAllocator(0, 3)
	for i := 0; i < 3; i++ {
		if _, err := a.Alloc(); err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
	}
	if _, err := a.Alloc(); err == nil {
		t.Fatal("expected out-of-memory")
	}
}

func TestAllocHugeAlignment(t *testing.T) {
	a := NewAllocator(0, 4*FramesPerHuge)
	if _, err := a.Alloc(); err != nil { // misalign the bump pointer
		t.Fatal(err)
	}
	h, err := a.AllocHuge()
	if err != nil {
		t.Fatal(err)
	}
	if h&(FramesPerHuge-1) != 0 {
		t.Fatalf("huge base %#x not 2MB aligned", h)
	}
	// The frames skipped by alignment must be recyclable as 4 KB frames.
	for i := 0; i < FramesPerHuge-1; i++ {
		f, err := a.Alloc()
		if err != nil {
			t.Fatalf("reclaiming alignment gap: %v", err)
		}
		if f >= h && f < h+FramesPerHuge {
			t.Fatalf("alloc handed out frame %#x inside the huge run", f)
		}
	}
}

func TestAllocHugeReuse(t *testing.T) {
	a := NewAllocator(0, 4*FramesPerHuge)
	h1, _ := a.AllocHuge()
	if err := a.FreeHuge(h1); err != nil {
		t.Fatal(err)
	}
	h2, err := a.AllocHuge()
	if err != nil || h2 != h1 {
		t.Fatalf("freed huge run not reused: got %#x want %#x (%v)", h2, h1, err)
	}
}

func TestHugeRunCannibalised(t *testing.T) {
	a := NewAllocator(0, FramesPerHuge)
	h, err := a.AllocHuge()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.FreeHuge(h); err != nil {
		t.Fatal(err)
	}
	// All 512 frames must now be allocatable individually.
	for i := 0; i < FramesPerHuge; i++ {
		if _, err := a.Alloc(); err != nil {
			t.Fatalf("alloc %d from cannibalised huge run: %v", i, err)
		}
	}
	if _, err := a.Alloc(); err == nil {
		t.Fatal("expected exhaustion after consuming the huge run")
	}
}

func TestFreeHugeUnalignedRejected(t *testing.T) {
	a := NewAllocator(0, 2*FramesPerHuge)
	if err := a.FreeHuge(3); !errors.Is(err, ErrUnalignedHuge) {
		t.Fatalf("FreeHuge(3) = %v, want ErrUnalignedHuge", err)
	}
	if _, err := a.AllocHuge(); err != nil {
		t.Fatalf("allocator must stay usable after a rejected free: %v", err)
	}
}
