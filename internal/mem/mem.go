// Package mem models the physical NVM address space: a sparse store of 4 KB
// frames holding the bytes actually resident in the device (ciphertext for
// data pages, packed counter blocks for the metadata region), plus a frame
// allocator that hands out regular (4 KB) and huge (2 MB, 512 contiguous
// frames) pages.
package mem

import (
	"errors"
	"fmt"
)

// Fundamental geometry constants shared across the simulator.
const (
	LineBytes     = 64
	PageBytes     = 4096
	LinesPerPage  = PageBytes / LineBytes
	HugePageBytes = 2 << 20
	FramesPerHuge = HugePageBytes / PageBytes
	LineShift     = 6
	PageShift     = 12
	HugeShift     = 21
)

// LineNo converts a byte address to its 64 B line number.
func LineNo(addr uint64) uint64 { return addr >> LineShift }

// PageOf converts a byte address to its 4 KB page frame number.
func PageOf(addr uint64) uint64 { return addr >> PageShift }

// PageAddr converts a page frame number to its base byte address.
func PageAddr(pfn uint64) uint64 { return pfn << PageShift }

// LineIndex returns the 0..63 index of the line within its 4 KB page.
func LineIndex(addr uint64) int { return int((addr >> LineShift) & (LinesPerPage - 1)) }

// LineAddr returns the byte address of line index i within page pfn.
func LineAddr(pfn uint64, i int) uint64 {
	return pfn<<PageShift | uint64(i)<<LineShift
}

// Physical is the sparse byte store for the NVM address space: a two-level
// frame table (a directory sized from the capacity, of 512-frame chunks
// that materialise on first write into their 2 MiB range) whose frames
// materialise on first write. The table makes the per-line
// ReadLine/WriteLine lookup two array indexes — these sit under every
// simulated memory access, where a map probe is measurable — while a
// machine costs memory in proportion to what it touches, not to its
// capacity (a flat table is 34 MB of pointers for 16 GiB).
type Physical struct {
	chunks   []*frameChunk
	resident int
	size     uint64
}

// chunkShift sizes the frame table's chunks: 512 frames, one 4 KB page of
// pointers.
const chunkShift = 9

type frameChunk [1 << chunkShift]*[PageBytes]byte

// NewPhysical creates a physical space of the given byte capacity.
func NewPhysical(size uint64) *Physical {
	frames := (size + PageBytes - 1) / PageBytes
	return &Physical{
		chunks: make([]*frameChunk, (frames+1<<chunkShift-1)>>chunkShift),
		size:   size,
	}
}

// Size returns the capacity in bytes.
func (p *Physical) Size() uint64 { return p.size }

func (p *Physical) frame(pfn uint64, create bool) *[PageBytes]byte {
	ci := pfn >> chunkShift
	if ci >= uint64(len(p.chunks)) {
		if !create {
			return nil
		}
		// Beyond the declared capacity (stray test geometries): grow.
		grown := make([]*frameChunk, ci+1)
		copy(grown, p.chunks)
		p.chunks = grown
	}
	c := p.chunks[ci]
	if c == nil {
		if !create {
			return nil
		}
		c = new(frameChunk)
		p.chunks[ci] = c
	}
	f := &c[pfn&(1<<chunkShift-1)]
	if *f == nil && create {
		*f = new([PageBytes]byte)
		p.resident++
	}
	return *f
}

// ReadLine copies the 64 bytes at the (line-aligned) address into out.
// Absent frames read as zero.
func (p *Physical) ReadLine(addr uint64, out *[LineBytes]byte) {
	f := p.frame(PageOf(addr), false)
	if f == nil {
		*out = [LineBytes]byte{}
		return
	}
	off := addr & (PageBytes - 1) &^ (LineBytes - 1)
	copy(out[:], f[off:off+LineBytes])
}

// WriteLine stores 64 bytes at the (line-aligned) address.
func (p *Physical) WriteLine(addr uint64, data *[LineBytes]byte) {
	f := p.frame(PageOf(addr), true)
	off := addr & (PageBytes - 1) &^ (LineBytes - 1)
	copy(f[off:off+LineBytes], data[:])
}

// Read copies an arbitrary byte range (used by tests and debug tooling).
func (p *Physical) Read(addr uint64, out []byte) {
	for n := 0; n < len(out); {
		pfn := PageOf(addr + uint64(n))
		off := (addr + uint64(n)) & (PageBytes - 1)
		chunk := PageBytes - int(off)
		if chunk > len(out)-n {
			chunk = len(out) - n
		}
		if f := p.frame(pfn, false); f != nil {
			copy(out[n:n+chunk], f[off:off+uint64(chunk)])
		} else {
			for i := 0; i < chunk; i++ {
				out[n+i] = 0
			}
		}
		n += chunk
	}
}

// Write stores an arbitrary byte range.
func (p *Physical) Write(addr uint64, data []byte) {
	for n := 0; n < len(data); {
		pfn := PageOf(addr + uint64(n))
		off := (addr + uint64(n)) & (PageBytes - 1)
		chunk := PageBytes - int(off)
		if chunk > len(data)-n {
			chunk = len(data) - n
		}
		f := p.frame(pfn, true)
		copy(f[off:off+uint64(chunk)], data[n:n+chunk])
		n += chunk
	}
}

// ResidentFrames reports how many frames are materialised (test/debug aid).
func (p *Physical) ResidentFrames() int { return p.resident }

// ErrOutOfMemory is returned when the allocator's frame pool is exhausted.
var ErrOutOfMemory = errors.New("mem: out of physical frames")

// Allocator hands out page frame numbers from a bounded data region.
// Regular frames are recycled through a free list; huge allocations are
// 2 MB-aligned runs of 512 frames, recycled through their own free list.
type Allocator struct {
	base, limit uint64 // pfn range [base, limit)
	next        uint64 // bump pointer for never-used frames
	free        []uint64
	freeHuge    []uint64 // base pfn of 2 MB-aligned 512-frame runs
}

// NewAllocator creates an allocator over page frames [basePFN, limitPFN).
func NewAllocator(basePFN, limitPFN uint64) *Allocator {
	return &Allocator{base: basePFN, limit: limitPFN, next: basePFN}
}

// Alloc returns one free 4 KB frame.
func (a *Allocator) Alloc() (uint64, error) {
	if n := len(a.free); n > 0 {
		pfn := a.free[n-1]
		a.free = a.free[:n-1]
		return pfn, nil
	}
	if a.next < a.limit {
		pfn := a.next
		a.next++
		return pfn, nil
	}
	// Cannibalise a free huge run if one exists.
	if n := len(a.freeHuge); n > 0 {
		base := a.freeHuge[n-1]
		a.freeHuge = a.freeHuge[:n-1]
		for i := uint64(1); i < FramesPerHuge; i++ {
			a.free = append(a.free, base+i)
		}
		return base, nil
	}
	return 0, ErrOutOfMemory
}

// AllocHuge returns the base frame of a 2 MB-aligned run of 512 frames.
func (a *Allocator) AllocHuge() (uint64, error) {
	if n := len(a.freeHuge); n > 0 {
		base := a.freeHuge[n-1]
		a.freeHuge = a.freeHuge[:n-1]
		return base, nil
	}
	// Align the bump pointer up to a 2 MB boundary.
	alignedPFN := (a.next + FramesPerHuge - 1) &^ uint64(FramesPerHuge-1)
	if alignedPFN+FramesPerHuge > a.limit {
		return 0, ErrOutOfMemory
	}
	// Frames skipped by alignment remain usable for 4 KB allocations.
	for p := a.next; p < alignedPFN; p++ {
		a.free = append(a.free, p)
	}
	a.next = alignedPFN + FramesPerHuge
	return alignedPFN, nil
}

// Free returns one 4 KB frame to the pool.
func (a *Allocator) Free(pfn uint64) {
	a.free = append(a.free, pfn)
}

// ErrUnalignedHuge reports a FreeHuge of a base frame that is not 2 MB
// aligned — a kernel accounting bug, surfaced as a typed error so it
// propagates through Machine.Run instead of panicking.
var ErrUnalignedHuge = errors.New("mem: FreeHuge of unaligned pfn")

// FreeHuge returns a 2 MB run to the pool.
func (a *Allocator) FreeHuge(basePFN uint64) error {
	if basePFN&(FramesPerHuge-1) != 0 {
		return fmt.Errorf("%w: %#x", ErrUnalignedHuge, basePFN)
	}
	a.freeHuge = append(a.freeHuge, basePFN)
	return nil
}

// InUse reports the number of frames handed out and not yet freed.
func (a *Allocator) InUse() int {
	return int(a.next-a.base) - len(a.free) - len(a.freeHuge)*FramesPerHuge
}
