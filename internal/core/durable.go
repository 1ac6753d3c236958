package core

import (
	"encoding/binary"

	"lelantus/internal/bitset"
	"lelantus/internal/bmt"
	"lelantus/internal/ctr"
	"lelantus/internal/mem"
)

// DurableImage is what a power failure leaves behind: the NVM bytes
// (ciphertext, the packed counter blocks with their Lelantus redirects, the
// supplementary CoW table), the data MACs, the integrity tree, and the two
// bitsets recording which counter blocks and data lines exist in NVM. The
// on-chip state — counter cache, CoW-mapping cache, prefetch unit, write
// queue — lives on the Engine, so code handed only the image (the recovery
// scrub, the crash-sweep oracle) cannot read what a crash destroys.
type DurableImage struct {
	scheme Scheme
	layout Layout

	Phys *mem.Physical // NVM contents: ciphertext plus packed metadata
	Tree *bmt.Tree
	MACs *bmt.MACStore

	// initialised marks counter blocks that exist in NVM (installed at
	// simulated boot, free of charge, like a real machine's reset state).
	// Dense bitset sized from the data region: the hot path tests it on
	// every counter-block miss.
	initialised *bitset.Set
	// written marks lines that have ever been encrypted to NVM; reads of
	// never-written lines return zeros (fresh memory). Dense bitset, one
	// bit per data line — consulted on every read and set on every write.
	// It grows to the highest line written instead of being sized from
	// the capacity, which would cost 32 MiB per 16 GiB machine up front.
	written *bitset.Set
}

// pages returns the number of data page frames.
func (d *DurableImage) pages() uint64 { return d.layout.DataLimit / mem.PageBytes }

func (d *DurableImage) ctrAddr(pfn uint64) uint64 { return d.layout.CounterBase + pfn*ctr.BlockBytes }

// cowMetaAddr returns the 64 B-aligned NVM address holding page pfn's
// 8-byte supplementary CoW entry.
func (d *DurableImage) cowMetaAddr(pfn uint64) uint64 {
	return (d.layout.CoWBase + pfn*8) &^ (mem.LineBytes - 1)
}

// Block decodes page pfn's counter block from NVM. Pages whose boot-time
// block was never materialised report ok=false — such a page cannot carry
// CoW state, and decoding it here would have to draw from the counter-init
// RNG, perturbing the run.
func (d *DurableImage) Block(pfn uint64) (blk ctr.Block, ok bool) {
	if !d.initialised.Test(pfn) {
		return ctr.Block{}, false
	}
	var raw [ctr.BlockBytes]byte
	d.Phys.ReadLine(d.ctrAddr(pfn), &raw)
	if err := ctr.UnpackInto(&raw, d.scheme.Format(), &blk); err != nil {
		return ctr.Block{}, false
	}
	return blk, true
}

// CoWEntry decodes page pfn's supplementary CoW-table entry
// (Lelantus-CoW). Unlike the CoW cache — which runs ahead of NVM under lazy
// persistence, or when a crash cuts a table write short — this is the
// crash-durable view.
func (d *DurableImage) CoWEntry(pfn uint64) (src uint64, present bool) {
	var raw [mem.LineBytes]byte
	d.Phys.ReadLine(d.cowMetaAddr(pfn), &raw)
	off := (pfn * 8) % mem.LineBytes
	v := binary.LittleEndian.Uint64(raw[off : off+8])
	return v &^ cowPresent, v&cowPresent != 0
}

// Source returns the page a CoW destination redirects to: the source in its
// counter block (Lelantus) or its table entry (Lelantus-CoW). Baseline and
// Silent Shredder keep no redirects.
func (d *DurableImage) Source(pfn uint64) (uint64, bool) {
	switch d.scheme {
	case Lelantus:
		if blk, ok := d.Block(pfn); ok && blk.CoW {
			return blk.Src, true
		}
	case LelantusCoW:
		return d.CoWEntry(pfn)
	}
	return 0, false
}

// LineWritten reports whether the data line at lineAddr was ever encrypted
// to NVM (never-written lines legitimately read as zeros).
func (d *DurableImage) LineWritten(lineAddr uint64) bool {
	return d.written.Test(mem.LineNo(lineAddr))
}
