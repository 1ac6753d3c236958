package core

import (
	"lelantus/internal/faultinject"
	"lelantus/internal/mem"
)

// RecoveryScan returns pass 1's live blocks and pass 3's chain starts as
// Recover enumerates them. Both are pure reads of the durable image.
func (e *Engine) RecoveryScan() (live, starts []uint64) {
	live = e.img.liveBlocks()
	return live, e.img.chainStarts(live)
}

// ReferenceScan is RecoveryScan by definition, the test oracle for it: it
// tests every page frame of the data region for an initialised block
// (pass 1) and asks Source of every one (pass 3), whatever the run
// touched.
func (e *Engine) ReferenceScan() (live, starts []uint64) {
	live, starts = make([]uint64, 0), make([]uint64, 0)
	for pfn := uint64(0); pfn < e.img.pages(); pfn++ {
		if e.img.initialised.Test(pfn) {
			live = append(live, pfn)
		}
		if _, ok := e.img.Source(pfn); ok {
			starts = append(starts, pfn)
		}
	}
	return live, starts
}

// RecoverReference is Recover over ReferenceScan's lists.
func (e *Engine) RecoverReference() (*RecoveryReport, error) {
	live, starts := e.ReferenceScan()
	return e.bookRecovery(e.img.scrub(e.scrubParams(), live, starts)), nil
}

// PersistLine is persistLine: one line write through fault point pt.
func (e *Engine) PersistLine(pt faultinject.Point, addr uint64, img *[mem.LineBytes]byte) faultinject.Decision {
	return e.persistLine(pt, addr, img)
}
