package core

import (
	"errors"

	"lelantus/internal/ctr"
	"lelantus/internal/faultinject"
	"lelantus/internal/mem"
	"lelantus/internal/probe"
)

// ErrSamePage is returned for a copy command whose source and destination
// coincide (the kernel guarantees alignment and distinctness; the
// controller still refuses nonsense).
var ErrSamePage = errors.New("core: source and destination page are identical")

// clearLinePrivacy drops the MACs and the written marks of every line of a
// page whose previous content became dead (page_copy destination, freed or
// re-initialised page). Subsequent reads see zeros or the CoW source.
func (e *Engine) clearLinePrivacy(pfn uint64) {
	for i := 0; i < mem.LinesPerPage; i++ {
		lineNo := mem.LineNo(mem.LineAddr(pfn, i))
		e.MACs.Drop(lineNo)
		e.written.Clear(lineNo)
	}
}

// PageCopy executes the page_copy MMIO command (Table II): a logical copy
// of one 4 KB page. Instead of moving 64 cachelines, only the destination
// page's metadata is updated: its minors all become zero ("not copied
// yet") and the source page number is recorded — in the counter block
// itself (Lelantus) or in the supplementary CoW table (Lelantus-CoW).
//
// When the source page is itself a fully unmodified CoW page, the paper's
// chain short-circuit (Section III-E) records the source's own source, so
// reclaiming the middle page never involves the grandchild.
func (e *Engine) PageCopy(now, src, dst uint64) (uint64, error) {
	if e.pr == nil {
		return e.pageCopy(now, src, dst)
	}
	done, err := e.pageCopy(now, src, dst)
	if err == nil {
		e.pr.Record(probe.EvPageCopy, now, done, dst, src)
	}
	return done, err
}

func (e *Engine) pageCopy(now, src, dst uint64) (uint64, error) {
	if src == dst {
		return now, ErrSamePage
	}
	switch e.cfg.Scheme {
	case Lelantus, LelantusCoW:
	default:
		return now, ErrUnsupported
	}
	e.Stats.PageCopies++
	t := now + e.cfg.CmdLatencyNs

	actual := src
	blkSrc, t, err := e.loadBlock(t, src)
	if err != nil {
		return t, err
	}
	switch e.cfg.Scheme {
	case Lelantus:
		if blkSrc.CoW && blkSrc.UncopiedCount() == ctr.LinesPerPage {
			actual = blkSrc.Src
		}
	case LelantusCoW:
		if blkSrc.UncopiedCount() == ctr.LinesPerPage {
			if s, ok := e.cowEntryView(src); ok {
				actual = s
			}
		}
	}

	blkDst, t, err := e.loadBlock(t, dst)
	if err != nil {
		return t, err
	}
	// Entering a new major epoch prevents one-time-pad reuse across the
	// destination frame's lifetimes (its minors restart near zero).
	blkDst.Major++
	switch e.cfg.Scheme {
	case Lelantus:
		if err := blkDst.MakeCoW(actual); err != nil {
			return t, err
		}
	case LelantusCoW:
		for i := range blkDst.Minor {
			blkDst.Minor[i] = 0
		}
		if t, err = e.storeCoWMapping(t, dst, actual, true); err != nil {
			return t, err
		}
		// Ordering seam: the srcAddr record is durable before the counter
		// block flips the destination's minors to zero. A crash here leaves
		// a mapping whose destination still reads its old content — benign,
		// and exactly what the sweep's invariant checker proves.
		if d := e.fiHit(faultinject.PageCopySeam); d.Action == faultinject.ActCrash {
			return t, d.Err
		}
	}
	e.clearLinePrivacy(dst)
	return e.storeBlock(t, dst, &blkDst)
}

// PageInit executes the page_init command: the destination page becomes
// all-zeros without writing a single data line. Silent Shredder and
// Lelantus-CoW encode this as zero minors with no source mapping; Lelantus
// points the page at the kernel's shared zero frame.
func (e *Engine) PageInit(now, dst uint64) (uint64, error) {
	if e.pr == nil {
		return e.pageInit(now, dst)
	}
	done, err := e.pageInit(now, dst)
	if err == nil {
		e.pr.Record(probe.EvPageInit, now, done, dst, 0)
	}
	return done, err
}

func (e *Engine) pageInit(now, dst uint64) (uint64, error) {
	if e.cfg.Scheme == Baseline {
		return now, ErrUnsupported
	}
	e.Stats.PageInits++
	t := now + e.cfg.CmdLatencyNs
	blk, t, err := e.loadBlock(t, dst)
	if err != nil {
		return t, err
	}
	blk.Major++
	switch e.cfg.Scheme {
	case Lelantus:
		if err := blk.MakeCoW(e.ZeroPFN); err != nil {
			return t, err
		}
	case LelantusCoW:
		for i := range blk.Minor {
			blk.Minor[i] = 0
		}
		if t, err = e.storeCoWMapping(t, dst, 0, false); err != nil {
			return t, err
		}
		if d := e.fiHit(faultinject.PageCopySeam); d.Action == faultinject.ActCrash {
			return t, d.Err
		}
	case SilentShredder:
		for i := range blk.Minor {
			blk.Minor[i] = 0
		}
	}
	e.clearLinePrivacy(dst)
	return e.storeBlock(t, dst, &blk)
}

// PagePhyc executes the page_phyc command: a real, physical copy of the
// lines of dst still redirected to src. The controller first verifies the
// destination still references the claimed source (the kernel's reverse
// lookup is heuristic — Section III-D); a stale pair is a no-op. Line
// copies are issued concurrently so bank-level parallelism and row buffers
// are exploited, as the paper notes for reclamation-time copies.
func (e *Engine) PagePhyc(now, src, dst uint64) (done uint64, copied int, err error) {
	if e.pr == nil {
		return e.pagePhyc(now, src, dst)
	}
	done, copied, err = e.pagePhyc(now, src, dst)
	if err == nil {
		e.pr.Record(probe.EvPagePhyc, now, done, dst, uint64(copied))
	}
	return done, copied, err
}

func (e *Engine) pagePhyc(now, src, dst uint64) (done uint64, copied int, err error) {
	switch e.cfg.Scheme {
	case Lelantus, LelantusCoW:
	default:
		return now, 0, ErrUnsupported
	}
	e.Stats.PagePhycs++
	t := now + e.cfg.CmdLatencyNs

	blk, t, err := e.loadBlock(t, dst)
	if err != nil {
		return t, 0, err
	}
	switch e.cfg.Scheme {
	case Lelantus:
		if !blk.CoW || blk.Src != src {
			return t, 0, nil
		}
	case LelantusCoW:
		s, ok, tc, lerr := e.lookupCoW(t, dst)
		t = tc
		if lerr != nil {
			return t, 0, lerr
		}
		if !ok || s != src {
			return t, 0, nil
		}
	}

	done = t
	if e.mlpOn() {
		// MLP: walk the redirect chain once for the whole page and batch
		// the per-line work over the issue-window pool; the serial loop
		// below re-resolves the chain per line. The only page engine with
		// two paths: the walks touch the counter cache differently, so
		// hits and sim-ns differ between them (DESIGN.md §14.2).
		done, copied, err = e.phycLinesBatched(t, src, dst, &blk)
		if err != nil {
			return done, copied, err
		}
	} else {
		for i := 0; i < mem.LinesPerPage; i++ {
			if blk.Minor[i] != 0 {
				continue
			}
			// Resolve through the source (and any chain behind it).
			plain, rt, rerr := e.resolve(t, mem.LineAddr(src, i))
			if rerr != nil {
				return rt, copied, rerr
			}
			la := mem.LineAddr(dst, i)
			lineNo := mem.LineNo(la)
			blk.Minor[i] = 1
			e.written.Set(lineNo)
			var wt uint64
			var dec faultinject.Decision
			switch {
			case e.cfg.NonSecure:
				dec = e.persistDataLine(la, &plain)
				wt = e.Mem.Write(rt, la)
			case e.cfg.Fidelity == FidelityTiming:
				// Timing fidelity: plaintext at rest, pad and MAC elided, the
				// secure path's AES latency charge kept.
				e.Enc.NotePads(1)
				dec = e.persistDataLine(la, &plain)
				wt = e.Mem.Write(rt+e.cfg.AESLatencyNs, la)
			default:
				ciph := e.Enc.Encrypt(&plain, lineNo, blk.Major, blk.Minor[i])
				dec = e.persistDataLine(la, &ciph)
				e.MACs.Update(lineNo, ciph[:], blk.Major, blk.Minor[i])
				wt = e.Mem.Write(rt+e.cfg.AESLatencyNs, la)
			}
			e.Stats.DataWrites++
			e.Stats.PhycLines++
			copied++
			e.fiObserve(dec, la, &plain)
			if dec.Action == faultinject.ActCrash {
				return wt, copied, dec.Err
			}
			// Crash after k of 64 materialised lines: the destination counter
			// block in NVM still shows every minor zero, so the whole page
			// keeps redirecting to the (still live) source — no torn
			// half-copy is visible through the read path.
			if d := e.fiHit(faultinject.PagePhycLine); d.Action == faultinject.ActCrash {
				return wt, copied, d.Err
			}
			if wt > done {
				done = wt
			}
		}
	}

	switch e.cfg.Scheme {
	case Lelantus:
		blk.ClearCoW()
	case LelantusCoW:
		ct, cerr := e.storeCoWMapping(done, dst, 0, false)
		if cerr != nil {
			return ct, copied, cerr
		}
		done = maxU64(done, ct)
	}
	bt, err := e.storeBlock(done, dst, &blk)
	return maxU64(done, bt), copied, err
}

// PageFree executes the page_free command: the destination page is being
// released, so its pending line copies are cancelled outright — the
// copies simply never happen. The page's metadata enters a fresh epoch so
// the recycled frame starts with zero-reading lines and unreused pads.
func (e *Engine) PageFree(now, dst uint64) (uint64, error) {
	if e.pr == nil {
		return e.pageFree(now, dst)
	}
	done, err := e.pageFree(now, dst)
	if err == nil {
		e.pr.Record(probe.EvPageFree, now, done, dst, 0)
	}
	return done, err
}

func (e *Engine) pageFree(now, dst uint64) (uint64, error) {
	switch e.cfg.Scheme {
	case Lelantus, LelantusCoW, SilentShredder:
	default:
		return now, ErrUnsupported
	}
	e.Stats.PageFrees++
	t := now + e.cfg.CmdLatencyNs
	blk, t, err := e.loadBlock(t, dst)
	if err != nil {
		return t, err
	}
	switch e.cfg.Scheme {
	case Lelantus:
		if blk.CoW {
			e.Stats.ElidedLines += uint64(blk.UncopiedCount())
		}
		blk.ClearCoW()
	case LelantusCoW:
		if _, ok := e.cowEntryView(dst); ok {
			e.Stats.ElidedLines += uint64(blk.UncopiedCount())
		}
		if t, err = e.storeCoWMapping(t, dst, 0, false); err != nil {
			return t, err
		}
	}
	blk.Major++
	if blk.Format == ctr.Resized {
		blk.Major &= 1<<63 - 1
	}
	for i := range blk.Minor {
		blk.Minor[i] = 0
	}
	e.clearLinePrivacy(dst)
	return e.storeBlock(t, dst, &blk)
}
