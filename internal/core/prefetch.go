package core

import (
	"lelantus/internal/ctr"
	"lelantus/internal/mem"
	"lelantus/internal/prefetch"
	"lelantus/internal/probe"
)

// PrefetchConfig, PrefetchMode and the mode constants re-export the
// internal/prefetch configuration surface so the controller, experiments
// and CLI layers configure the unit without importing the package.
type (
	PrefetchConfig = prefetch.Config
	PrefetchMode   = prefetch.Mode
)

const (
	PrefetchOff   = prefetch.Off
	PrefetchDelta = prefetch.Delta
	PrefetchChain = prefetch.Chain
	PrefetchBoth  = prefetch.Both
)

// attachPrefetchSinks wires the caches' evicted-unused callbacks to the
// prefetch unit's in-flight bookkeeping. Called at construction and again
// after ResetVolatile swaps the caches. The callbacks keep one invariant:
// a cache entry's prefetched flag is set exactly while the unit holds
// in-flight state for that page — every path that clears the flag without
// a demand touch funnels through here.
func (e *Engine) attachPrefetchSinks() {
	e.CtrCache.OnPrefetchEvict = func(page uint64) {
		e.pf.DropCtr(page)
		e.Stats.PrefetchUnused++
		if e.pr != nil {
			e.pr.RecordAt(probe.EvPrefetchUnused, page, 0)
		}
	}
	e.CoWCache.OnPrefetchEvict = func(dst uint64) {
		e.pf.DropCoW(dst)
		e.Stats.PrefetchUnused++
		if e.pr != nil {
			e.pr.RecordAt(probe.EvPrefetchUnused, dst, 1)
		}
	}
}

// pfTouchCtr settles the first demand touch of a prefetched counter block:
// if the fill is still in flight the demand access waits for it (a late
// prefetch still hides part of the miss), otherwise the fill was fully
// timely. No-op when the page has no in-flight fill.
func (e *Engine) pfTouchCtr(now, pfn uint64, done *uint64) {
	ready, ok := e.pf.ConsumeCtr(pfn)
	if !ok {
		return
	}
	if ready > *done {
		e.Stats.PrefetchLate++
		if e.pr != nil {
			e.pr.Record(probe.EvPrefetchLate, now, ready, pfn, 0)
		}
		*done = ready
	} else {
		e.Stats.PrefetchUseful++
		if e.pr != nil {
			e.pr.Record(probe.EvPrefetchUseful, now, *done, pfn, 0)
		}
	}
}

// pfTouchCoW is pfTouchCtr for supplementary CoW-table entries.
func (e *Engine) pfTouchCoW(now, pfn uint64, done *uint64) {
	ready, ok := e.pf.ConsumeCoW(pfn)
	if !ok {
		return
	}
	if ready > *done {
		e.Stats.PrefetchLate++
		if e.pr != nil {
			e.pr.Record(probe.EvPrefetchLate, now, ready, pfn, 1)
		}
		*done = ready
	} else {
		e.Stats.PrefetchUseful++
		if e.pr != nil {
			e.pr.Record(probe.EvPrefetchUseful, now, *done, pfn, 1)
		}
	}
}

// pfObserve trains the delta table on one demand counter-block access and
// issues fills for the predicted pages. Metadata accesses of every kind
// funnel through loadBlock, so this single hook sees the merged
// counter-block/CoW-table page stream (a CoW lookup touches the same page
// in the same instant and would add no stride information).
func (e *Engine) pfObserve(issue, pfn uint64) {
	if !e.pf.DeltaOn() {
		return
	}
	delta, n := e.pf.Observe(pfn)
	if n == 0 {
		return
	}
	pages := int64(e.layout.DataLimit / mem.PageBytes)
	p := int64(pfn)
	for k := 0; k < n; k++ {
		p += delta
		if p < 0 || p >= pages {
			return
		}
		// Counter blocks only: every access to a predicted page needs its
		// counter block, but the supplementary table is consulted just for
		// unmaterialised lines of *redirected* pages — stride-predicted
		// table fills are speculation on speculation, so that cache is left
		// to the chain walker, which fills it from observed redirects.
		e.prefetchCtr(issue, uint64(p))
	}
}

// pfMaybeWalkChain runs the redirect-chain walker the moment a demand read
// takes its *first* redirect on destination page dst: the walk runs ahead
// of the demand walk still in progress and pre-fills every remaining hop's
// metadata, starting from first (the page behind the first redirect).
//
// Discovery is dependence-ordered — the next hop's page number comes out of
// the previous hop's metadata — but what gates each step differs by scheme.
// Lelantus embeds the redirect in the counter block itself, so each hop's
// discovery is the counter-block fill and the walk serializes exactly like
// the demand walk it shadows. Lelantus-CoW discovers hops through the flat
// supplementary table: each step is one cheap 8 B entry read (no integrity
// verify), and the expensive counter-block fills issue as hops are found,
// overlapping the remainder of the walk instead of gating it — that gap is
// where the walker beats the demand walk on multi-hop chains.
func (e *Engine) pfMaybeWalkChain(now, dst, first uint64) {
	if !e.pf.ChainOn() || !e.pf.AdmitChainWalk(dst) {
		return
	}
	cur := first
	disc := now // discovery front: when the walker learns each hop's address
	for hop := 0; hop < e.pf.WalkCap(); hop++ {
		ctrReady, ctrFilled := e.prefetchCtr(disc, cur)
		// Chain-end detection is free: it lives in the hop's own counter
		// block (Lelantus: the CoW bit; Lelantus-CoW: a materialised line
		// needs no table lookup), which the fill above is already pulling —
		// the demand walk learns it the same way. Only a *continuing* chain
		// pays the next discovery read.
		src, ok := e.pfChainSource(cur)
		if !ok || src == cur {
			return
		}
		ready, filled := ctrReady, ctrFilled
		if e.cfg.Scheme == LelantusCoW {
			ready, filled = e.prefetchCoW(disc, cur)
		}
		if !filled {
			// A dropped fill means the walker does not hold this hop's
			// metadata; deeper hops cannot be discovered honestly.
			return
		}
		disc, cur = ready, src
	}
}

// pfChainSource returns the next hop behind a page, side-effect free, or
// ok=false at the end of the chain.
func (e *Engine) pfChainSource(pfn uint64) (src uint64, ok bool) {
	switch e.cfg.Scheme {
	case Lelantus:
		if blk, found := e.peekBlock(pfn); found && blk.CoW {
			return blk.Src, true
		}
	case LelantusCoW:
		return e.cowEntryView(pfn)
	}
	return 0, false
}

// prefetchCtr issues one timed counter-block prefetch fill for pfn.
// Returns when the block is (or was already) available and whether the
// caller may rely on it. The fill:
//
//   - never touches uninitialised pages — materialising boot state here
//     would draw from the counter-init RNG out of demand order, changing
//     functional state;
//   - only claims an idle MSHR register when MLP is on (demand-first
//     priority: a prefetch is dropped rather than ever occupying the
//     register a demand leg is about to need); without MLP it charges the
//     bank directly and contends with demand traffic like any access;
//   - only lands in an invalid way or over an older untouched prefetched
//     block (PutPrefetched), so demand LRU priority is never perturbed;
//   - is dropped silently on an integrity-verify or decode failure — a
//     speculative fetch of bad bytes must surface as the demand-path
//     error, not here.
func (e *Engine) prefetchCtr(issue, pfn uint64) (ready uint64, ok bool) {
	if pfn >= e.layout.DataLimit/mem.PageBytes || !e.initialised.Test(pfn) {
		return issue, false
	}
	if e.CtrCache.Peek(pfn) != nil {
		return issue, true // already resident, available immediately
	}
	if !e.CtrCache.PrefetchRoom(pfn) {
		e.Stats.PrefetchDropped++
		return issue, false
	}
	if e.mshr != nil && e.mshr.Busy(issue) >= e.mshr.Size() {
		e.Stats.PrefetchDropped++
		return issue, false
	}
	addr := e.ctrAddr(pfn)
	var raw [ctr.BlockBytes]byte
	e.Phys.ReadLine(addr, &raw)
	done := e.readLeg(issue, addr)
	e.Stats.CtrReads++
	if !e.cfg.NonSecure {
		done += e.cfg.VerifyNs
		if err := e.Tree.Verify(pfn, raw[:]); err != nil {
			return done, false
		}
	}
	var blk ctr.Block
	if err := ctr.UnpackInto(&raw, e.cfg.Scheme.Format(), &blk); err != nil {
		return done, false
	}
	if !e.CtrCache.PutPrefetched(pfn, blk) {
		return done, false // room vanished; nothing installed
	}
	e.pf.NoteCtrFill(pfn, done)
	e.Stats.PrefetchIssued++
	if e.pr != nil {
		e.pr.Record(probe.EvPrefetchIssue, issue, done, pfn, 0)
	}
	return done, true
}

// prefetchCoW issues one timed prefetch fill of pfn's supplementary
// CoW-table entry (LelantusCoW only), under the same rules as prefetchCtr.
// A page with no mapping caches the negative result, exactly as the demand
// lookup would.
func (e *Engine) prefetchCoW(issue, pfn uint64) (ready uint64, ok bool) {
	if e.cfg.Scheme != LelantusCoW || pfn >= e.layout.DataLimit/mem.PageBytes {
		return issue, false
	}
	if _, _, cached := e.CoWCache.Peek(pfn); cached {
		return issue, true
	}
	if !e.CoWCache.PrefetchRoom(pfn) {
		e.Stats.PrefetchDropped++
		return issue, false
	}
	if e.mshr != nil && e.mshr.Busy(issue) >= e.mshr.Size() {
		e.Stats.PrefetchDropped++
		return issue, false
	}
	addr := e.cowMetaAddr(pfn)
	done := e.readLeg(issue, addr)
	e.Stats.CoWMetaReads++
	src, present := e.peekCoWEntry(pfn)
	if !e.CoWCache.InsertPrefetched(pfn, src, present) {
		return done, false
	}
	e.pf.NoteCoWFill(pfn, done)
	e.Stats.PrefetchIssued++
	if e.pr != nil {
		e.pr.Record(probe.EvPrefetchIssue, issue, done, pfn, 1)
	}
	return done, true
}
