package core

import (
	"lelantus/internal/ctr"
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
// PrefetchUnused count, once at construction: a power cycle resets the
// caches in place and keeps their sinks.
func (e *Engine) attachPrefetchSinks() {
	e.CtrCache.OnPrefetchEvict = func(page uint64) { e.notePrefetchUnused(page, 0) }
	e.CoWCache.OnPrefetchEvict = func(dst uint64) { e.notePrefetchUnused(dst, 1) }
}

// notePrefetchUnused counts a prefetched entry evicted before any demand
// touch; kind is 0 for a counter block, 1 for a CoW-table entry.
func (e *Engine) notePrefetchUnused(page, kind uint64) {
	e.Stats.PrefetchUnused++
	if e.pr != nil {
		e.pr.RecordAt(probe.EvPrefetchUnused, page, kind)
	}
}

// pfTouch settles the first demand touch of a prefetched entry whose fill
// completes at ready (kind 0: counter block, 1: CoW-table entry): if the
// fill is still in flight the demand access waits for it (a late prefetch
// still hides part of the miss), otherwise the fill was fully timely.
// No-op when ready is 0: the entry was demand-filled or already touched.
func (e *Engine) pfTouch(now, pfn, kind, ready uint64, done *uint64) {
	if ready == 0 {
		return
	}
	if ready > *done {
		e.Stats.PrefetchLate++
		if e.pr != nil {
			e.pr.Record(probe.EvPrefetchLate, now, ready, pfn, kind)
		}
		*done = ready
	} else {
		e.Stats.PrefetchUseful++
		if e.pr != nil {
			e.pr.Record(probe.EvPrefetchUseful, now, *done, pfn, kind)
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
	pages := int64(e.img.pages())
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
		src, ok := e.SourceOf(cur)
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
	if pfn >= e.img.pages() || !e.img.initialised.Test(pfn) {
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
	addr := e.img.ctrAddr(pfn)
	var raw [ctr.BlockBytes]byte
	e.img.Phys.ReadLine(addr, &raw)
	done := e.readLeg(issue, addr)
	e.Stats.CtrReads++
	if !e.cfg.NonSecure {
		done += e.cfg.VerifyNs
		if err := e.img.Tree.Verify(pfn, raw[:]); err != nil {
			return done, false
		}
	}
	var blk ctr.Block
	if err := ctr.UnpackInto(&raw, e.cfg.Scheme.Format(), &blk); err != nil {
		return done, false
	}
	if !e.CtrCache.PutPrefetched(pfn, blk, done) {
		return done, false // room vanished; nothing installed
	}
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
	if e.cfg.Scheme != LelantusCoW || pfn >= e.img.pages() {
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
	addr := e.img.cowMetaAddr(pfn)
	done := e.readLeg(issue, addr)
	e.Stats.CoWMetaReads++
	src, present := e.img.CoWEntry(pfn)
	if !e.CoWCache.InsertPrefetched(pfn, src, present, done) {
		return done, false
	}
	e.Stats.PrefetchIssued++
	if e.pr != nil {
		e.pr.Record(probe.EvPrefetchIssue, issue, done, pfn, 1)
	}
	return done, true
}
