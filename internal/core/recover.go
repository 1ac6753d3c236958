package core

import (
	"fmt"

	"lelantus/internal/ctr"
	"lelantus/internal/mem"
	"lelantus/internal/probe"
)

// reportListCap bounds the per-item lists embedded in a RecoveryReport so a
// pathological run cannot balloon the report; the counters always carry the
// full totals.
const reportListCap = 64

// RecoveryReport summarises one post-crash scrub of the metadata region.
// The field set is deliberately value-only (no pointers, no maps) and the
// lists are sorted, so two runs with the same fault seed marshal to
// byte-identical JSON — the determinism contract the property test pins.
type RecoveryReport struct {
	Scheme    Scheme `json:"scheme"`
	Strategy  string `json:"strategy"`
	FaultSeed int64  `json:"faultSeed"`

	// Counter-block scan (pass 1). Under a strategy without durable leaf
	// digests the scan *adopts* the NVM counter image instead of verifying
	// it: LeavesRebuilt counts the re-derived digests and TornBlocks stays
	// zero — torn counter writes surface later as MAC mismatches.
	BlocksScanned uint64   `json:"blocksScanned"`
	TornBlocks    uint64   `json:"tornBlocks"`
	TornPages     []uint64 `json:"tornPages,omitempty"` // first reportListCap, sorted
	LeavesRebuilt uint64   `json:"leavesRebuilt,omitempty"`

	// Merkle-tree rebuild (pass 2). NodesByLevel[l] is the node count of
	// inner level l (level 0 sits directly above the leaf digests);
	// NodesRebuilt is their sum. Levels the strategy did not persist cost an
	// extra device read per node at recovery.
	NodesRebuilt uint64   `json:"nodesRebuilt"`
	NodesByLevel []uint64 `json:"nodesByLevel,omitempty"`
	RootMatched  bool     `json:"rootMatched"`

	// CoW-chain validation (pass 3). ChainReads is the modeled number of
	// device reads the validation issues: the supplementary-table scan plus
	// one read per chain hop (see chainReads below for the per-scheme
	// accounting).
	CoWMappings    uint64 `json:"cowMappings"`
	CoWChains      uint64 `json:"cowChains"`
	ChainReads     uint64 `json:"chainReads"`
	InvalidSources uint64 `json:"invalidSources"`
	ChainCycles    uint64 `json:"chainCycles"`

	// Data-line MAC scrub (pass 4, secure mode; MACs are actually verified
	// only at Full fidelity — the counts are fidelity-independent).
	LinesScrubbed uint64   `json:"linesScrubbed"`
	MACMismatches uint64   `json:"macMismatches"`
	LostLines     []uint64 `json:"lostLines,omitempty"` // line addrs, first reportListCap, sorted

	// Modeled cost of the scrub on the device (not simulated traffic).
	RecoveryNs uint64 `json:"recoveryNs"`
}

// Violations lists the invariant breaches a recovery is never allowed to
// report: torn blocks and MAC mismatches are *detections* (the design
// working as intended), but an invalid CoW source or a redirect cycle means
// the durable metadata itself lies about where data lives.
func (r *RecoveryReport) Violations() []string {
	var v []string
	if r.InvalidSources > 0 {
		v = append(v, fmt.Sprintf("%d CoW mappings name an invalid source page", r.InvalidSources))
	}
	if r.ChainCycles > 0 {
		v = append(v, fmt.Sprintf("%d CoW redirect chains contain a cycle", r.ChainCycles))
	}
	return v
}

func (r *RecoveryReport) String() string {
	return fmt.Sprintf(
		"recovery[%v/%s seed=%d]: scanned %d blocks (%d torn, %d leaves rebuilt), rebuilt %d tree nodes (root matched: %v), "+
			"%d CoW mappings in %d chains (%d reads, %d invalid sources, %d cycles), scrubbed %d lines (%d MAC mismatches), %d ns",
		r.Scheme, r.Strategy, r.FaultSeed, r.BlocksScanned, r.TornBlocks, r.LeavesRebuilt, r.NodesRebuilt, r.RootMatched,
		r.CoWMappings, r.CoWChains, r.ChainReads, r.InvalidSources, r.ChainCycles,
		r.LinesScrubbed, r.MACMismatches, r.RecoveryNs)
}

// chainNext returns the page a CoW destination redirects to, from durable
// state only (NVM bytes, never the volatile caches the crash discarded).
func (e *Engine) chainNext(pfn uint64) (uint64, bool) {
	switch e.cfg.Scheme {
	case Lelantus:
		if blk, ok := e.peekBlock(pfn); ok && blk.CoW {
			return blk.Src, true
		}
	case LelantusCoW:
		return e.peekCoWEntry(pfn)
	}
	return 0, false
}

// Recover scrubs the persisted metadata image after a crash, in the spirit
// of Anubis/Phoenix-style recovery: the NVM-resident leaves are the ground
// truth, everything volatile is rebuilt or re-verified from them. The
// engine's persistence strategy decides how much verifying versus rebuilding
// each pass does — and what each pass is charged.
//
// Pass 1 walks every initialised counter block. With durable leaf digests
// (strict, phoenix, triad:2+) each block is re-verified against its
// persisted digest, flagging torn or lost block writes. Without them
// (triad:1) the pass instead re-derives every leaf digest from the NVM
// counter image and adopts it — recovery then cannot tell a torn counter
// write apart here, so detection shifts to the pass-4 (and read-time) MAC
// checks. Pass 2 rebuilds the Merkle inner nodes bottom-up from the leaves;
// levels the strategy persisted are verified in place, unpersisted levels
// additionally pay a device access per node to restore the NVM image.
// Pass 3 walks every CoW redirect chain and checks the structural
// invariants (sources in range and distinct from their destination,
// initialised or the shared zero frame, chains acyclic), billing the device
// reads the walk issues. Pass 4 (secure mode) re-verifies the MAC of every
// written line on non-torn pages; mismatches are counted and left in place
// so subsequent reads still fail loudly — recovery detects, it does not
// invent data.
//
// Under FidelityTiming the digest and MAC computations are elided (nothing
// can be detected — timing mode is not a crash-consistency model, §10) but
// every count that feeds RecoveryNs is kept, so the modeled recovery cost
// and the persist-matrix report are byte-identical across fidelities.
//
// The scrub itself runs outside simulated time; its modeled device cost is
// reported in RecoveryNs and accumulated into Stats.
func (e *Engine) Recover() (*RecoveryReport, error) {
	strat := e.strategy()
	rep := &RecoveryReport{Scheme: e.cfg.Scheme, Strategy: strat.Name(), FaultSeed: e.fi.Seed(), RootMatched: true}
	secure := !e.cfg.NonSecure
	hashing := secure && e.cfg.Fidelity == FidelityFull
	pages := e.layout.DataLimit / mem.PageBytes

	// Pass 1: counter-block scan against (or rebuild of) the leaf digests.
	// live is in pfn order, so passes 1 and 4 list torn pages and lost
	// lines sorted.
	live := make([]uint64, 0, e.initialised.Count())
	for pfn := uint64(0); pfn < pages; pfn++ {
		if e.initialised.Test(pfn) {
			live = append(live, pfn)
		}
	}
	rep.BlocksScanned = uint64(len(live))
	torn := make(map[uint64]bool)
	switch {
	case !secure:
	case !strat.LeafDigestsDurable():
		// Rebuild mode: adopt each block's NVM image as its leaf.
		for _, pfn := range live {
			var raw [ctr.BlockBytes]byte
			e.Phys.ReadLine(e.ctrAddr(pfn), &raw)
			e.Tree.ResetLeaf(pfn, raw[:])
			rep.LeavesRebuilt++
		}
	case hashing:
		for _, pfn := range live {
			var raw [ctr.BlockBytes]byte
			e.Phys.ReadLine(e.ctrAddr(pfn), &raw)
			if e.Tree.VerifyLeaf(pfn, raw[:]) == nil {
				continue
			}
			rep.TornBlocks++
			torn[pfn] = true
			if uint64(len(rep.TornPages)) < reportListCap {
				rep.TornPages = append(rep.TornPages, pfn)
			}
		}
	}

	// Pass 2: rebuild the Merkle inner nodes from the (possibly just
	// re-derived) leaves, Phoenix-style, level by level. The root register
	// is compared for information only: the tree is maintained lazily, so at
	// crash time the register commonly trails the leaves without anything
	// being wrong.
	if secure && e.Tree != nil {
		oldRoot := e.Tree.RootRegister()
		rep.NodesByLevel = e.Tree.RebuildFromLeavesByLevel()
		for _, n := range rep.NodesByLevel {
			rep.NodesRebuilt += n
		}
		rep.RootMatched = e.Tree.RootRegister() == oldRoot
	}

	// Pass 3: CoW redirect-chain invariants, from durable state only.
	//
	// Device-read accounting (ChainReads): Lelantus-CoW first scans the
	// supplementary table — eight 8 B mappings per 64 B line — then pays one
	// table-line read per hop of every walk. Lelantus keeps the mapping
	// inside the counter block, so the start scan piggybacks on the block
	// stream pass 1 just read (no extra charge) and a walk hop is billed
	// only when it lands on an initialised page whose block actually has to
	// be fetched.
	if e.cfg.Scheme == LelantusCoW {
		entriesPerLine := uint64(mem.LineBytes / 8)
		rep.ChainReads += (pages + entriesPerLine - 1) / entriesPerLine
	}
	starts := make([]uint64, 0)
	for pfn := uint64(0); pfn < pages; pfn++ {
		if _, ok := e.chainNext(pfn); ok {
			rep.CoWMappings++
			starts = append(starts, pfn)
		}
	}
	for _, start := range starts {
		rep.CoWChains++
		visited := map[uint64]bool{start: true}
		cur := start
		for {
			switch e.cfg.Scheme {
			case Lelantus:
				if e.initialised.Test(cur) {
					rep.ChainReads++
				}
			case LelantusCoW:
				rep.ChainReads++
			}
			src, ok := e.chainNext(cur)
			if !ok {
				break
			}
			if src == cur || src*mem.PageBytes >= e.layout.DataLimit {
				rep.InvalidSources++
				break
			}
			// A source must exist — except the shared zero frame, which is
			// legitimately never materialised (page_init redirects to it).
			if !e.initialised.Test(src) && src != e.ZeroPFN {
				rep.InvalidSources++
				break
			}
			if visited[src] {
				rep.ChainCycles++
				break
			}
			visited[src] = true
			cur = src
		}
	}

	// Pass 4: MAC scrub of written lines on pages whose counter block
	// survived intact (a torn block already invalidates the whole page).
	// Without hashing (timing fidelity) it only counts the lines a full
	// scrub would verify. peekBlock is side-effect free.
	if secure {
		for _, pfn := range live {
			if torn[pfn] {
				continue
			}
			blk, ok := e.peekBlock(pfn)
			if !ok {
				continue
			}
			for i := 0; i < mem.LinesPerPage; i++ {
				la := mem.LineAddr(pfn, i)
				lineNo := mem.LineNo(la)
				if blk.Minor[i] == 0 || !e.written.Test(lineNo) {
					continue
				}
				rep.LinesScrubbed++
				if !hashing {
					continue
				}
				var ciph [mem.LineBytes]byte
				e.Phys.ReadLine(la, &ciph)
				if e.MACs.Verify(lineNo, ciph[:], blk.Major, blk.Minor[i]) == nil {
					continue
				}
				rep.MACMismatches++
				if uint64(len(rep.LostLines)) < reportListCap {
					rep.LostLines = append(rep.LostLines, la)
				}
			}
		}
	}

	// Modeled scrub cost, per pass. Pass 1: every scanned block is a
	// metadata read plus a verification, and a rebuilt leaf digest an extra
	// hash. Pass 2: every inner node a hash, plus a device access when its
	// level was not persisted. Pass 3: the chain-walk device reads. Pass 4:
	// every scrubbed line a data read plus a MAC check. The per-pass terms
	// are recomputable from the report fields and the strategy's declared
	// durability — TestRecoveryNsFormulaPerPass pins exactly that.
	//
	// Under MLP each pass's device reads spread across the banks and its
	// verifications across an MSHR-sized verify pipeline (recoveryPassNs),
	// modeling a scrub that streams independent blocks bank-parallel. This
	// deliberately idealises pass 3 — hops *within* one chain are dependent
	// — but distinct chains are independent and dominate the read count.
	devCfg := e.Dev.Config()
	durableInner := strat.DurableInnerLevels(len(rep.NodesByLevel))
	pass1 := e.recoveryPassNs(rep.BlocksScanned*devCfg.ReadNs,
		(rep.BlocksScanned+rep.LeavesRebuilt)*e.cfg.VerifyNs)
	var pass2dev, pass2ver uint64
	for l, n := range rep.NodesByLevel {
		pass2ver += n * e.cfg.VerifyNs
		if l >= durableInner {
			pass2dev += n * devCfg.ReadNs
		}
	}
	pass2 := e.recoveryPassNs(pass2dev, pass2ver)
	pass3 := e.recoveryPassNs(rep.ChainReads*devCfg.ReadNs, 0)
	pass4 := e.recoveryPassNs(rep.LinesScrubbed*devCfg.ReadNs,
		rep.LinesScrubbed*e.cfg.VerifyNs)
	rep.RecoveryNs = pass1 + pass2 + pass3 + pass4

	e.Stats.Recoveries++
	e.Stats.RecoveryBlocksScanned += rep.BlocksScanned
	e.Stats.RecoveryTornBlocks += rep.TornBlocks
	e.Stats.RecoveryNodesRebuilt += rep.NodesRebuilt
	e.Stats.RecoveryLinesScrubbed += rep.LinesScrubbed
	e.Stats.RecoveryMACMismatches += rep.MACMismatches
	e.Stats.RecoveryNs += rep.RecoveryNs

	if e.pr != nil {
		// One span per scrub pass, laid end to end from the plane's
		// high-water simulated time using the same modeled per-pass costs
		// that make up RecoveryNs. The strategy's leaf-digest rebuild (when
		// it runs) is part of the pass-1 span: it happens on the same block
		// stream, before the tree rebuild of pass 2.
		t := e.pr.LastNs()
		passes := [4]struct{ dur, n uint64 }{
			{pass1, rep.BlocksScanned},
			{pass2, rep.NodesRebuilt},
			{pass3, rep.CoWChains},
			{pass4, rep.LinesScrubbed},
		}
		for i, p := range passes {
			e.pr.Record(probe.EvRecovery, t, t+p.dur, uint64(i+1), p.n)
			t += p.dur
		}
	}
	return rep, nil
}
