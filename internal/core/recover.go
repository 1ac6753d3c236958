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
// The scrub reads the DurableImage and the plain values of scrubParams
// only: no counter cache, CoW cache or prefetch unit is reachable from it.
// It runs outside simulated time; its modeled device cost is reported in
// RecoveryNs, and Recover accumulates the report into Stats. Its host cost
// follows what the run touched, not the capacity: passes 1 and 3 enumerate
// the initialised blocks and the resident CoW-table frames (liveBlocks,
// chainStarts), never every page frame of the machine.
func (e *Engine) Recover() (*RecoveryReport, error) {
	live := e.img.liveBlocks()
	return e.bookRecovery(e.img.scrub(e.scrubParams(), live, e.img.chainStarts(live))), nil
}

// scrubParams is what the recovery scrub knows of the machine besides its
// durable image: configuration and device geometry, as plain values.
type scrubParams struct {
	persist   PersistStrategy
	secure    bool // the tree and the data MACs are maintained
	hashing   bool // secure, and digests and MACs are computed (full fidelity)
	zeroPFN   uint64
	faultSeed int64
	readNs    uint64
	verifyNs  uint64
	// banks and mshrs spread a pass's device and verify time under MLP;
	// mshrs == 0 (MLP off) charges the pass serially.
	banks, mshrs uint64
}

func (e *Engine) scrubParams() scrubParams {
	p := scrubParams{
		persist:   e.cfg.Persist,
		secure:    !e.cfg.NonSecure,
		hashing:   !e.cfg.NonSecure && e.cfg.Fidelity == FidelityFull,
		zeroPFN:   e.ZeroPFN,
		faultSeed: e.fi.Seed(),
		readNs:    e.Dev.Config().ReadNs,
		verifyNs:  e.cfg.VerifyNs,
	}
	if e.mlpOn() {
		p.banks, p.mshrs = uint64(e.Dev.Banks()), uint64(e.mshr.Size())
	}
	return p
}

// passNs converts a pass's device time and verify time into its charged
// latency: serial (their sum) without MLP; with MLP the device portion
// spreads over the banks and the verify portion over the MSHR-sized verify
// pipeline, each rounded up to whole epochs.
func (p scrubParams) passNs(devNs, verifyNs uint64) uint64 {
	if p.mshrs == 0 {
		return devNs + verifyNs
	}
	return ceilDiv(devNs, p.banks) + ceilDiv(verifyNs, p.mshrs)
}

// bookRecovery accumulates a scrub's report into Stats and, with a probe
// attached, lays its four passes (passNs, as scrub returns them) end to end
// as spans from the plane's high-water simulated time.
func (e *Engine) bookRecovery(rep *RecoveryReport, passNs [4]uint64) *RecoveryReport {
	e.Stats.Recoveries++
	e.Stats.RecoveryBlocksScanned += rep.BlocksScanned
	e.Stats.RecoveryTornBlocks += rep.TornBlocks
	e.Stats.RecoveryNodesRebuilt += rep.NodesRebuilt
	e.Stats.RecoveryLinesScrubbed += rep.LinesScrubbed
	e.Stats.RecoveryMACMismatches += rep.MACMismatches
	e.Stats.RecoveryNs += rep.RecoveryNs

	if e.pr != nil {
		// The strategy's leaf-digest rebuild (when it runs) is part of the
		// pass-1 span: it happens on the same block stream, before the tree
		// rebuild of pass 2.
		t := e.pr.LastNs()
		counts := [4]uint64{rep.BlocksScanned, rep.NodesRebuilt, rep.CoWChains, rep.LinesScrubbed}
		for i, dur := range passNs {
			e.pr.Record(probe.EvRecovery, t, t+dur, uint64(i+1), counts[i])
			t += dur
		}
	}
	return rep
}

// liveBlocks lists the initialised counter blocks of the data region in
// pfn order: the blocks pass 1 scans.
func (d *DurableImage) liveBlocks() []uint64 {
	pages := d.pages()
	live := make([]uint64, 0, d.initialised.Count())
	for pfn, ok := d.initialised.Next(0); ok && pfn < pages; pfn, ok = d.initialised.Next(pfn + 1) {
		live = append(live, pfn)
	}
	return live
}

// chainStarts lists, in pfn order, the pages whose durable metadata records
// a CoW redirect: the chains pass 3 walks. It decodes only what can hold
// one. A Lelantus redirect lives in a counter block, and Block finds one
// only for an initialised page, so live holds every start. A Lelantus-CoW
// entry lives in the supplementary table, and a table frame never written
// reads as zeros, which has no present bit, so only resident frames are
// decoded. Baseline and Silent Shredder keep no redirects.
func (d *DurableImage) chainStarts(live []uint64) []uint64 {
	starts := make([]uint64, 0)
	switch d.scheme {
	case Lelantus:
		for _, pfn := range live {
			if _, ok := d.Source(pfn); ok {
				starts = append(starts, pfn)
			}
		}
	case LelantusCoW:
		// Page pfn's entry is the 8 bytes at base+8*pfn (cowMetaAddr), and
		// frame boundaries are line-aligned, so frame f holds the entries
		// of pfns [lo, hi).
		base, end := d.layout.CoWBase, d.layout.CoWBase+d.pages()*8
		for f := mem.PageOf(base); mem.PageAddr(f) < end; f++ {
			if !d.Phys.Resident(f) {
				continue
			}
			lo := (max(mem.PageAddr(f), base) - base + 7) / 8
			hi := (min(mem.PageAddr(f+1), end) - base + 7) / 8
			for pfn := lo; pfn < hi; pfn++ {
				if _, ok := d.CoWEntry(pfn); ok {
					starts = append(starts, pfn)
				}
			}
		}
	}
	return starts
}

// scrub runs the four recovery passes over pass 1's live blocks and pass
// 3's chain starts, both in pfn order, and returns the report with each
// pass's modeled cost.
func (d *DurableImage) scrub(p scrubParams, live, starts []uint64) (*RecoveryReport, [4]uint64) {
	strat := p.persist
	rep := &RecoveryReport{Scheme: d.scheme, Strategy: strat.Name(), FaultSeed: p.faultSeed, RootMatched: true}

	// Pass 1: counter-block scan against (or rebuild of) the leaf digests.
	// live is in pfn order, so passes 1 and 4 list torn pages and lost
	// lines sorted.
	rep.BlocksScanned = uint64(len(live))
	torn := make(map[uint64]bool)
	switch {
	case !p.secure:
	case !strat.LeafDigestsDurable():
		// Rebuild mode: adopt each block's NVM image as its leaf.
		for _, pfn := range live {
			var raw [ctr.BlockBytes]byte
			d.Phys.ReadLine(d.ctrAddr(pfn), &raw)
			d.Tree.ResetLeaf(pfn, raw[:])
			rep.LeavesRebuilt++
		}
	case p.hashing:
		for _, pfn := range live {
			var raw [ctr.BlockBytes]byte
			d.Phys.ReadLine(d.ctrAddr(pfn), &raw)
			if d.Tree.VerifyLeaf(pfn, raw[:]) == nil {
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
	if p.secure && d.Tree != nil {
		oldRoot := d.Tree.RootRegister()
		rep.NodesByLevel = d.Tree.RebuildFromLeavesByLevel()
		for _, n := range rep.NodesByLevel {
			rep.NodesRebuilt += n
		}
		rep.RootMatched = d.Tree.RootRegister() == oldRoot
	}

	// Pass 3: CoW redirect-chain invariants.
	//
	// Device-read accounting (ChainReads): Lelantus-CoW first scans the
	// supplementary table — eight 8 B mappings per 64 B line — then pays one
	// table-line read per hop of every walk. Lelantus keeps the mapping
	// inside the counter block, so the start scan piggybacks on the block
	// stream pass 1 just read (no extra charge) and a walk hop is billed
	// only when it lands on an initialised page whose block actually has to
	// be fetched.
	if d.scheme == LelantusCoW {
		entriesPerLine := uint64(mem.LineBytes / 8)
		rep.ChainReads += (d.pages() + entriesPerLine - 1) / entriesPerLine
	}
	rep.CoWMappings = uint64(len(starts))
	for _, start := range starts {
		rep.CoWChains++
		visited := map[uint64]bool{start: true}
		cur := start
		for {
			switch d.scheme {
			case Lelantus:
				if d.initialised.Test(cur) {
					rep.ChainReads++
				}
			case LelantusCoW:
				rep.ChainReads++
			}
			src, ok := d.Source(cur)
			if !ok {
				break
			}
			if src == cur || src*mem.PageBytes >= d.layout.DataLimit {
				rep.InvalidSources++
				break
			}
			// A source must exist — except the shared zero frame, which is
			// legitimately never materialised (page_init redirects to it).
			if !d.initialised.Test(src) && src != p.zeroPFN {
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
	// scrub would verify.
	if p.secure {
		for _, pfn := range live {
			if torn[pfn] {
				continue
			}
			blk, ok := d.Block(pfn)
			if !ok {
				continue
			}
			for i := 0; i < mem.LinesPerPage; i++ {
				la := mem.LineAddr(pfn, i)
				lineNo := mem.LineNo(la)
				if blk.Minor[i] == 0 || !d.written.Test(lineNo) {
					continue
				}
				rep.LinesScrubbed++
				if !p.hashing {
					continue
				}
				var ciph [mem.LineBytes]byte
				d.Phys.ReadLine(la, &ciph)
				if d.MACs.Verify(lineNo, ciph[:], blk.Major, blk.Minor[i]) == nil {
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
	// verifications across an MSHR-sized verify pipeline (passNs), modeling
	// a scrub that streams independent blocks bank-parallel. This
	// deliberately idealises pass 3 — hops *within* one chain are dependent
	// — but distinct chains are independent and dominate the read count.
	durableInner := strat.DurableInnerLevels(len(rep.NodesByLevel))
	var pass2dev, pass2ver uint64
	for l, n := range rep.NodesByLevel {
		pass2ver += n * p.verifyNs
		if l >= durableInner {
			pass2dev += n * p.readNs
		}
	}
	passNs := [4]uint64{
		p.passNs(rep.BlocksScanned*p.readNs, (rep.BlocksScanned+rep.LeavesRebuilt)*p.verifyNs),
		p.passNs(pass2dev, pass2ver),
		p.passNs(rep.ChainReads*p.readNs, 0),
		p.passNs(rep.LinesScrubbed*p.readNs, rep.LinesScrubbed*p.verifyNs),
	}
	rep.RecoveryNs = passNs[0] + passNs[1] + passNs[2] + passNs[3]
	return rep, passNs
}
