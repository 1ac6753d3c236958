package core

import (
	"fmt"
	"runtime"
	"strings"

	"lelantus/internal/bmt"
	"lelantus/internal/ctr"
	"lelantus/internal/faultinject"
	"lelantus/internal/issuewin"
	"lelantus/internal/mem"
)

// MLPConfig models memory-level parallelism in the timing plane. It picks
// timing, not code: every scrub pass and every page engine but page_phyc
// runs one path either way. Disabled (the zero value), every access chain
// is charged serially. Enabled, two things change:
//
//   - An MSHR file lets the *independent* legs of a line access — the final
//     data fetch against the counter-block fetch and verify it overlaps —
//     occupy distinct device banks concurrently, so completion is the max of
//     the overlapped legs instead of their sum. Dependence-ordered legs
//     (redirect-chain hops, pad-gated writes) stay serial; each kept
//     serialization is documented at its site.
//
//   - The per-line crypto of the page engines (page_phyc, the re-encryption
//     sweep) and the recovery scrub's digest and MAC checks fan out over a
//     deterministic goroutine pool of Workers and merge in line order, so
//     results are byte-identical at any pool size. Disabled, the pool has
//     size 1: the jobs run inline on the engine's own crypto state.
type MLPConfig struct {
	// Enabled turns the model on. Off, the MSHR file is never allocated and
	// the hot paths pay one nil compare.
	Enabled bool
	// MSHRs sizes the miss-status holding register file gating overlapped
	// legs (<= 0 means nvm.DefaultMSHRs).
	MSHRs int
	// Workers sizes the issue-window goroutine pool (<= 0 means GOMAXPROCS).
	// Any value yields byte-identical results; it only trades wall-clock.
	Workers int
}

// poolSize resolves the issue-window pool size: 1 with MLP off.
func (c MLPConfig) poolSize() int {
	switch {
	case !c.Enabled:
		return 1
	case c.Workers > 0:
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// ParseMLP parses an -mlp flag value ("on" or "off"; empty means off).
func ParseMLP(s string) (bool, error) {
	switch strings.ToLower(s) {
	case "on":
		return true, nil
	case "off", "":
		return false, nil
	}
	return false, fmt.Errorf("unknown mlp mode %q (want on or off)", s)
}

// mlpOn reports whether the memory-level-parallelism model is active.
func (e *Engine) mlpOn() bool { return e.mshr != nil }

// MLPEnabled is mlpOn for callers outside the package (the controller's
// page engines pick their line issue times on it).
func (e *Engine) MLPEnabled() bool { return e.mlpOn() }

// readLeg issues an independent read leg at issue. With MLP on it goes
// through the MSHR file: the leg starts when a register frees (stalling
// past issue if all are busy) and holds it until the device read
// completes. With MLP off it goes straight to the device.
func (e *Engine) readLeg(issue, addr uint64) uint64 {
	if !e.mlpOn() {
		return e.Mem.Read(issue, addr)
	}
	if e.pr != nil {
		e.pr.ObserveMSHROcc(e.mshr.Busy(issue))
	}
	return e.mshr.Issue(issue, func(start uint64) uint64 {
		return e.Mem.Read(start, addr)
	})
}

// writeLeg is readLeg for an independent write leg.
func (e *Engine) writeLeg(issue, addr uint64) uint64 {
	if !e.mlpOn() {
		return e.Mem.Write(issue, addr)
	}
	if e.pr != nil {
		e.pr.ObserveMSHROcc(e.mshr.Busy(issue))
	}
	return e.mshr.Issue(issue, func(start uint64) uint64 {
		return e.Mem.Write(start, addr)
	})
}

// MSHRStats exposes the MSHR file's issue/stall counters (zeros when MLP is
// off) for CLI reporting.
func (e *Engine) MSHRStats() (issues, stalls, stallNs uint64) {
	if e.mshr == nil {
		return 0, 0, 0
	}
	return e.mshr.Issues, e.mshr.Stalls, e.mshr.StallNs
}

// chainHop is one latched step of a page-granular redirect-chain walk: the
// batched page engines walk the chain once and resolve all 64 lines from
// the latched counter blocks, where the serial engine re-walks it per line.
type chainHop struct {
	pfn       uint64
	blk       ctr.Block
	issue     uint64 // when this hop's line addresses became known
	done      uint64 // when its counter block (and CoW entry) had resolved
	redirects bool   // page-level: more chain behind this hop
	src       uint64 // next page when redirects
}

// lineStop is the per-line outcome of resolving against a latched chain.
type lineStop struct {
	hop  int  // index into the hop list where the line resolved
	hops int  // redirects this line took (for chain stats)
	zero bool // zero-encoded with no mapping: plaintext zeros, no data read
}

// walkChainOnce walks the redirect chain behind src at page granularity,
// latching each hop's counter block. pend marks the lines being resolved;
// the walk follows the chain only while some pending line still redirects.
// Chain hops are dependence-ordered — each hop's page number comes out of
// the previous hop's counter block (and, for Lelantus-CoW, its table entry)
// — so the walk itself is charged serially even under MLP; only the final
// per-line data fetches overlap.
func (e *Engine) walkChainOnce(t, src uint64, pend [mem.LinesPerPage]bool) ([]chainHop, error) {
	hops := make([]chainHop, 0, 4)
	cur := src
	issueAt := t
	for {
		cblk, ct, err := e.loadBlock(t, cur)
		if err != nil {
			return nil, err
		}
		h := chainHop{pfn: cur, blk: cblk, issue: issueAt, done: ct}
		switch e.cfg.Scheme {
		case Lelantus:
			if cblk.CoW {
				h.redirects, h.src = true, cblk.Src
			}
		case LelantusCoW:
			// Consult the table only if a pending line still has a zero
			// minor here — the serial path looks the mapping up lazily, per
			// line; one lookup serves the whole batch.
			needLookup := false
			for i := range pend {
				if pend[i] && cblk.Minor[i] == 0 {
					needLookup = true
					break
				}
			}
			if needLookup {
				s, ok, tc, lerr := e.lookupCoW(ct, cur)
				h.done = tc
				if lerr != nil {
					return nil, lerr
				}
				if ok {
					h.redirects, h.src = true, s
				}
			}
		}
		hops = append(hops, h)
		if !h.redirects {
			return hops, nil
		}
		var next [mem.LinesPerPage]bool
		any := false
		for i := range pend {
			if pend[i] && cblk.Minor[i] == 0 {
				next[i] = true
				any = true
			}
		}
		if !any {
			return hops, nil
		}
		pend = next
		cur = h.src
		issueAt = h.done
		t = h.done
	}
}

// stopAt resolves where line i lands against a latched chain, mirroring the
// serial resolve's per-line decisions exactly (including the quirk that a
// zero-encoded line with no mapping records no chain stats).
func (e *Engine) stopAt(hops []chainHop, i int) lineStop {
	for k := range hops {
		h := &hops[k]
		if h.blk.Minor[i] != 0 {
			return lineStop{hop: k, hops: k}
		}
		if !h.redirects {
			if e.cfg.Scheme == LelantusCoW {
				// Zero minor with no mapping: fresh memory reads as zeros
				// and the serial path returns before the chain accounting.
				return lineStop{hop: k, zero: true}
			}
			// Lelantus: zero minor on a non-CoW page falls through to the
			// written-bit test, like the serial loop's break.
			return lineStop{hop: k, hops: k}
		}
	}
	// Unreachable: the walk only stops redirecting when the last hop does
	// not redirect or no pending line is zero there.
	return lineStop{hop: len(hops) - 1, hops: len(hops) - 1}
}

// lineBatch is the part every page-engine and scrub batch shares. Worker 0
// — the only worker at pool size 1, so every batch with MLP off or with
// plaintext at rest — runs on the engine's own pad generator and
// verifiers; the pool's other workers get private copies.
type lineBatch struct{ e *Engine }

// State implements issuewin.Batch.
func (b lineBatch) State(w int) *lineCrypto {
	if w == 0 {
		return &b.e.own
	}
	c := b.e.own
	c.enc, c.mac, c.leaf = b.e.Enc.NewWorker(), b.e.MACs.NewVerifier(), b.e.Tree.NewLeafVerifier()
	return &c
}

// lineOut is the pool output of one page-engine line: everything the serial
// commit needs with the crypto done — the plaintext, its new at-rest image
// and MAC, or the source line's open error.
type lineOut struct {
	plain [mem.LineBytes]byte
	img   [mem.LineBytes]byte
	sum   bmt.Digest
	err   error
}

// phycBatch is one batched page_phyc: every wanted line resolved against
// the latched chain, and the pool's crypto output per line.
type phycBatch struct {
	lineBatch
	hops              []chainHop
	dst, dstMajor     uint64
	jobs              []int // the wanted lines, in ascending order
	stops             [mem.LinesPerPage]lineStop
	srcLA             [mem.LinesPerPage]uint64
	isZero, isWritten [mem.LinesPerPage]bool
	out               [mem.LinesPerPage]lineOut
}

// Do implements issuewin.Batch: pure per-line crypto of job j — open the
// source line (a zero line's plaintext stays zeros), seal it for dst.
func (b *phycBatch) Do(c *lineCrypto, j int) {
	i := b.jobs[j]
	out := &b.out[i]
	if !b.isZero[i] {
		h := &b.hops[b.stops[i].hop]
		var img [mem.LineBytes]byte
		b.e.Phys.ReadLine(b.srcLA[i], &img)
		if out.plain, out.err = c.open(b.srcLA[i], h.blk.Major, h.blk.Minor[i], &img); out.err != nil {
			return
		}
	}
	out.img, out.sum = c.seal(mem.LineNo(mem.LineAddr(b.dst, i)), b.dstMajor, 1, &out.plain)
}

// phycLinesBatched is page_phyc's line loop under MLP: one chain walk
// serves all 64 lines, per-line crypto fans out over the issue-window pool,
// and the serial commit phase applies timing, stats, persistence and fault
// points in ascending line order — so the result is byte-identical at any
// pool size.
func (e *Engine) phycLinesBatched(t, src, dst uint64, blk *ctr.Block) (done uint64, copied int, err error) {
	var want [mem.LinesPerPage]bool
	n := 0
	for i := 0; i < mem.LinesPerPage; i++ {
		if blk.Minor[i] == 0 {
			want[i] = true
			n++
		}
	}
	done = t
	if n == 0 {
		return done, 0, nil
	}

	hops, werr := e.walkChainOnce(t, src, want)
	if werr != nil {
		return t, 0, werr
	}

	b := &phycBatch{lineBatch: lineBatch{e}, hops: hops, dst: dst, dstMajor: blk.Major, jobs: make([]int, 0, n)}
	for i := 0; i < mem.LinesPerPage; i++ {
		if !want[i] {
			continue
		}
		s := e.stopAt(hops, i)
		b.jobs = append(b.jobs, i)
		b.stops[i] = s
		b.srcLA[i] = mem.LineAddr(hops[s.hop].pfn, i)
		b.isWritten[i] = e.written.Test(mem.LineNo(b.srcLA[i]))
		b.isZero[i] = s.zero || !b.isWritten[i]
	}

	// Phase A: pure per-line crypto on the pool.
	issuewin.RunWith(e.pool, n, b)

	// Phase B: serial commit in ascending line order. Every mutation of
	// shared state — MSHR registers, bank queues, stats, the fault plane's
	// deterministic sequence, the MAC store — happens only here.
	for _, i := range b.jobs {
		s := b.stops[i]
		h := &hops[s.hop]
		srcLA, isWritten := b.srcLA[i], b.isWritten[i]
		if s.hops > 0 {
			e.Stats.Redirects++
			e.Stats.ChainHops += uint64(s.hops)
			if s.hops > e.Stats.MaxChain {
				e.Stats.MaxChain = s.hops
			}
		}

		// Read leg: issued the moment the line's address was known
		// (speculating, always correctly, that the hop resolves here);
		// retire still waits for the counter block that confirms it.
		var rt uint64
		switch {
		case s.zero:
			// No mapping: the serial path charges no data read.
			e.Stats.ZeroReads++
			rt = h.done
		case !isWritten:
			rt = maxU64(h.done, e.readLeg(h.issue, srcLA))
			e.Stats.DataReads++
			e.Stats.ZeroReads++
		default:
			fetch := e.readLeg(h.issue, srcLA)
			e.Stats.DataReads++
			// Pad generation overlaps the fetch but needs the counter.
			rt = maxU64(fetch, h.done+e.padNs)
		}
		c := &b.out[i]
		if c.err != nil {
			return rt, copied, c.err
		}

		la := mem.LineAddr(dst, i)
		blk.Minor[i] = 1
		e.written.Set(mem.LineNo(la))
		pads := uint64(1) // the seal
		if !b.isZero[i] {
			pads++ // and the source line's open
		}
		e.countPads(pads)
		dec := e.persistDataLine(la, &c.plain, &c.img, &c.sum)
		wt := e.writeLeg(rt+e.padNs, la)
		e.Stats.DataWrites++
		e.Stats.PhycLines++
		copied++
		if dec.Action == faultinject.ActCrash {
			return wt, copied, dec.Err
		}
		if d := e.fiHit(faultinject.PagePhycLine); d.Action == faultinject.ActCrash {
			return wt, copied, d.Err
		}
		if wt > done {
			done = wt
		}
	}
	return done, copied, nil
}

// ceilDiv is ceil(a/b) for the MLP recovery model.
func ceilDiv(a, b uint64) uint64 {
	if b == 0 {
		return a
	}
	return (a + b - 1) / b
}

// recoveryPassNs converts a pass's device time and verify time into its
// charged latency: serial (their sum) without MLP; with MLP the device
// portion spreads over the banks and the verify portion over the MSHR-sized
// verify pipeline, each rounded up to whole epochs.
func (e *Engine) recoveryPassNs(devNs, verifyNs uint64) uint64 {
	if !e.mlpOn() {
		return devNs + verifyNs
	}
	return ceilDiv(devNs, uint64(e.Dev.Banks())) + ceilDiv(verifyNs, uint64(e.mshr.Size()))
}
