package core

import (
	"fmt"
	"runtime"
	"strings"

	"lelantus/internal/bmt"
	"lelantus/internal/ctr"
	"lelantus/internal/enc"
	"lelantus/internal/faultinject"
	"lelantus/internal/issuewin"
	"lelantus/internal/mem"
)

// MLPConfig models memory-level parallelism in the timing plane. Disabled
// (the zero value), every access chain is charged serially — the historical
// engine, byte-identical in every report. Enabled, two mechanisms apply:
//
//   - An MSHR file lets the *independent* legs of a line access — the final
//     data fetch against the counter-block fetch and verify it overlaps —
//     occupy distinct device banks concurrently, so completion is the max of
//     the overlapped legs instead of their sum. Dependence-ordered legs
//     (redirect-chain hops, pad-gated writes) stay serial; each kept
//     serialization is documented at its site.
//
//   - An issue window batches the per-line work of the page engines
//     (page_phyc, CopyPageFull, ZeroPageFull, the re-encryption sweep, the
//     recovery scrub): per-line jobs are fanned over a deterministic
//     goroutine pool and merged in line order, so results are byte-identical
//     at any Workers value — only wall-clock changes with pool size.
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

// workers resolves the pool size.
func (c MLPConfig) workers() int {
	if c.Workers > 0 {
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
// page engines batch their line loops on it).
func (e *Engine) MLPEnabled() bool { return e.mlpOn() }

// mshrRead issues an overlapped read leg through the MSHR file: the leg
// starts when a register frees (stalling past issue if all are busy) and
// holds it until the device read completes.
func (e *Engine) mshrRead(issue, addr uint64) uint64 {
	if e.pr != nil {
		e.pr.ObserveMSHROcc(e.mshr.Busy(issue))
	}
	return e.mshr.Issue(issue, func(start uint64) uint64 {
		return e.Mem.Read(start, addr)
	})
}

// mshrWrite is mshrRead for an independent write leg.
func (e *Engine) mshrWrite(issue, addr uint64) uint64 {
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

// phycCrypto is the pool output of one batched page_phyc line under full
// fidelity: everything the serial commit needs with the hash work done.
type phycCrypto struct {
	plain [mem.LineBytes]byte
	ciph  [mem.LineBytes]byte
	sum   bmt.Digest
	err   error
}

// phycLinesBatched is the MLP replacement for page_phyc's per-line loop:
// one chain walk serves all 64 lines, per-line crypto fans out over the
// issue-window pool, and the serial commit phase applies timing, stats,
// persistence and fault points in ascending line order — so the result is
// byte-identical at any pool size.
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

	var stops [mem.LinesPerPage]lineStop
	var srcLA, srcLineNo [mem.LinesPerPage]uint64
	var isZero, isWritten [mem.LinesPerPage]bool
	for i := 0; i < mem.LinesPerPage; i++ {
		if !want[i] {
			continue
		}
		s := e.stopAt(hops, i)
		stops[i] = s
		srcLA[i] = mem.LineAddr(hops[s.hop].pfn, i)
		srcLineNo[i] = mem.LineNo(srcLA[i])
		isWritten[i] = e.written.Test(srcLineNo[i])
		isZero[i] = s.zero || !isWritten[i]
	}

	// Phase A: pure per-line crypto on the pool (full fidelity only —
	// timing and non-secure modes move raw bytes in the commit phase).
	full := e.cfg.Fidelity == FidelityFull && !e.cfg.NonSecure
	var crypt [mem.LinesPerPage]phycCrypto
	if full {
		// dstMajor is copied out so the pool closure never captures blk:
		// a leaked *ctr.Block would force every caller's counter block to
		// the heap, breaking the MLP-off zero-alloc hot-path gate.
		dstMajor := blk.Major
		jobs := make([]int, 0, n)
		for i := 0; i < mem.LinesPerPage; i++ {
			if want[i] {
				jobs = append(jobs, i)
			}
		}
		issuewin.RunWith(e.cfg.MLP.workers(), len(jobs),
			func() *encWorkerPair { return e.newEncWorkerPair() },
			func(wp *encWorkerPair, j int) {
				i := jobs[j]
				c := &crypt[i]
				if !isZero[i] {
					h := &hops[stops[i].hop]
					var sc [mem.LineBytes]byte
					e.Phys.ReadLine(srcLA[i], &sc)
					if verr := wp.mac.Verify(srcLineNo[i], sc[:], h.blk.Major, h.blk.Minor[i]); verr != nil {
						c.err = verr
						return
					}
					c.plain = wp.enc.Decrypt(&sc, srcLineNo[i], h.blk.Major, h.blk.Minor[i])
				}
				dstNo := mem.LineNo(mem.LineAddr(dst, i))
				c.ciph = wp.enc.Encrypt(&c.plain, dstNo, dstMajor, 1)
				c.sum = wp.mac.Sum(dstNo, c.ciph[:], dstMajor, 1)
			})
	}

	// Phase B: serial commit in ascending line order. Every mutation of
	// shared state — MSHR registers, bank queues, stats, the fault plane's
	// deterministic sequence, the MAC store — happens only here.
	for i := 0; i < mem.LinesPerPage; i++ {
		if !want[i] {
			continue
		}
		s := stops[i]
		h := &hops[s.hop]
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
		case !isWritten[i]:
			rt = maxU64(h.done, e.mshrRead(h.issue, srcLA[i]))
			e.Stats.DataReads++
			e.Stats.ZeroReads++
		default:
			fetch := e.mshrRead(h.issue, srcLA[i])
			e.Stats.DataReads++
			if e.cfg.NonSecure {
				rt = maxU64(fetch, h.done)
			} else {
				// Pad generation overlaps the fetch but needs the counter.
				rt = maxU64(fetch, h.done+e.cfg.AESLatencyNs)
			}
		}
		if full && crypt[i].err != nil {
			return rt, copied, crypt[i].err
		}
		if !full && !e.cfg.NonSecure && !isZero[i] {
			// The source line phase A MAC-verifies at full fidelity.
			if err := e.timingMAC(srcLA[i]); err != nil {
				return rt, copied, err
			}
		}

		la := mem.LineAddr(dst, i)
		lineNo := mem.LineNo(la)
		blk.Minor[i] = 1
		e.written.Set(lineNo)
		var wt uint64
		var dec faultinject.Decision
		switch {
		case e.cfg.NonSecure:
			var plain [mem.LineBytes]byte
			if isWritten[i] && !s.zero {
				e.Phys.ReadLine(srcLA[i], &plain)
			}
			dec = e.persistDataLine(la, &plain)
			wt = e.mshrWrite(rt, la)
			e.fiObserve(dec, la, &plain)
		case e.cfg.Fidelity == FidelityTiming:
			var plain [mem.LineBytes]byte
			if isWritten[i] && !s.zero {
				e.Phys.ReadLine(srcLA[i], &plain)
				e.Enc.NotePads(1) // the elided decrypt
			}
			e.Enc.NotePads(1) // the elided encrypt
			dec = e.persistDataLine(la, &plain)
			wt = e.mshrWrite(rt+e.cfg.AESLatencyNs, la)
			e.fiObserve(dec, la, &plain)
		default:
			if isWritten[i] && !s.zero {
				e.Enc.NotePads(1) // the worker's decrypt
			}
			e.Enc.NotePads(1) // the worker's encrypt
			dec = e.persistDataLine(la, &crypt[i].ciph)
			e.MACs.StoreSum(lineNo, crypt[i].sum)
			wt = e.mshrWrite(rt+e.cfg.AESLatencyNs, la)
			e.fiObserve(dec, la, &crypt[i].plain)
		}
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

// reencCrypto is the pool output of one batched re-encryption line.
type reencCrypto struct {
	plain   [mem.LineBytes]byte
	newCiph [mem.LineBytes]byte
	sum     bmt.Digest
	err     error
}

// reencryptBatched is the MLP replacement for the re-encryption sweep's
// per-line loop. All lines of the page are independent (read under the old
// epoch, written under the new), so the crypto fans out over the pool and
// the read/write legs go through the MSHR file; the serial commit phase
// keeps stats, persistence and fault points in ascending line order.
func (e *Engine) reencryptBatched(now, pfn uint64, blk *ctr.Block, skipLine int,
	oldMajor uint64, oldMinor [mem.LinesPerPage]uint8, reenc []int) (uint64, error) {
	lines := make([]int, 0, len(reenc))
	for _, i := range reenc {
		if i == skipLine {
			continue
		}
		if !e.written.Test(mem.LineNo(mem.LineAddr(pfn, i))) {
			// Randomly initialised counter with no resident data: the new
			// epoch needs no data movement for this line.
			continue
		}
		lines = append(lines, i)
	}
	done := now
	if len(lines) == 0 {
		return done, nil
	}

	full := e.cfg.Fidelity == FidelityFull
	crypt := make([]reencCrypto, len(lines))
	if full {
		// Copied out so the pool closure never captures blk: a leaked
		// *ctr.Block would force writeLine's counter block to the heap,
		// breaking the MLP-off zero-alloc hot-path gate.
		newMajor := blk.Major
		newMinor := blk.Minor
		issuewin.RunWith(e.cfg.MLP.workers(), len(lines),
			func() *encWorkerPair { return e.newEncWorkerPair() },
			func(wp *encWorkerPair, j int) {
				i := lines[j]
				la := mem.LineAddr(pfn, i)
				lineNo := mem.LineNo(la)
				c := &crypt[j]
				var ciph [mem.LineBytes]byte
				e.Phys.ReadLine(la, &ciph)
				if verr := wp.mac.Verify(lineNo, ciph[:], oldMajor, oldMinor[i]); verr != nil {
					c.err = verr
					return
				}
				c.plain = wp.enc.Decrypt(&ciph, lineNo, oldMajor, oldMinor[i])
				c.newCiph = wp.enc.Encrypt(&c.plain, lineNo, newMajor, newMinor[i])
				c.sum = wp.mac.Sum(lineNo, c.newCiph[:], newMajor, newMinor[i])
			})
	}

	for j, i := range lines {
		la := mem.LineAddr(pfn, i)
		lineNo := mem.LineNo(la)
		// Independent legs: every line's read issues at the sweep start —
		// the MSHR file and the bank queues decide the real spread.
		rt := e.mshrRead(now, la)
		e.Stats.DataReads++
		if full {
			if crypt[j].err != nil {
				return rt, crypt[j].err
			}
			e.Enc.NotePads(2) // the worker's decrypt + encrypt
			dec := e.persistDataLine(la, &crypt[j].newCiph)
			e.MACs.StoreSum(lineNo, crypt[j].sum)
			wt := e.mshrWrite(rt+e.cfg.AESLatencyNs, la)
			e.Stats.DataWrites++
			e.Stats.ReencryptedLines++
			e.fiObserve(dec, la, &crypt[j].plain)
			if dec.Action == faultinject.ActCrash {
				return wt, dec.Err
			}
			if d := e.fiHit(faultinject.ReencryptLine); d.Action == faultinject.ActCrash {
				return wt, d.Err
			}
			if wt > done {
				done = wt
			}
			continue
		}
		// Timing fidelity: plaintext at rest is epoch-invariant — only the
		// pad accounting and the NVM traffic of the full path remain.
		if err := e.timingMAC(la); err != nil {
			return rt, err
		}
		e.Enc.NotePads(2)
		wt := e.mshrWrite(rt+e.cfg.AESLatencyNs, la)
		e.Stats.DataWrites++
		e.Stats.ReencryptedLines++
		if d := e.fiHit(faultinject.ReencryptLine); d.Action == faultinject.ActCrash {
			return wt, d.Err
		}
		if wt > done {
			done = wt
		}
	}
	return done, nil
}

// encWorkerPair bundles the per-worker crypto scratch the batched paths
// need: an AES pad generator and a MAC verifier, both private to one pool
// worker.
type encWorkerPair struct {
	enc *enc.Worker
	mac *bmt.MACVerifier
}

func (e *Engine) newEncWorkerPair() *encWorkerPair {
	return &encWorkerPair{enc: e.Enc.NewWorker(), mac: e.MACs.NewVerifier()}
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
