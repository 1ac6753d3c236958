package core

import (
	"fmt"
	"strings"

	"lelantus/internal/ctr"
	"lelantus/internal/faultinject"
	"lelantus/internal/mem"
)

// MLPConfig models memory-level parallelism in the timing plane. It picks
// timing, not code: every scrub pass and every page engine but page_phyc
// runs one path either way, a line at a time on the engine's own crypto
// state. Disabled (the zero value), every access chain is charged
// serially. Enabled, an MSHR file lets the *independent* legs of a line
// access — the final data fetch against the counter-block fetch and verify
// it overlaps — occupy distinct device banks concurrently, so completion is
// the max of the overlapped legs instead of their sum. Dependence-ordered
// legs (redirect-chain hops, pad-gated writes) stay serial; each kept
// serialization is documented at its site.
type MLPConfig struct {
	// Enabled turns the model on. Off, the MSHR file is never allocated and
	// the hot paths pay one nil compare.
	Enabled bool
	// MSHRs sizes the miss-status holding register file gating overlapped
	// legs (<= 0 means nvm.DefaultMSHRs).
	MSHRs int
	// Workers is ignored: the engine starts no goroutine.
	//
	// Deprecated: kept only so existing callers compile.
	Workers int
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

// phycLinesBatched is page_phyc's line loop under MLP: one chain walk
// serves all 64 lines, then each wanted line is resolved against the
// latched chain, opened, sealed for dst and committed in ascending line
// order.
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

	for i := 0; i < mem.LinesPerPage; i++ {
		if !want[i] {
			continue
		}
		s := e.stopAt(hops, i)
		h := &hops[s.hop]
		srcLA := mem.LineAddr(h.pfn, i)
		isWritten := e.written.Test(mem.LineNo(srcLA))
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
		// A zero line's plaintext stays zeros; any other is opened.
		var plain [mem.LineBytes]byte
		pads := uint64(1) // the seal
		if !s.zero && isWritten {
			var srcImg [mem.LineBytes]byte
			e.Phys.ReadLine(srcLA, &srcImg)
			if plain, err = e.own.open(srcLA, h.blk.Major, h.blk.Minor[i], &srcImg); err != nil {
				return rt, copied, err
			}
			pads++ // and the source line's open
		}

		la := mem.LineAddr(dst, i)
		img, sum := e.own.seal(mem.LineNo(la), blk.Major, 1, &plain)
		blk.Minor[i] = 1
		e.written.Set(mem.LineNo(la))
		e.countPads(pads)
		dec := e.persistDataLine(la, &plain, &img, &sum)
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
