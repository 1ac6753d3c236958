package core

import (
	"encoding/binary"

	"lelantus/internal/bmt"
	"lelantus/internal/ctr"
	"lelantus/internal/faultinject"
	"lelantus/internal/mem"
	"lelantus/internal/probe"
)

// cowPresent is the presence bit of a supplementary CoW-table entry: the
// 8-byte NVM word packs a 63-bit source PFN plus this flag, making the
// packed bytes in Phys the single durable source of truth for the mapping.
const cowPresent = uint64(1) << 63

// zeroLine is the all-zeros plaintext returned for zero-encoded and
// never-written lines.
var zeroLine [mem.LineBytes]byte

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// persistDataLine commits a sealed 64 B data line: its MAC to the MAC store
// and its image to NVM bytes through the fault plane. A drop leaves the old
// bytes, a tear merges an 8 B-granular prefix, a crash tears and then
// unwinds the command. The MAC store always receives the intended image's
// MAC: like the BMT leaf digests, it describes what *should* be in NVM, so a
// torn or lost data write is caught as a MAC mismatch on the next read. A
// landed image enters the fault plane's shadow history as plain, the value a
// later read should produce, so the crash-sweep oracle can tell
// stale-but-valid content from corruption. Callers charge device time and
// stats themselves — injected faults change bytes, never timing.
func (e *Engine) persistDataLine(addr uint64, plain, img *[mem.LineBytes]byte, sum *bmt.Digest) faultinject.Decision {
	e.storeMAC(mem.LineNo(addr), sum)
	dec := e.fiHit(e.fiDataPoint)
	switch dec.Action {
	case faultinject.ActDrop:
		// Lost in the queue / dropped by the device: old bytes survive.
	case faultinject.ActTear, faultinject.ActCrash:
		e.tornLineWrite(addr, img, dec.KeepWords)
	default:
		e.Phys.WriteLine(addr, img)
	}
	if e.fi != nil {
		e.fi.NoteDataPersist(addr, dec.Landed())
		if dec.Landed() {
			e.fi.ObserveData(addr, plain)
		}
	}
	return dec
}

// resolve follows the CoW metadata from the requested line to the line that
// actually holds its data (paper Fig. 6), fetches and decrypts it, and
// returns the plaintext. Recursive copy chains (Section III-E) are walked
// until a materialised line, a zero encoding, or a never-written line is
// found.
func (e *Engine) resolve(now, lineAddr uint64) ([mem.LineBytes]byte, uint64, error) {
	cur := lineAddr
	// issueT is the instant the *current* target address became known: the
	// earliest legal issue time of the line's data fetch under MLP. It
	// trails t (counter-resolution time) by exactly one counter-block load
	// per hop.
	issueT := now
	blk, t, err := e.loadBlock(now, mem.PageOf(cur))
	if err != nil {
		return zeroLine, t, err
	}
	hops := 0
	for {
		curPfn := mem.PageOf(cur)
		i := mem.LineIndex(cur)
		redirected := false
		switch e.cfg.Scheme {
		case Lelantus:
			if blk.CoW && blk.Minor[i] == 0 {
				cur = mem.LineAddr(blk.Src, i)
				redirected = true
			}
		case LelantusCoW:
			if blk.Minor[i] == 0 {
				src, ok, tc, lerr := e.lookupCoW(t, curPfn)
				t = tc
				if lerr != nil {
					return zeroLine, t, lerr
				}
				if !ok {
					// Zero minor with no mapping: a fresh (page_init) or
					// never-encrypted line — fresh memory reads as zeros.
					e.Stats.ZeroReads++
					return zeroLine, t, nil
				}
				cur = mem.LineAddr(src, i)
				redirected = true
			}
		case SilentShredder:
			if blk.Minor[i] == 0 {
				e.Stats.ZeroReads++
				return zeroLine, t, nil
			}
		}
		if !redirected {
			break
		}
		hops++
		if hops == 1 && e.pf != nil {
			// First redirect on this destination page: launch the chain
			// walker ahead of the demand walk below, so the remaining hops'
			// metadata is in flight by the time each loadBlock needs it.
			e.pfMaybeWalkChain(t, mem.PageOf(lineAddr), mem.PageOf(cur))
		}
		// Dependence-ordered: the next hop's page number comes out of the
		// counter block just decoded (and, for Lelantus-CoW, its table
		// entry), so chain hops can never overlap each other — even under
		// MLP only the final data fetch runs ahead.
		issueT = t
		if blk, t, err = e.loadBlock(t, mem.PageOf(cur)); err != nil {
			return zeroLine, t, err
		}
	}
	if hops > 0 {
		e.Stats.Redirects++
		e.Stats.ChainHops += uint64(hops)
		if hops > e.Stats.MaxChain {
			e.Stats.MaxChain = hops
		}
	}

	lineNo := mem.LineNo(cur)
	i := mem.LineIndex(cur)
	if !e.mlpOn() {
		// Serial engine: the data fetch issues once the final counter block
		// has resolved. Under MLP it issues the moment the final address was
		// known — for chains, when the last redirect was decoded — so the
		// counter fetch, its BMT verify and the data read occupy distinct
		// banks concurrently (this models an always-correct no-redirect
		// predictor: traffic is identical to the serial engine, only
		// completion moves). Either way retire waits for the counter block,
		// which decides what the fetched bytes mean.
		issueT = t
	}
	if !e.written.Test(lineNo) {
		// The line was never encrypted to NVM (e.g. the shared zero frame):
		// its plaintext is zeros. The fetch is still charged — the device
		// does not know the content is dead.
		t = maxU64(t, e.readLeg(issueT, cur))
		e.Stats.DataReads++
		e.Stats.ZeroReads++
		return zeroLine, t, nil
	}
	var img [mem.LineBytes]byte
	e.Phys.ReadLine(cur, &img)
	fetchDone := e.readLeg(issueT, cur)
	e.Stats.DataReads++
	// OTP generation overlaps the data fetch (paper Fig. 1). Dependence-
	// ordered: the pad needs the counter, so retire is gated on t even when
	// the fetch itself issued earlier under MLP — and so is a non-secure
	// read, whose redirect/zero decision came from the counter block too.
	done := maxU64(fetchDone, t+e.padNs)
	e.countPads(1)
	plain, err := e.own.open(cur, blk.Major, blk.Minor[i], &img)
	return plain, done, err
}

// ReadLine services a 64 B read request from the cache hierarchy.
func (e *Engine) ReadLine(now, lineAddr uint64) ([mem.LineBytes]byte, uint64, error) {
	e.Stats.LogicalReads++
	e.note(mem.PageOf(lineAddr), mem.LineIndex(lineAddr))
	if e.pr == nil {
		return e.resolve(now, lineAddr)
	}
	hops0 := e.Stats.ChainHops
	data, done, err := e.resolve(now, lineAddr)
	if err == nil {
		e.pr.Record(probe.EvRead, now, done, lineAddr, e.Stats.ChainHops-hops0)
	}
	return data, done, err
}

// WriteLine services a 64 B write (store write-back or non-temporal store).
// The first write to an uncopied line of a CoW page materialises the line
// in place: no copy of the stale source data ever happens — this is the
// fine-granularity CoW at the heart of the design.
func (e *Engine) WriteLine(now, lineAddr uint64, plain *[mem.LineBytes]byte) (uint64, error) {
	if e.pr == nil {
		return e.writeLine(now, lineAddr, plain)
	}
	done, err := e.writeLine(now, lineAddr, plain)
	if err == nil {
		e.pr.Record(probe.EvWrite, now, done, lineAddr, 0)
	}
	return done, err
}

func (e *Engine) writeLine(now, lineAddr uint64, plain *[mem.LineBytes]byte) (uint64, error) {
	e.Stats.LogicalWrites++
	pfn := mem.PageOf(lineAddr)
	li := mem.LineIndex(lineAddr)
	e.note(pfn, li)

	blk, t, err := e.loadBlock(now, pfn)
	if err != nil {
		return t, err
	}

	if e.cfg.Scheme == SilentShredder && *plain == zeroLine {
		// Silent Shredder's saving: an all-zero line is stored as a zero
		// counter — no data write reaches the NVM.
		lineNo := mem.LineNo(lineAddr)
		blk.Minor[li] = 0
		e.MACs.Drop(lineNo)
		e.written.Clear(lineNo)
		e.Stats.ZeroWriteElisions++
		return e.storeBlock(t, pfn, &blk)
	}

	wasZero := blk.Minor[li] == 0
	switch e.cfg.Scheme {
	case Lelantus:
		if blk.CoW && wasZero {
			e.Stats.CopiedOnDemand++
		}
	case LelantusCoW:
		if wasZero {
			if _, ok := e.cowEntryView(pfn); ok {
				e.Stats.CopiedOnDemand++
			}
		}
	}

	// MinorIncrements counts real minor-counter advances only: the
	// NonSecure rewrite path leaves the counter alone, and on overflow
	// Increment performed no increment (the page re-encrypts under a new
	// major instead).
	ctrChanged := true
	switch {
	case wasZero:
		blk.Minor[li] = 1
		e.Stats.MinorIncrements++
	case e.cfg.NonSecure:
		// Non-secure mode: the minor only tracks copied/zero state, so a
		// rewrite of a materialised line leaves the counter alone — no
		// versioning, no overflow (Section III-G).
		ctrChanged = false
	case blk.Increment(li):
		var errRe error
		t, errRe = e.reencryptPage(t, pfn, &blk, li)
		if errRe != nil {
			return t, errRe
		}
		blk.Minor[li] = 1
	default:
		// Increment advanced the minor in place.
		e.Stats.MinorIncrements++
	}

	lineNo := mem.LineNo(lineAddr)
	e.written.Set(lineNo)
	e.countPads(1)
	img, sum := e.own.seal(lineNo, blk.Major, blk.Minor[li], plain)
	dec := e.persistDataLine(lineAddr, plain, &img, &sum)
	// Dependence-ordered: the write's pad comes from the counter resolved
	// at t (and a non-secure write's copy/zero decision consumed it), so
	// the data write cannot issue before t+pad even under MLP.
	dataDone := e.Mem.Write(t+e.padNs, lineAddr)
	e.Stats.DataWrites++
	if dec.Action == faultinject.ActCrash {
		return dataDone, dec.Err
	}
	if !ctrChanged {
		return dataDone, nil
	}
	// Already issue-parallel: the counter-block store issues at t, not at
	// dataDone — it and the data write overlap via the max-merge below, so
	// MLP has nothing further to overlap here.
	ctrDone, err := e.storeBlock(t, pfn, &blk)
	return maxU64(dataDone, ctrDone), err
}

// reencryptPage handles a minor-counter overflow: the page enters a new
// major epoch and every materialised line (except skipLine, which is about
// to be overwritten) is read, decrypted under the old counter, re-encrypted
// under the new one and written back (paper Section V-C overhead analysis),
// one line at a time in ascending order.
func (e *Engine) reencryptPage(now, pfn uint64, blk *ctr.Block, skipLine int) (uint64, error) {
	e.Stats.Overflows++
	lines0 := e.Stats.ReencryptedLines
	oldMajor, oldMinor := blk.Major, blk.Minor
	done := now
	for _, i := range blk.BumpMajor() {
		la := mem.LineAddr(pfn, i)
		// A line never written has a randomly initialised counter and no
		// resident data: the new epoch needs no data movement for it.
		if i == skipLine || !e.written.Test(mem.LineNo(la)) {
			continue
		}
		// Independent legs: every line's read issues at the sweep start —
		// the bank queues (and, under MLP, the MSHR file) decide the real
		// spread.
		rt := e.readLeg(now, la)
		e.Stats.DataReads++
		var old [mem.LineBytes]byte
		e.Phys.ReadLine(la, &old)
		plain, err := e.own.open(la, oldMajor, oldMinor[i], &old)
		if err != nil {
			return rt, err
		}
		img, sum := e.own.seal(mem.LineNo(la), blk.Major, blk.Minor[i], &plain)
		e.countPads(2) // open under the old epoch, seal under the new
		dec := e.persistDataLine(la, &plain, &img, &sum)
		wt := e.writeLeg(rt+e.padNs, la)
		e.Stats.DataWrites++
		e.Stats.ReencryptedLines++
		if dec.Action == faultinject.ActCrash {
			return wt, dec.Err
		}
		// A crash between one line's write and its neighbour's leaves the
		// page half in the old epoch, half in the new — the recovery scrub
		// must surface every old-epoch line as a MAC mismatch.
		if d := e.fiHit(faultinject.ReencryptLine); d.Action == faultinject.ActCrash {
			return wt, d.Err
		}
		if wt > done {
			done = wt
		}
	}
	if e.pr != nil {
		e.pr.Record(probe.EvOverflow, now, done, pfn, e.Stats.ReencryptedLines-lines0)
	}
	return done, nil
}

// peekCoWEntry decodes page pfn's supplementary CoW-table entry straight
// from the durable NVM bytes, side-effect free. Unlike the CoW cache —
// which may run ahead of NVM when a write is lost in the queue — this is
// the crash-durable view, and the only one recovery may trust.
func (e *Engine) peekCoWEntry(pfn uint64) (src uint64, present bool) {
	var raw [mem.LineBytes]byte
	e.Phys.ReadLine(e.cowMetaAddr(pfn), &raw)
	off := (pfn * 8) % mem.LineBytes
	v := binary.LittleEndian.Uint64(raw[off : off+8])
	return v &^ cowPresent, v&cowPresent != 0
}

// cowEntryView returns the controller's *intended* CoW mapping for a page.
// Under a lazy persistence strategy the CoW cache legitimately runs ahead
// of NVM (dirty inserts not yet written back), so command decisions and
// introspection consult the cache first; under eager write-through the
// durable bytes are authoritative and the historical code path is kept
// bit-exact. Side-effect free either way.
func (e *Engine) cowEntryView(pfn uint64) (src uint64, present bool) {
	if !e.strategy().EagerCoWMeta() {
		if s, p, cached := e.CoWCache.Peek(pfn); cached {
			return s, p
		}
	}
	return e.peekCoWEntry(pfn)
}

// lookupCoW consults the supplementary CoW table (Lelantus-CoW) for the
// destination page's source mapping, going through the reserved CoW cache
// first and charging an NVM metadata read on a miss. Filling the missed
// entry can displace a dirty mapping under lazy persistence; its write-back
// is issued here (in the background — the demand lookup does not wait on
// it) and only a fault-plane crash in that write-back surfaces as error.
func (e *Engine) lookupCoW(now, pfn uint64) (src uint64, ok bool, done uint64, err error) {
	done = now + e.CtrCache.LatencyNs
	if s, present, cached := e.CoWCache.Lookup(pfn); cached {
		if e.pf != nil {
			// First demand touch of a prefetched mapping claims the fill:
			// wait for it if it is still in flight (late), credit it if not.
			e.pfTouchCoW(now, pfn, &done)
		}
		if e.pr != nil {
			e.pr.Record(probe.EvCoWHit, now, done, pfn, 0)
		}
		return s, present, done, nil
	}
	// Dependence-ordered: the table read is only known to be needed once
	// the cache lookup missed, so it serializes behind the cache latency.
	done = e.Mem.Read(done, e.cowMetaAddr(pfn))
	e.Stats.CoWMetaReads++
	s, present := e.peekCoWEntry(pfn)
	if v, wb := e.CoWCache.Insert(pfn, s, present); wb {
		if _, werr := e.writeCoWEntryNVM(done, v.Dst, v.Src, v.Present); werr != nil {
			return 0, false, done, werr
		}
	}
	if e.pr != nil {
		e.pr.Record(probe.EvCoWMiss, now, done, pfn, 0)
	}
	return s, present, done, nil
}

// writeCoWEntryNVM persists one supplementary CoW-table entry to the NVM
// metadata region: the read-modify-write of the 64 B line holding the
// 8-byte entry, charged to time and traffic, through the cow-meta-write
// fault point. An 8-byte entry is word-atomic on the device, so a "tear"
// of the surrounding line either lands the entry or leaves the old one —
// never half a PFN. This is THE durable persist point for CoW metadata:
// eager strategies reach it on every mapping update, lazy strategies at
// eviction and drain time — which is exactly how a strategy re-schedules
// its persist-point behaviour under the unchanged fault plane.
func (e *Engine) writeCoWEntryNVM(now, dst, src uint64, present bool) (uint64, error) {
	addr := e.cowMetaAddr(dst)
	var raw [mem.LineBytes]byte
	e.Phys.ReadLine(addr, &raw)
	// Dependence-ordered RMW: the write below merges the new entry into the
	// line image this read produces, so the pair can never overlap.
	now = e.Mem.Read(now, addr)
	e.Stats.CoWMetaReads++
	off := (dst * 8) % mem.LineBytes
	v := uint64(0)
	if present {
		v = src | cowPresent
	}
	binary.LittleEndian.PutUint64(raw[off:off+8], v)
	e.Stats.CoWMetaWrite++
	done := e.Mem.Write(now, addr)
	dec := e.fiHit(faultinject.CoWMetaWrite)
	switch dec.Action {
	case faultinject.ActDrop:
		// Entry lost in the queue: NVM keeps the previous mapping while the
		// CoW cache already serves the new one — the volatile-ahead hazard
		// the crash test pins down.
	case faultinject.ActTear, faultinject.ActCrash:
		e.tornLineWrite(addr, &raw, dec.KeepWords)
		if dec.Action == faultinject.ActCrash {
			return done, dec.Err
		}
	default:
		e.Phys.WriteLine(addr, &raw)
	}
	return done, nil
}

// storeCoWMapping updates the supplementary CoW-metadata region (and its
// cache slice). present=false erases the mapping.
//
// Under eager persistence (strict, triad:2+) the entry writes through
// immediately. Under lazy persistence (phoenix, triad:1) an *insert* only
// dirties the CoW cache — it becomes durable when evicted or drained, so a
// crash without battery loses it and the destination's lines consistently
// read as zeros (stale durable view, detected or accountable, never
// silently wrong). *Erasures* write through under every strategy: a
// deferred removal whose cache entry is lost would resurrect the stale
// durable mapping through the read path, turning staleness into silent
// wrongness.
func (e *Engine) storeCoWMapping(now, dst, src uint64, present bool) (uint64, error) {
	if e.strategy().EagerCoWMeta() {
		if !present {
			if _, had := e.peekCoWEntry(dst); !had {
				return now, nil
			}
		}
		// The cache slice holds the controller's intended view; it may run
		// ahead of NVM if the fault plane loses the write below.
		if present {
			e.CoWCache.Insert(dst, src, true)
		} else {
			e.CoWCache.Insert(dst, 0, false)
		}
		return e.writeCoWEntryNVM(now, dst, src, present)
	}
	if !present {
		// Erase: consult the intended view (the cache may hold a dirty,
		// not-yet-durable insert for dst), then write through and leave a
		// clean negative entry behind.
		if _, had := e.cowEntryView(dst); !had {
			return now, nil
		}
		e.CoWCache.Insert(dst, 0, false)
		return e.writeCoWEntryNVM(now, dst, 0, false)
	}
	// Lazy insert: dirty the cache only. The displaced victim (if dirty)
	// must persist first — its write-back is charged to this command.
	if v, wb := e.CoWCache.InsertDirty(dst, src, true); wb {
		return e.writeCoWEntryNVM(now, v.Dst, v.Src, v.Present)
	}
	return now, nil
}
