// Package core implements the paper's primary contribution: the secure
// memory-controller engine that repurposes split-counter security metadata
// to perform Copy-on-Write at cacheline granularity.
//
// Four configurations share one data path (paper Section V-A):
//
//   - Baseline: conventional secure NVM; CoW is done by the kernel copying
//     whole pages through the controller.
//   - SilentShredder: a zero minor counter encodes an all-zeros line, so
//     page initialisation writes no data (Awad et al. [3]).
//   - Lelantus: Solution 1 — the counter block itself is resized to carry a
//     CoW flag, a 63-bit major, 6-bit minors and the source page number.
//   - LelantusCoW: Solution 2 — counter blocks keep the classic layout;
//     minor value zero is reserved for "not copied yet" and an 8-byte-per-
//     page supplementary table (cached in a reserved counter-cache slice)
//     holds the source page number.
//
// A zero minor counter on a CoW page redirects the read to the source page
// (recursively along copy chains); the first write to such a line simply
// encrypts the new data in place under a fresh counter — the copy that the
// kernel would have performed never happens.
package core

import (
	"errors"
	"fmt"
	"math/rand"

	"lelantus/internal/bitset"
	"lelantus/internal/bmt"
	"lelantus/internal/ctr"
	"lelantus/internal/ctrcache"
	"lelantus/internal/enc"
	"lelantus/internal/faultinject"
	"lelantus/internal/mem"
	"lelantus/internal/nvm"
	"lelantus/internal/prefetch"
	"lelantus/internal/probe"
)

// Scheme selects which CoW design the engine runs.
type Scheme int

const (
	Baseline Scheme = iota
	SilentShredder
	Lelantus
	LelantusCoW
)

var schemeNames = [...]string{"baseline", "silent-shredder", "lelantus", "lelantus-cow"}

func (s Scheme) String() string {
	if int(s) < len(schemeNames) {
		return schemeNames[s]
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// MarshalText renders the scheme name in JSON and text encodings.
func (s Scheme) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses a scheme name.
func (s *Scheme) UnmarshalText(b []byte) error {
	v, err := ParseScheme(string(b))
	if err != nil {
		return err
	}
	*s = v
	return nil
}

// Format returns the counter-block layout the scheme stores in NVM.
func (s Scheme) Format() ctr.Format {
	if s == Lelantus {
		return ctr.Resized
	}
	return ctr.Classic
}

// ParseScheme maps a name (as accepted by the CLI tools) to a Scheme.
func ParseScheme(name string) (Scheme, error) {
	for i, n := range schemeNames {
		if n == name {
			return Scheme(i), nil
		}
	}
	return 0, fmt.Errorf("core: unknown scheme %q (want one of baseline, silent-shredder, lelantus, lelantus-cow)", name)
}

// Schemes lists every configuration, in the paper's comparison order.
func Schemes() []Scheme {
	return []Scheme{Baseline, SilentShredder, Lelantus, LelantusCoW}
}

// ErrUnsupported is returned for a CoW command the scheme cannot execute;
// the kernel then falls back to a conventional copy.
var ErrUnsupported = errors.New("core: command not supported by scheme")

// ErrMetadataCorrupt reports a counter block whose in-memory state can no
// longer be encoded to its NVM format — an internal-invariant failure
// surfaced as a typed error through Machine.Run rather than a panic.
var ErrMetadataCorrupt = errors.New("core: counter metadata corrupt")

// Layout fixes where metadata lives in the physical address space.
type Layout struct {
	// DataLimit is the exclusive upper byte address of the data region.
	DataLimit uint64
	// CounterBase is the byte address of the counter-block region
	// (one 64 B block per 4 KB data page).
	CounterBase uint64
	// CoWBase is the byte address of the supplementary CoW-metadata region
	// used by LelantusCoW (8 bytes per data page).
	CoWBase uint64
}

// LayoutFor derives the metadata regions for a data region of the given
// size: counters directly above the data, the CoW table above the counters.
func LayoutFor(dataBytes uint64) Layout {
	pages := dataBytes / mem.PageBytes
	return Layout{
		DataLimit:   dataBytes,
		CounterBase: dataBytes,
		CoWBase:     dataBytes + pages*ctr.BlockBytes,
	}
}

// Config tunes the engine.
type Config struct {
	Scheme Scheme
	// RandomInitCounters draws initial minor-counter values uniformly from
	// [1, max] to model counter overflow on long-lived pages (Section V-A).
	RandomInitCounters bool
	Seed               int64
	// CmdLatencyNs is the processor-to-controller transfer latency of one
	// MMIO CoW command ("the same transfer latency as a write operation").
	CmdLatencyNs uint64
	// AESLatencyNs is the pad-generation latency, overlapped with the data
	// fetch (Table: 24 cycles at 1 GHz).
	AESLatencyNs uint64
	// VerifyNs is the integrity-verification charge added to counter-block
	// fetches from NVM (the paper cites <2% total overhead).
	VerifyNs uint64
	// NonSecure applies Lelantus to unencrypted memory (paper Section
	// III-G): counter-like blocks still track copied/zero lines, but data
	// is stored in plaintext, pads are never generated, and neither data
	// MACs nor the Merkle tree are maintained. Minor counters saturate at
	// one — with no encryption epoch to version, overflow cannot happen.
	// This is a *modelled machine* difference (it changes reported
	// statistics); Fidelity is a *host-side* knob that never does.
	NonSecure bool
	// Fidelity selects whether the crypto data plane is computed (Full)
	// or elided with identical timing and statistics (Timing). The zero
	// value is FidelityFull. See the Fidelity type for the contract.
	Fidelity Fidelity
	// Persist selects the metadata persistence strategy (see
	// PersistStrategy). nil means strict write-through — the historical
	// behaviour, kept byte-identical so every zero-value configuration is
	// unaffected by the strategy plumbing.
	Persist PersistStrategy
	// MLP models memory-level parallelism (see MLPConfig). The zero value
	// is disabled: every access chain stays fully serial and every report
	// byte is identical to the pre-MLP engine.
	MLP MLPConfig
	// Prefetch configures the metadata prefetch unit (delta-pattern
	// prefetcher plus redirect-chain walker, see internal/prefetch). The
	// zero value is off: the unit is never allocated and every report byte
	// is identical to the prefetch-free engine.
	Prefetch PrefetchConfig
}

// DefaultConfig returns the paper's parameters for a given scheme.
func DefaultConfig(s Scheme) Config {
	return Config{
		Scheme:       s,
		Seed:         1,
		CmdLatencyNs: 15,
		AESLatencyNs: 24,
		VerifyNs:     4,
	}
}

// Stats aggregates the engine-level event counters the experiments report.
type Stats struct {
	LogicalReads  uint64 // ReadLine calls (demand + fill traffic)
	LogicalWrites uint64 // WriteLine calls (stores / write-backs)

	DataReads    uint64 // NVM line reads in the data region
	DataWrites   uint64 // NVM line writes in the data region
	CtrReads     uint64 // NVM reads of counter blocks
	CtrWrites    uint64 // NVM writes of counter blocks
	CoWMetaReads uint64 // NVM reads of the supplementary CoW table
	CoWMetaWrite uint64 // NVM writes of the supplementary CoW table

	// TreePersistWrites models the integrity-tree nodes made durable per
	// counter-block persist under the active persistence strategy (strict
	// persists the whole leaf-to-root path, phoenix only the leaf digest,
	// triad:N a prefix). Purely a model: the tree is on-chip state in this
	// simulator, so these writes never appear as device traffic or timing
	// — they are the runtime-write-overhead axis the persistence-strategy
	// experiment trades against RecoveryNs.
	TreePersistWrites uint64

	ZeroWriteElisions uint64 // all-zero line writes turned into counter resets

	Redirects uint64 // line reads served from a source page
	ChainHops uint64 // total source-page hops while resolving reads
	MaxChain  int    // longest chain observed
	ZeroReads uint64 // reads satisfied as all-zeros without a data fetch

	MinorIncrements  uint64
	Overflows        uint64 // minor-counter overflow events (page re-encryption)
	ReencryptedLines uint64

	CopiedOnDemand uint64 // uncopied lines materialised by their first write
	PhycLines      uint64 // uncopied lines materialised by page_phyc
	ElidedLines    uint64 // uncopied lines released by page_free: never copied

	// Metadata-prefetch accounting. Prefetch fills charge the Ctr/CoWMeta
	// read counters above (they are real device traffic) but never the
	// caches' demand hit/miss counters, so MissRate() keeps meaning "demand
	// lookups that had to wait for NVM".
	PrefetchIssued  uint64 // prefetch fills that landed in a cache
	PrefetchUseful  uint64 // first demand touch arrived after the fill completed
	PrefetchLate    uint64 // first demand touch arrived before the fill completed
	PrefetchUnused  uint64 // prefetched entries evicted before any demand touch
	PrefetchDropped uint64 // fills abandoned: no idle MSHR or no reclaimable way

	PageCopies uint64
	PagePhycs  uint64
	PageFrees  uint64
	PageInits  uint64

	// Recovery-scrub accounting (Engine.Recover).
	Recoveries            uint64
	RecoveryBlocksScanned uint64
	RecoveryTornBlocks    uint64
	RecoveryNodesRebuilt  uint64
	RecoveryLinesScrubbed uint64
	RecoveryMACMismatches uint64
	RecoveryNs            uint64
}

// NVMWrites returns all NVM write traffic caused through the engine.
func (s *Stats) NVMWrites() uint64 {
	return s.DataWrites + s.CtrWrites + s.CoWMetaWrite
}

// NVMReads returns all NVM read traffic caused through the engine.
func (s *Stats) NVMReads() uint64 {
	return s.DataReads + s.CtrReads + s.CoWMetaReads
}

// Engine is the secure memory controller core.
type Engine struct {
	cfg    Config
	layout Layout

	Phys *mem.Physical // NVM contents: ciphertext plus packed metadata
	Dev  *nvm.Device   // NVM device (traffic counters, wear)
	// Mem is the timing path to the device: the device itself, or the
	// controller's write queue in front of it.
	Mem  nvm.Memory
	Enc  *enc.Engine
	Tree *bmt.Tree
	MACs *bmt.MACStore

	CtrCache *ctrcache.Cache
	CoWCache *ctrcache.CoWCache

	// ZeroPFN is the kernel's shared zero frame; reads that bottom out
	// there return zeros.
	ZeroPFN uint64

	rng *rand.Rand
	// initialised marks counter blocks that exist in NVM (installed at
	// simulated boot, free of charge, like a real machine's reset state).
	// Dense bitset sized from the data region: the hot path tests it on
	// every counter-block miss.
	initialised *bitset.Set

	// fi is the optional deterministic fault-injection plane; nil costs one
	// pointer compare per persist. fiDataPoint is the point name data-line
	// writes report: QueueLoss when a volatile write queue fronts the
	// device, DataWrite otherwise.
	fi          *faultinject.Plane
	fiDataPoint faultinject.Point

	// pr is the optional observability plane; nil costs one pointer compare
	// per emission site (the hot path stays allocation-free — gated by
	// TestProbeDisabledAllocFree).
	pr *probe.Plane

	// mshr is the miss-status holding register file gating overlapped legs
	// when MLP is enabled; nil means MLP off (the hot paths branch on the
	// nil check, so the serial engine pays one compare).
	mshr *nvm.MSHRFile
	// own is the engine's crypto state, through which every data line is
	// opened and sealed.
	own lineCrypto
	// padNs is the pad-generation latency a data line's fetch or write
	// waits on: AESLatencyNs, or 0 when non-secure mode generates no pads.
	padNs uint64

	// pf is the optional metadata prefetch unit; nil means prefetch off
	// (one pointer compare per metadata access, byte-identical reports).
	pf *prefetch.Unit

	// written marks lines that have ever been encrypted to NVM; reads of
	// never-written lines return zeros (fresh memory). Dense bitset, one
	// bit per data line — consulted on every read and set on every write.
	// It grows to the highest line written instead of being sized from
	// the capacity, which would cost 32 MiB per 16 GiB machine up front.
	written *bitset.Set

	// footprint tracking for Fig. 10c/d. tracked is a per-page bitset so
	// the per-access note() probe is branch-plus-word cheap; the footprint
	// masks stay in a sparse map (only tracked pages ever appear).
	tracked   *bitset.Set
	footprint map[uint64]uint64 // pfn -> bitmask of lines touched

	Stats Stats
}

// NewEngine assembles the controller core over the provided substrates.
func NewEngine(cfg Config, layout Layout, phys *mem.Physical, dev *nvm.Device,
	encEng *enc.Engine, tree *bmt.Tree, macs *bmt.MACStore,
	cc *ctrcache.Cache, cowCache *ctrcache.CoWCache) *Engine {
	pages := layout.DataLimit / mem.PageBytes
	var mshr *nvm.MSHRFile
	if cfg.MLP.Enabled {
		mshr = nvm.NewMSHRFile(cfg.MLP.MSHRs)
	}
	e := &Engine{
		cfg:         cfg,
		layout:      layout,
		Phys:        phys,
		Dev:         dev,
		Mem:         dev,
		Enc:         encEng,
		Tree:        tree,
		MACs:        macs,
		CtrCache:    cc,
		CoWCache:    cowCache,
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		initialised: bitset.New(pages),
		fiDataPoint: faultinject.DataWrite,
		written:     new(bitset.Set),
		tracked:     bitset.New(pages),
		footprint:   make(map[uint64]uint64),
		mshr:        mshr,
		padNs:       cfg.AESLatencyNs,
	}
	e.own = lineCrypto{enc: encEng, mac: macs, rest: restFor(cfg), e: e}
	if e.own.rest == restPlain {
		e.padNs = 0
	}
	if pf := prefetch.New(cfg.Prefetch); pf != nil {
		e.pf = pf
		e.attachPrefetchSinks()
	}
	return e
}

// Scheme returns the active configuration.
func (e *Engine) Scheme() Scheme { return e.cfg.Scheme }

// Layout returns the metadata address map.
func (e *Engine) Layout() Layout { return e.layout }

// AttachFaultPlane wires a deterministic fault-injection plane into every
// persist point. queueFronted selects the point name data-line persistence
// reports: with a volatile write queue in front of the device a lost write
// is queue loss, without one it is a device write drop.
func (e *Engine) AttachFaultPlane(p *faultinject.Plane, queueFronted bool) {
	e.fi = p
	if queueFronted {
		e.fiDataPoint = faultinject.QueueLoss
	} else {
		e.fiDataPoint = faultinject.DataWrite
	}
}

// AttachProbe wires the observability plane into every emission site. A nil
// plane (the default) keeps every site a single pointer compare. With MLP
// enabled it also installs the device bank-queue depth probe — gated on MLP
// so MLP-off probe exports stay byte-identical to pre-MLP ones.
func (e *Engine) AttachProbe(p *probe.Plane) {
	e.pr = p
	if p != nil && e.mshr != nil && e.Dev != nil {
		e.Dev.SetQueueProbe(func(bank, depth int) { p.ObserveBankQueue(depth) })
	}
}

// Probe returns the attached observability plane (nil when disabled).
func (e *Engine) Probe() *probe.Plane { return e.pr }

// fiHit consults the fault plane at a named persist point. With no plane
// attached this is a single nil compare.
func (e *Engine) fiHit(pt faultinject.Point) faultinject.Decision {
	if e.fi == nil {
		return faultinject.Decision{}
	}
	dec := e.fi.Hit(pt)
	if e.pr != nil && dec.Action != faultinject.ActNone {
		// Fault decisions fire inside byte-level persist helpers whose time is
		// charged by their caller, so the event is stamped at the plane's
		// high-water simulated time.
		e.pr.RecordAt(probe.EvFault, 0, uint64(pt))
	}
	return dec
}

// tornLineWrite applies the first keepWords 8-byte words of img on top of
// the line's current NVM bytes, modelling a write torn at the device's
// 8-byte atomicity boundary mid-line.
func (e *Engine) tornLineWrite(addr uint64, img *[mem.LineBytes]byte, keepWords int) {
	if keepWords <= 0 {
		return
	}
	if keepWords > faultinject.WordsPerLine {
		keepWords = faultinject.WordsPerLine
	}
	var old [mem.LineBytes]byte
	e.Phys.ReadLine(addr, &old)
	copy(old[:keepWords*8], img[:keepWords*8])
	e.Phys.WriteLine(addr, &old)
}

func (e *Engine) ctrAddr(pfn uint64) uint64 { return e.layout.CounterBase + pfn*ctr.BlockBytes }

// cowMetaAddr returns the 64 B-aligned NVM address holding page pfn's
// 8-byte supplementary CoW entry.
func (e *Engine) cowMetaAddr(pfn uint64) uint64 {
	return (e.layout.CoWBase + pfn*8) &^ (mem.LineBytes - 1)
}

// freshBlock creates the boot-time counter block for a page.
func (e *Engine) freshBlock() ctr.Block {
	b := ctr.Block{Format: e.cfg.Scheme.Format()}
	if e.cfg.RandomInitCounters {
		for i := range b.Minor {
			// [1, 127]: zero is reserved by the Lelantus encodings and by
			// Silent Shredder, and the expected writes-to-overflow (~63)
			// match the paper's analysis.
			b.Minor[i] = uint8(1 + e.rng.Intn(ctr.MinorMaxClassic))
		}
	}
	return b
}

// ensureInit installs a page's boot-time counter block in NVM. This models
// machine-reset state and is free of simulated time and traffic. Boot-state
// installation sits below the fault plane: injected faults target the
// runtime persist points, not reset state.
func (e *Engine) ensureInit(pfn uint64) error {
	if e.initialised.Test(pfn) {
		return nil
	}
	e.initialised.Set(pfn)
	b := e.freshBlock()
	var raw [ctr.BlockBytes]byte
	if err := b.PackInto(&raw); err != nil {
		return fmt.Errorf("%w: fresh counter block for page %#x: %v", ErrMetadataCorrupt, pfn, err)
	}
	e.Phys.WriteLine(e.ctrAddr(pfn), &raw)
	if !e.cfg.NonSecure {
		e.Tree.Update(pfn, raw[:])
	}
	return nil
}

// loadBlock returns a copy of the page's counter block and the completion
// time of the fetch. Counter-cache hits cost the cache latency; misses add
// an NVM read plus integrity verification.
func (e *Engine) loadBlock(now, pfn uint64) (ctr.Block, uint64, error) {
	done := now + e.CtrCache.LatencyNs
	if blk := e.CtrCache.Get(pfn); blk != nil {
		if e.pf != nil {
			// A hit on a still-in-flight prefetched block waits for the fill
			// (late) or credits it (useful); either way the fill is claimed.
			e.pfTouchCtr(now, pfn, &done)
			e.pfObserve(done, pfn)
		}
		if e.pr != nil {
			e.pr.Record(probe.EvCtrHit, now, done, pfn, 0)
		}
		return *blk, done, nil
	}
	if err := e.ensureInit(pfn); err != nil {
		return ctr.Block{}, done, err
	}
	var raw [ctr.BlockBytes]byte
	addr := e.ctrAddr(pfn)
	e.Phys.ReadLine(addr, &raw)
	done = e.Mem.Read(done, addr)
	e.Stats.CtrReads++
	if !e.cfg.NonSecure {
		// Dependence-ordered: the BMT verify consumes the block bytes the
		// read just produced, so its charge serializes after the fetch even
		// under MLP (only the *data* fetch can run ahead of it).
		done += e.cfg.VerifyNs
		if err := e.Tree.Verify(pfn, raw[:]); err != nil {
			return ctr.Block{}, done, err
		}
		if e.pr != nil {
			e.pr.Record(probe.EvBMTVerify, done-e.cfg.VerifyNs, done, pfn, 0)
		}
	}
	var blk ctr.Block
	if err := ctr.UnpackInto(&raw, e.cfg.Scheme.Format(), &blk); err != nil {
		return ctr.Block{}, done, err
	}
	if e.pr != nil {
		e.pr.Record(probe.EvCtrMiss, now, done, pfn, 0)
	}
	// The fill's victim write-back proceeds in the background: the demand
	// read does not wait on it, so its completion time is not propagated.
	if _, err := e.installBlock(done, pfn, blk); err != nil {
		return blk, done, err
	}
	if e.pf != nil {
		e.pfObserve(done, pfn)
	}
	return blk, done, nil
}

// installBlock places a (clean) block into the counter cache, writing back
// any dirty victim. It returns the completion time of that write-back (now
// if no victim needed one): callers on the store path must wait for the
// eviction to retire before their own counter update is durable.
func (e *Engine) installBlock(now, pfn uint64, blk ctr.Block) (uint64, error) {
	victim, needWB := e.CtrCache.Put(pfn, blk)
	if needWB {
		done, err := e.persistBlock(now, victim.Page, &victim.Blk)
		if e.pr != nil && err == nil {
			e.pr.Record(probe.EvCtrEvict, now, done, victim.Page, 0)
		}
		return done, err
	}
	return now, nil
}

// persistBlock packs a counter block, refreshes the integrity tree and
// writes it to the NVM metadata region. Two fault-plane points live here:
// ctr-write (the block's own 64 B line, tearable at 8 B granularity) and
// bmt-update (the leaf-digest refresh). The tree always receives the
// *intended* image while the device may keep a torn one — that divergence
// is exactly what makes a torn counter write detectable at recovery.
func (e *Engine) persistBlock(now, pfn uint64, blk *ctr.Block) (uint64, error) {
	var raw [ctr.BlockBytes]byte
	if err := blk.PackInto(&raw); err != nil {
		return now, fmt.Errorf("%w: cannot pack counter block for page %#x: %v", ErrMetadataCorrupt, pfn, err)
	}
	addr := e.ctrAddr(pfn)
	e.Stats.CtrWrites++
	if !e.cfg.NonSecure {
		// Runtime write overhead of the persistence strategy: how many
		// integrity-tree nodes this counter persist makes durable. Modeled
		// only — no device traffic or timing — so strict stays bit-exact.
		e.Stats.TreePersistWrites += e.strategy().NodesPerCounterPersist(e.Tree.Levels())
	}
	e.initialised.Set(pfn)
	done := e.Mem.Write(now, addr)
	dec := e.fiHit(faultinject.CtrWrite)
	switch dec.Action {
	case faultinject.ActDrop:
		// Lost in the volatile queue: neither bytes nor leaf digest change,
		// leaving the old (stale but self-consistent) epoch in NVM.
		return done, nil
	case faultinject.ActTear, faultinject.ActCrash:
		e.tornLineWrite(addr, &raw, dec.KeepWords)
		if dec.Action == faultinject.ActCrash {
			return done, dec.Err
		}
	default:
		e.Phys.WriteLine(addr, &raw)
	}
	if !e.cfg.NonSecure {
		if d := e.fiHit(faultinject.BMTUpdate); d.Action != faultinject.ActNone {
			// Leaf-digest refresh lost: the stored digest keeps describing the
			// previous epoch, so the scrub flags this block as torn.
			if d.Action == faultinject.ActCrash {
				return done, d.Err
			}
			return done, nil
		}
		e.Tree.Update(pfn, raw[:])
		if e.pr != nil {
			// Leaf-digest refreshes are on-chip SRAM updates with no modeled
			// latency of their own: an instant marker at the persist's
			// completion keeps them visible without inventing time.
			e.pr.Record(probe.EvBMTUpdate, done, done, pfn, 0)
		}
	}
	return done, nil
}

// storeBlock commits a modified counter block: the cache copy is updated
// and, depending on the cache mode, the block is written through or left
// dirty for eviction-time write-back.
func (e *Engine) storeBlock(now, pfn uint64, blk *ctr.Block) (uint64, error) {
	done := now
	if cached := e.CtrCache.Get(pfn); cached != nil {
		if e.pf != nil {
			e.pfTouchCtr(now, pfn, &done)
		}
		*cached = *blk
	} else {
		// A miss may evict a dirty victim; its write-back must complete
		// before this store's counter update is durable, so the returned
		// timestamp carries the eviction cost.
		var err error
		if done, err = e.installBlock(now, pfn, *blk); err != nil {
			return done, err
		}
	}
	if e.CtrCache.MarkDirty(pfn) {
		return e.persistBlock(done, pfn, blk)
	}
	return done, nil
}

// DrainMetadata flushes dirty counter blocks — and, under a lazy
// persistence strategy, dirty supplementary CoW-table entries — at the
// given timestamp (the battery-backed drain at crash or end of run). Every
// victim issues at the same `now` — the drain models the residual-energy
// burst flushing the cache in parallel, not a serial chain — and the
// returned time is the latest completion. It also forces the lazily
// maintained Merkle root current, so the persisted metadata image is
// crash-consistent with the root the verifier would recompute.
func (e *Engine) DrainMetadata(now uint64) (uint64, error) {
	done := now
	var firstErr error
	e.CtrCache.DrainDirty(func(v ctrcache.Victim) {
		blk := v.Blk
		d, err := e.persistBlock(now, v.Page, &blk)
		if d > done {
			done = d
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	})
	// Under strict (eager) persistence the CoW cache never holds dirty
	// entries and this loop never runs, keeping the strict path bit-exact.
	e.CoWCache.DrainDirty(func(v ctrcache.CoWVictim) {
		d, err := e.writeCoWEntryNVM(now, v.Dst, v.Src, v.Present)
		if d > done {
			done = d
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	})
	if firstErr != nil {
		return done, firstErr
	}
	if !e.cfg.NonSecure && e.Tree != nil {
		e.Tree.Root()
	}
	return done, nil
}

// ResetVolatile replaces the on-chip metadata caches with cold ones,
// modelling a power cycle. Whatever dirty counter state the caller did not
// drain beforehand is lost — exactly the recovery hazard the secure-NVM
// literature (Osiris, Anubis) addresses and the reason Fig. 12's
// write-back configuration assumes a battery-backed counter cache. Lines
// written under lost counter updates fail their MAC on the next read:
// the loss is detected, never silent.
func (e *Engine) ResetVolatile(cc *ctrcache.Cache, cow *ctrcache.CoWCache) {
	e.CtrCache = cc
	e.CoWCache = cow
	if e.pf != nil {
		// The prefetch unit's pattern tables and in-flight fills are on-chip
		// volatile state: a power cycle cold-starts them with the caches.
		e.pf.Reset()
		e.attachPrefetchSinks()
	}
}

// Track enables per-line access footprint recording for a page (Fig 10c/d).
func (e *Engine) Track(pfn uint64) {
	e.tracked.Set(pfn)
}

// Footprint returns the bitmask of lines touched on a tracked page.
func (e *Engine) Footprint(pfn uint64) uint64 { return e.footprint[pfn] }

// Footprints returns the full tracked footprint map (pfn -> line bitmask).
func (e *Engine) Footprints() map[uint64]uint64 { return e.footprint }

func (e *Engine) note(pfn uint64, line int) {
	if e.tracked.Test(pfn) {
		e.footprint[pfn] |= 1 << uint(line)
	}
}

// peekBlock returns the page's current counter block with zero side
// effects: no cache fill or LRU promotion, no Stats charges, no device
// traffic, no clock movement. Dirty cached blocks take precedence over the
// (stale) NVM image. Pages whose boot-time block was never materialised
// report ok=false — such a page cannot carry CoW state, and decoding it
// here would have to draw from the counter-init RNG, perturbing the run.
func (e *Engine) peekBlock(pfn uint64) (blk ctr.Block, ok bool) {
	if cached := e.CtrCache.Peek(pfn); cached != nil {
		return *cached, true
	}
	if !e.initialised.Test(pfn) {
		return ctr.Block{}, false
	}
	var raw [ctr.BlockBytes]byte
	e.Phys.ReadLine(e.ctrAddr(pfn), &raw)
	if err := ctr.UnpackInto(&raw, e.cfg.Scheme.Format(), &blk); err != nil {
		return ctr.Block{}, false
	}
	return blk, true
}

// IsCoW reports whether the page currently has live fine-grained CoW state
// (uncopied lines that reference a source page). Pure introspection: the
// caches, statistics and device clock are left untouched. Under a lazy
// persistence strategy the intended (cache-ahead) mapping view is
// consulted, so the kernel's CoW decisions see mappings that have not
// reached NVM yet.
func (e *Engine) IsCoW(pfn uint64) bool {
	switch e.cfg.Scheme {
	case Lelantus:
		blk, ok := e.peekBlock(pfn)
		return ok && blk.CoW
	case LelantusCoW:
		_, ok := e.cowEntryView(pfn)
		return ok
	default:
		return false
	}
}

// SourceOf returns the recorded source page of a CoW destination, without
// side effects on caches, statistics or the device clock.
func (e *Engine) SourceOf(pfn uint64) (uint64, bool) {
	switch e.cfg.Scheme {
	case Lelantus:
		if blk, ok := e.peekBlock(pfn); ok && blk.CoW {
			return blk.Src, true
		}
	case LelantusCoW:
		return e.cowEntryView(pfn)
	}
	return 0, false
}

// UncopiedCount returns the number of lines of pfn still redirected to a
// source page (0 for non-CoW pages), without side effects on caches,
// statistics or the device clock.
func (e *Engine) UncopiedCount(pfn uint64) int {
	if !e.IsCoW(pfn) {
		return 0
	}
	blk, ok := e.peekBlock(pfn)
	if !ok {
		return 0
	}
	return blk.UncopiedCount()
}

// PeekBlock exposes the side-effect-free counter-block view to external
// verifiers (the crash-sweep oracle resolves a page's metadata epoch
// without perturbing caches, stats or the clock).
func (e *Engine) PeekBlock(pfn uint64) (ctr.Block, bool) { return e.peekBlock(pfn) }

// PeekCoWEntry exposes the supplementary CoW table entry for a page
// (LelantusCoW), decoded straight from NVM bytes, side-effect free.
func (e *Engine) PeekCoWEntry(pfn uint64) (uint64, bool) { return e.peekCoWEntry(pfn) }

// LineWritten reports whether the data line at lineAddr was ever encrypted
// to NVM (never-written lines legitimately read as zeros).
func (e *Engine) LineWritten(lineAddr uint64) bool {
	return e.written.Test(mem.LineNo(lineAddr))
}
