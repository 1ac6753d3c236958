// Package memctrl assembles the secure memory controller: the core CoW
// engine behind the on-chip cache hierarchy, the memory-mapped command
// registers the kernel writes CoW commands to (paper Section IV-A), the
// conventional bulk copy/initialise paths the Baseline uses, and the
// traffic classification that Table V reports.
package memctrl

import (
	"fmt"

	"lelantus/internal/bmt"
	"lelantus/internal/cache"
	"lelantus/internal/core"
	"lelantus/internal/ctrcache"
	"lelantus/internal/enc"
	"lelantus/internal/faultinject"
	"lelantus/internal/mem"
	"lelantus/internal/nvm"
	"lelantus/internal/probe"
)

// Context classifies why a memory request was issued, so the share of
// copy/initialisation traffic can be reported (paper Table V).
type Context int

const (
	// CtxDemand is ordinary application load/store traffic.
	CtxDemand Context = iota
	// CtxCopy is traffic caused by page copies: CoW fault copies, CoW
	// commands and reclamation-time physical copies.
	CtxCopy
	// CtxInit is traffic caused by page zero-initialisation.
	CtxInit
	numContexts
)

// Config parameterises the whole memory subsystem.
type Config struct {
	Core     core.Config
	NVM      nvm.Config
	Cache    cache.Config
	MemBytes uint64 // data-region capacity

	CtrCacheBytes   uint64
	CtrCacheWays    int
	CtrCacheMode    ctrcache.Mode
	CtrCacheLatNs   uint64
	CoWReserveBytes uint64 // counter-cache slice reserved for CoW mappings

	// WriteQueue, when non-nil, places a merging write queue between the
	// controller and the device (paper Section IV-C: deferring copies lets
	// the controller merge more writes in the request queue).
	WriteQueue *nvm.QueueConfig

	// FaultPlane, when non-nil, threads a deterministic fault-injection
	// plane through every persist point of the engine (crash sweeps and
	// torn-write experiments). nil costs one pointer compare per persist.
	FaultPlane *faultinject.Plane

	// Probe, when non-nil, threads the observability plane through every
	// engine emission site and wires its periodic sampler to the machine's
	// cache/device/tree counters. nil costs one pointer compare per site.
	Probe *probe.Plane
}

// DefaultConfig mirrors the paper's Table III plus Section V-A details.
func DefaultConfig(scheme core.Scheme) Config {
	return Config{
		Core:            core.DefaultConfig(scheme),
		NVM:             nvm.DefaultConfig(),
		Cache:           cache.DefaultConfig(),
		MemBytes:        16 << 30,
		CtrCacheBytes:   256 << 10,
		CtrCacheWays:    16,
		CtrCacheMode:    ctrcache.WriteBack,
		CtrCacheLatNs:   2,
		CoWReserveBytes: 32 << 10,
	}
}

// Controller is the kernel- and CPU-facing memory subsystem.
type Controller struct {
	cfg    Config
	Engine *core.Engine
	Caches *cache.Hierarchy
	Dev    *nvm.Device
	Queue  *nvm.Queue // nil unless Config.WriteQueue is set
	Phys   *mem.Physical

	ctx Context
	// reqsByCtx counts line-granularity memory requests per context.
	reqsByCtx [numContexts]uint64

	CPUReads  uint64
	CPUWrites uint64
}

// New builds the subsystem. The data region occupies [0, MemBytes); the
// counter and CoW-metadata regions live above it.
func New(cfg Config) (*Controller, error) {
	layout := core.LayoutFor(cfg.MemBytes)
	// Physical space must also hold the metadata regions.
	pages := cfg.MemBytes / mem.PageBytes
	physBytes := layout.CoWBase + pages*8
	phys := mem.NewPhysical(physBytes)
	dev := nvm.New(cfg.NVM)
	encEng, err := enc.New([]byte("lelantus-aes-key"))
	if err != nil {
		return nil, fmt.Errorf("memctrl: %w", err)
	}
	tree := bmt.New([]byte("lelantus-bmt-key"), pages)
	macs := bmt.NewMACStore([]byte("lelantus-mac-key"))
	if cfg.Core.Fidelity == core.FidelityTiming {
		// Timing fidelity: the tree keeps its update/verify counters and
		// leaf presence but computes no hashes; the engine elides
		// the per-line pad/MAC work itself (see core.Fidelity).
		tree.DisableHashing()
	}

	ctrBytes := cfg.CtrCacheBytes
	cowBytes := uint64(0)
	var cowCache *ctrcache.CoWCache
	if cfg.Core.Scheme == core.LelantusCoW {
		cowBytes = cfg.CoWReserveBytes
		if cowBytes >= ctrBytes {
			return nil, fmt.Errorf("memctrl: CoW reserve %d must be smaller than counter cache %d", cowBytes, ctrBytes)
		}
		ctrBytes -= cowBytes
	}
	cowCache = ctrcache.NewCoW(cowBytes)
	cc := ctrcache.New(ctrBytes, cfg.CtrCacheWays, cfg.CtrCacheMode, cfg.CtrCacheLatNs)

	eng := core.NewEngine(cfg.Core, layout, phys, dev, encEng, tree, macs, cc, cowCache)
	ctl := &Controller{
		cfg:    cfg,
		Engine: eng,
		Caches: cache.NewHierarchy(cfg.Cache),
		Dev:    dev,
		Phys:   phys,
	}
	if cfg.WriteQueue != nil {
		ctl.Queue = nvm.NewQueue(*cfg.WriteQueue, dev)
		eng.Mem = ctl.Queue
	}
	eng.AttachFaultPlane(cfg.FaultPlane, cfg.WriteQueue != nil)
	eng.AttachProbe(cfg.Probe)
	if cfg.Probe != nil {
		// The sampler reads through the controller so it tracks the *current*
		// caches even after Crash swaps them (ResetVolatile replaces the
		// counter/CoW caches, Crash rebuilds the hierarchy and queue).
		cfg.Probe.SetSampler(func(now uint64, s *probe.Sample) {
			s.CtrHits = ctl.Engine.CtrCache.Hits
			s.CtrMisses = ctl.Engine.CtrCache.Misses
			s.CoWHits = ctl.Engine.CoWCache.Hits
			s.CoWMisses = ctl.Engine.CoWCache.Misses
			s.L3Hits = ctl.Caches.L3.Hits
			s.L3Misses = ctl.Caches.L3.Misses
			s.DevReads = dev.Reads
			s.DevWrites = dev.Writes
			s.ReadBusyNs = dev.ReadBusyNs
			s.WriteBusyNs = dev.WriteBusy
			s.BMTUpdates = tree.Updates
			s.BMTVerifies = tree.Verifies()
			if ctl.Queue != nil {
				s.QueueOcc = ctl.Queue.Occupancy()
			}
		})
		if cfg.WriteQueue != nil {
			cfg.Probe.SetQueueOcc(func() int { return ctl.Queue.Occupancy() })
		}
	}
	return ctl, nil
}

// Probe returns the attached observability plane (nil when disabled).
func (c *Controller) Probe() *probe.Plane { return c.Engine.Probe() }

// Config returns the subsystem configuration.
func (c *Controller) Config() Config { return c.cfg }

// SetContext classifies subsequent requests; it returns the previous
// context so callers can restore it.
func (c *Controller) SetContext(ctx Context) Context {
	prev := c.ctx
	c.ctx = ctx
	return prev
}

// TrafficByContext returns line requests issued per context.
func (c *Controller) TrafficByContext() (demand, copyTraffic, initTraffic uint64) {
	return c.reqsByCtx[CtxDemand], c.reqsByCtx[CtxCopy], c.reqsByCtx[CtxInit]
}

// CopyInitShare returns the fraction of all requests that were copy or
// initialisation traffic (Table V).
func (c *Controller) CopyInitShare() float64 {
	total := c.reqsByCtx[CtxDemand] + c.reqsByCtx[CtxCopy] + c.reqsByCtx[CtxInit]
	if total == 0 {
		return 0
	}
	return float64(c.reqsByCtx[CtxCopy]+c.reqsByCtx[CtxInit]) / float64(total)
}

func (c *Controller) count() { c.reqsByCtx[c.ctx]++ }

// writeBackVictim sends an evicted dirty line to the engine. It is not
// counted as a request: it is the echo of the store that dirtied the line,
// which was counted when issued.
func (c *Controller) writeBackVictim(now uint64, v cache.Victim) (uint64, error) {
	return c.Engine.WriteLine(now, v.LineAddr, v.Data)
}

// Load reads the 64 B line containing addr through the cache hierarchy and
// returns its plaintext.
func (c *Controller) Load(now, addr uint64) ([mem.LineBytes]byte, uint64, error) {
	c.CPUReads++
	c.count()
	line := addr &^ (mem.LineBytes - 1)
	lat, d, miss := c.Caches.AccessData(line, false)
	done := now + lat
	if !miss && d != nil {
		return *d, done, nil
	}
	plain, t, err := c.Engine.ReadLine(done, line)
	if err != nil {
		return plain, t, err
	}
	if wb, need := c.Caches.Fill(line, false, &plain); need {
		if _, err := c.writeBackVictim(t, wb); err != nil {
			return plain, t, err
		}
	}
	return plain, t, nil
}

// Store writes data (confined to one line) at addr through the cache
// hierarchy, performing read-for-ownership on a miss.
func (c *Controller) Store(now, addr uint64, data []byte) (uint64, error) {
	c.CPUWrites++
	c.count()
	line := addr &^ (mem.LineBytes - 1)
	off := addr & (mem.LineBytes - 1)
	if int(off)+len(data) > mem.LineBytes {
		return now, fmt.Errorf("memctrl: store at %#x crosses a line boundary", addr)
	}
	lat, d, miss := c.Caches.AccessData(line, true)
	done := now + lat
	if miss {
		var plain [mem.LineBytes]byte
		if off == 0 && len(data) == mem.LineBytes {
			// Full-line store: no read-for-ownership fetch is needed (the
			// whole line is overwritten), as with modern CPUs' full-line
			// write optimisation.
			copy(plain[:], data)
		} else {
			var err error
			plain, done, err = c.Engine.ReadLine(done, line)
			if err != nil {
				return done, err
			}
			copy(plain[off:], data)
		}
		if wb, need := c.Caches.Fill(line, true, &plain); need {
			if _, err := c.writeBackVictim(done, wb); err != nil {
				return done, err
			}
		}
		return done, nil
	}
	if d == nil {
		// Tag-only hit race cannot happen in this single-threaded model.
		return done, fmt.Errorf("memctrl: cached line %#x has no data", line)
	}
	// AccessData already marked the line dirty and refreshed its recency.
	copy(d[off:], data)
	return done, nil
}

// StoreNT performs a non-temporal full-line store: the cache is bypassed
// (any stale copy is dropped) and the line goes straight to the engine.
// The kernel's huge-page copy and zero-fill paths use this (Section II-D).
func (c *Controller) StoreNT(now, addr uint64, data *[mem.LineBytes]byte) (uint64, error) {
	c.CPUWrites++
	c.count()
	line := addr &^ (mem.LineBytes - 1)
	c.Caches.InvalidateLine(line)
	return c.Engine.WriteLine(now, line, data)
}

// FlushPage write-backs and invalidates every cached line of the page
// (the clwb/clflush sweep the kernel runs before write-protecting a CoW
// source page, Section IV-B).
func (c *Controller) FlushPage(now, pfn uint64) (uint64, error) {
	done := now
	for _, v := range c.Caches.FlushPage(pfn) {
		t, err := c.writeBackVictim(done, v)
		if err != nil {
			return t, err
		}
		done = t
	}
	return done, nil
}

// InvalidatePage drops all cached lines of a freshly allocated destination
// page without write-back (their content is dead).
func (c *Controller) InvalidatePage(pfn uint64) {
	c.Caches.InvalidatePage(pfn)
}

// PageCopy issues the page_copy MMIO command.
func (c *Controller) PageCopy(now, src, dst uint64) (uint64, error) {
	prev := c.SetContext(CtxCopy)
	defer c.SetContext(prev)
	c.count()
	return c.Engine.PageCopy(now, src, dst)
}

// PagePhyc issues the page_phyc MMIO command.
func (c *Controller) PagePhyc(now, src, dst uint64) (uint64, int, error) {
	prev := c.SetContext(CtxCopy)
	defer c.SetContext(prev)
	done, n, err := c.Engine.PagePhyc(now, src, dst)
	c.reqsByCtx[CtxCopy] += uint64(n)
	return done, n, err
}

// PageFree issues the page_free MMIO command.
func (c *Controller) PageFree(now, dst uint64) (uint64, error) {
	return c.Engine.PageFree(now, dst)
}

// PageInit issues the page_init MMIO command.
func (c *Controller) PageInit(now, dst uint64) (uint64, error) {
	prev := c.SetContext(CtxInit)
	defer c.SetContext(prev)
	c.count()
	return c.Engine.PageInit(now, dst)
}

// CopyPageFull is the conventional page copy (Baseline, and the fallback
// for schemes whose commands do not cover copies): all 64 lines of the
// source are read and written to the destination. Regular pages copy
// through the cache (polluting it); huge-page constituents use
// non-temporal stores. Each line's store chains on its own load. Under MLP
// the lines are program-ordered but mutually independent, so every load
// issues at now and the bank queues and MSHRs spread them out; the serial
// engine issues each load at the previous line's completion. Completion is
// the max over lines.
func (c *Controller) CopyPageFull(now, src, dst uint64, nonTemporal bool) (uint64, error) {
	prev := c.SetContext(CtxCopy)
	defer c.SetContext(prev)
	mlp := c.Engine.MLPEnabled()
	issue, done := now, now
	for i := 0; i < mem.LinesPerPage; i++ {
		plain, t, err := c.Load(issue, mem.LineAddr(src, i))
		if err != nil {
			return t, err
		}
		da := mem.LineAddr(dst, i)
		var wt uint64
		if nonTemporal {
			wt, err = c.StoreNT(t, da, &plain)
		} else {
			wt, err = c.Store(t, da, plain[:])
		}
		if err != nil {
			return wt, err
		}
		done = max(done, wt)
		if !mlp {
			issue = wt
		}
	}
	return done, nil
}

// ZeroPageFull is the conventional zero-fill of a page (Baseline demand
// zero). Under Silent Shredder the engine turns each all-zero line write
// into a counter reset, which is exactly that design's saving. Line issue
// times follow CopyPageFull: all at now under MLP, each at the previous
// line's completion otherwise.
func (c *Controller) ZeroPageFull(now, dst uint64, nonTemporal bool) (uint64, error) {
	prev := c.SetContext(CtxInit)
	defer c.SetContext(prev)
	mlp := c.Engine.MLPEnabled()
	var zero [mem.LineBytes]byte
	issue, done := now, now
	for i := 0; i < mem.LinesPerPage; i++ {
		da := mem.LineAddr(dst, i)
		var wt uint64
		var err error
		if nonTemporal {
			wt, err = c.StoreNT(issue, da, &zero)
		} else {
			wt, err = c.Store(issue, da, zero[:])
		}
		if err != nil {
			return wt, err
		}
		done = max(done, wt)
		if !mlp {
			issue = wt
		}
	}
	return done, nil
}

// Crash power-cycles the machine at simulated time now: all volatile state
// (data caches, counter cache, CoW-mapping cache) disappears. With
// batteryBacked set, the counter cache drains to NVM first — the paper's
// default assumption for the write-back configuration — with every flush
// issued at the crash timestamp, as the residual-energy burst would.
// Without it, counter updates still sitting in the cache are lost; affected
// lines are detected (MAC mismatch) on their next read rather than silently
// corrupted.
func (c *Controller) Crash(now uint64, batteryBacked bool) error {
	if batteryBacked {
		if _, err := c.Engine.DrainMetadata(now); err != nil {
			return err
		}
		if c.Queue != nil {
			c.Queue.Flush(now)
		}
	} else if c.Queue != nil {
		// The volatile write queue's contents are lost; affected lines are
		// detected on their next read (MAC mismatch), never silent.
		c.Queue = nvm.NewQueue(*c.cfg.WriteQueue, c.Dev)
		c.Engine.Mem = c.Queue
	}
	c.Caches = cache.NewHierarchy(c.cfg.Cache)
	ctrBytes := c.cfg.CtrCacheBytes
	cowBytes := uint64(0)
	if c.cfg.Core.Scheme == core.LelantusCoW {
		cowBytes = c.cfg.CoWReserveBytes
		ctrBytes -= cowBytes
	}
	c.Engine.ResetVolatile(
		ctrcache.New(ctrBytes, c.cfg.CtrCacheWays, c.cfg.CtrCacheMode, c.cfg.CtrCacheLatNs),
		ctrcache.NewCoW(cowBytes),
	)
	return nil
}

// Recover runs the post-crash metadata scrub (see core.Engine.Recover).
func (c *Controller) Recover() (*core.RecoveryReport, error) {
	return c.Engine.Recover()
}

// Drain writes back all dirty cache and metadata state (end-of-run or
// measurement-boundary accounting). Every drain-issued write is stamped with
// now, the caller's current simulated time — issuing them at time zero would
// backdate the device's bank-availability bookkeeping to before the ops that
// dirtied the state (see TestDrainIssuesAtCurrentTime).
func (c *Controller) Drain(now uint64) error {
	var firstErr error
	c.Caches.DrainDirty(func(v cache.Victim) {
		if _, err := c.writeBackVictim(now, v); err != nil && firstErr == nil {
			firstErr = err
		}
	})
	if _, err := c.Engine.DrainMetadata(now); err != nil && firstErr == nil {
		firstErr = err
	}
	if c.Queue != nil {
		c.Queue.Flush(now)
	}
	return firstErr
}
