// Package kernel models the operating-system half of the Lelantus
// co-design: anonymous virtual memory with demand-zero pages, fork with
// page-granularity Copy-on-Write, the write-protect fault handler that the
// paper re-implements (copy_user_page / do_wp_page / put_page), the
// anon_vma reverse map used to handle early reclamation of source pages
// (Section III-D), huge pages, and KSM-style page merging.
//
// Under the Baseline scheme the fault handler performs conventional full
// page copies and zero fills through the memory controller; under the
// Lelantus schemes it issues page_copy / page_phyc / page_free commands
// instead, and under Silent Shredder page_init replaces zero filling.
package kernel

import (
	"fmt"
	"sort"

	"lelantus/internal/core"
	"lelantus/internal/mem"
	"lelantus/internal/memctrl"
	"lelantus/internal/probe"
	"lelantus/internal/tlb"
)

// Pid identifies a process.
type Pid int

// Config sets the kernel's timing constants and behaviour toggles.
type Config struct {
	FaultNs   uint64 // fixed cost of entering/leaving a page fault
	SyscallNs uint64 // fixed cost of a system call (fork/exit/mmap)
	PTEntryNs uint64 // per-PTE cost of duplicating page tables in fork
	// TLB sizes the per-process translation caches; huge pages owe much of
	// their appeal on terabyte NVMs to TLB reach (paper Section I).
	TLB tlb.Config
	// TrackFootprints records per-line access bitmaps of CoW destination
	// pages in the engine (Fig. 10c/d).
	TrackFootprints bool
}

// DefaultConfig returns timing constants in line with the 1 GHz system.
// The fault cost covers the full-system path the paper's gem5 setup pays:
// trap, page-table walk and fix-up, TLB shootdown and return.
func DefaultConfig() Config {
	return Config{FaultNs: 2500, SyscallNs: 1000, PTEntryNs: 2, TLB: tlb.DefaultConfig()}
}

// PTE is a page-table entry. Present entries live in the process maps;
// Writable is cleared for CoW-shared and zero-backed mappings.
type PTE struct {
	PFN      uint64 // base frame (first of 512 for huge mappings)
	Writable bool
}

// VMA is a contiguous anonymous mapping.
type VMA struct {
	Start, End uint64 // byte virtual addresses, unit-aligned
	Huge       bool
	AG         *AnonGroup
}

// Contains reports whether the virtual address falls inside the VMA.
func (v *VMA) Contains(va uint64) bool { return va >= v.Start && va < v.End }

// AnonGroup models the anon_vma / anon_vma_chain structure (paper Fig. 7):
// the set of processes whose identical virtual ranges descend from the
// same anonymous mapping, which is what the reverse lookup walks.
type AnonGroup struct {
	members map[Pid]bool
}

// PageRef names a mapping site: a virtual page in a process.
type PageRef struct {
	PID   Pid
	Vaddr uint64
}

// KSMNode is the stable-tree node of a merged page: every mapping site
// that was ever merged into it, used as the reverse map for reclamation.
type KSMNode struct {
	Mappers []PageRef
}

// PageInfo is the kernel's per-frame metadata (struct page).
type PageInfo struct {
	MapCount int
	Huge     bool
	AG       *AnonGroup
	Vaddr    uint64 // the (fork-preserved) virtual address of the mapping
	KSM      *KSMNode
	// everShared marks frames that were write-protected at some point, the
	// condition under which release must run the reclamation walk.
	everShared bool
}

// Process is one address space.
type Process struct {
	PID     Pid
	VMAs    []*VMA
	PT      map[uint64]*PTE // 4 KB mappings, keyed by vaddr >> 12
	PTH     map[uint64]*PTE // 2 MB mappings, keyed by vaddr >> 21
	TLB     *tlb.TLB
	nextMap uint64
}

// Stats aggregates kernel-level events.
type Stats struct {
	Forks, Exits, Mmaps uint64
	ZeroFaults          uint64 // first write to a demand-zero page
	CoWFaults           uint64 // write to a shared page (copy performed)
	ReuseFaults         uint64 // write to an exclusively owned protected page
	PagesCopied         uint64 // 4 KB units copied (logically or physically)
	PagesInited         uint64 // 4 KB units zero-initialised
	PhycCommands        uint64
	FreeCommands        uint64
	KSMMerges           uint64
	FaultNs             uint64 // simulated time spent inside fault handling
	LoadOps, StoreOps   uint64
	OOMs                uint64
}

// Kernel binds the process model to a memory controller.
type Kernel struct {
	cfg    Config
	ctl    *memctrl.Controller
	scheme core.Scheme
	alloc  *mem.Allocator

	procs   map[Pid]*Process
	nextPid Pid
	pages   map[uint64]*PageInfo // keyed by base PFN of the mapping unit

	zeroPFN     uint64
	hugeZeroPFN uint64

	// One-entry translation cache: scripted accesses walk lines
	// sequentially, so consecutive translations overwhelmingly resolve to
	// the same (process, VMA, PTE) triple. gen invalidates it wholesale —
	// every mapping mutation (mmap/munmap/fork/exit/fault/KSM/...) bumps
	// gen, so a stale pointer can never be returned.
	gen    uint64
	tcGen  uint64
	tcPid  Pid
	tcPage uint64
	tcP    *Process
	tcVMA  *VMA
	tcPTE  *PTE

	retiredTLBWalks uint64

	// pr mirrors the controller's observability plane (nil when disabled;
	// one pointer compare per fault).
	pr *probe.Plane

	Stats Stats
}

// New creates a kernel over the controller, reserving the shared zero
// pages. Data frames are allocated from [firstPFN, limitPFN).
func New(cfg Config, ctl *memctrl.Controller) (*Kernel, error) {
	limitPFN := ctl.Config().MemBytes / mem.PageBytes
	alloc := mem.NewAllocator(0, limitPFN)
	zero, err := alloc.Alloc()
	if err != nil {
		return nil, fmt.Errorf("kernel: allocating zero page: %w", err)
	}
	hugeZero, err := alloc.AllocHuge()
	if err != nil {
		return nil, fmt.Errorf("kernel: allocating huge zero page: %w", err)
	}
	k := &Kernel{
		cfg:         cfg,
		ctl:         ctl,
		scheme:      ctl.Config().Core.Scheme,
		alloc:       alloc,
		procs:       make(map[Pid]*Process),
		pages:       make(map[uint64]*PageInfo),
		zeroPFN:     zero,
		hugeZeroPFN: hugeZero,
		nextPid:     1,
		pr:          ctl.Probe(),
	}
	ctl.Engine.ZeroPFN = zero
	return k, nil
}

// Controller exposes the memory subsystem (for the simulator and tests).
func (k *Kernel) Controller() *memctrl.Controller { return k.ctl }

// ZeroPFN returns the shared 4 KB zero frame.
func (k *Kernel) ZeroPFN() uint64 { return k.zeroPFN }

// Scheme returns the active CoW scheme.
func (k *Kernel) Scheme() core.Scheme { return k.scheme }

// Allocator exposes frame accounting (tests).
func (k *Kernel) Allocator() *mem.Allocator { return k.alloc }

// Spawn creates a fresh process with an empty address space.
func (k *Kernel) Spawn() Pid {
	k.bumpGen()
	pid := k.nextPid
	k.nextPid++
	k.procs[pid] = &Process{
		PID:     pid,
		PT:      make(map[uint64]*PTE),
		PTH:     make(map[uint64]*PTE),
		TLB:     tlb.New(k.cfg.TLB),
		nextMap: 1 << 32,
	}
	return pid
}

// Process returns the process descriptor (nil if exited).
func (k *Kernel) Process(pid Pid) *Process { return k.procs[pid] }

// Live reports whether the pid names a live process.
func (k *Kernel) Live(pid Pid) bool { return k.procs[pid] != nil }

// Pids returns the live process IDs in ascending order (deterministic
// iteration for verifiers walking every address space).
func (k *Kernel) Pids() []Pid {
	out := make([]Pid, 0, len(k.procs))
	for pid := range k.procs {
		out = append(out, pid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (k *Kernel) isZeroFrame(pfn uint64, huge bool) bool {
	if huge {
		return pfn == k.hugeZeroPFN
	}
	return pfn == k.zeroPFN
}

// Mmap creates an anonymous mapping of n bytes (rounded up to the unit
// size) backed by the shared zero page, write-protected; the first write
// to each unit triggers the demand-zero CoW fault, exactly the libc
// malloc/mmap behaviour described in Section II-C.
func (k *Kernel) Mmap(now uint64, pid Pid, bytes uint64, huge bool) (vaddr, done uint64, err error) {
	k.bumpGen()
	p := k.procs[pid]
	if p == nil {
		return 0, now, fmt.Errorf("kernel: mmap by dead pid %d", pid)
	}
	// A mapping no larger than memory bounds the PTEs installed below.
	if limit := k.ctl.Config().MemBytes; bytes > limit {
		return 0, now, fmt.Errorf("kernel: mmap of %d bytes exceeds the %d-byte memory", bytes, limit)
	}
	k.Stats.Mmaps++
	unit := uint64(mem.PageBytes)
	zpfn := k.zeroPFN
	if huge {
		unit = mem.HugePageBytes
		zpfn = k.hugeZeroPFN
	}
	n := (bytes + unit - 1) / unit
	if n == 0 {
		n = 1
	}
	start := (p.nextMap + unit - 1) &^ (unit - 1)
	p.nextMap = start + n*unit
	vma := &VMA{Start: start, End: start + n*unit, Huge: huge, AG: &AnonGroup{members: map[Pid]bool{pid: true}}}
	p.VMAs = append(p.VMAs, vma)
	for u := uint64(0); u < n; u++ {
		va := start + u*unit
		pte := &PTE{PFN: zpfn, Writable: false}
		if huge {
			p.PTH[va>>mem.HugeShift] = pte
		} else {
			p.PT[va>>mem.PageShift] = pte
		}
	}
	return start, now + k.cfg.SyscallNs, nil
}

// vmaOf finds the VMA containing the address.
func (p *Process) vmaOf(va uint64) *VMA {
	for _, v := range p.VMAs {
		if v.Contains(va) {
			return v
		}
	}
	return nil
}

// translate returns the VMA and PTE covering the address.
// bumpGen invalidates the translation cache; every mutation of address
// spaces, PTEs or process lifetime must call it (the mutating entry points
// and the write-protect fault do).
func (k *Kernel) bumpGen() { k.gen++ }

func (k *Kernel) translate(pid Pid, va uint64) (*Process, *VMA, *PTE, error) {
	page := va >> mem.PageShift
	if k.tcGen == k.gen && k.tcPid == pid && k.tcPage == page && k.tcP != nil {
		return k.tcP, k.tcVMA, k.tcPTE, nil
	}
	p := k.procs[pid]
	if p == nil {
		return nil, nil, nil, fmt.Errorf("kernel: access by dead pid %d", pid)
	}
	vma := p.vmaOf(va)
	if vma == nil {
		return nil, nil, nil, fmt.Errorf("kernel: segfault pid %d vaddr %#x (no mapping)", pid, va)
	}
	var pte *PTE
	if vma.Huge {
		pte = p.PTH[va>>mem.HugeShift]
	} else {
		pte = p.PT[va>>mem.PageShift]
	}
	if pte == nil {
		return nil, nil, nil, fmt.Errorf("kernel: segfault pid %d vaddr %#x (no PTE)", pid, va)
	}
	k.tcGen, k.tcPid, k.tcPage = k.gen, pid, page
	k.tcP, k.tcVMA, k.tcPTE = p, vma, pte
	return p, vma, pte, nil
}

// pageTable returns the page table holding vma's mappings, keyed by vpnOf.
func (p *Process) pageTable(vma *VMA) map[uint64]*PTE {
	if vma.Huge {
		return p.PTH
	}
	return p.PT
}

// vpnOf returns the TLB key page number for an access.
func vpnOf(vma *VMA, va uint64) uint64 {
	if vma.Huge {
		return va >> mem.HugeShift
	}
	return va >> mem.PageShift
}

// TLBWalks sums page-table walks across live and exited processes.
func (k *Kernel) TLBWalks() uint64 {
	n := k.retiredTLBWalks
	for _, p := range k.procs {
		n += p.TLB.Walks
	}
	return n
}

// physAddr converts a translated access to the physical byte address.
func physAddr(vma *VMA, pte *PTE, va uint64) uint64 {
	if vma.Huge {
		sub := (va >> mem.PageShift) & (mem.FramesPerHuge - 1)
		return mem.PageAddr(pte.PFN+sub) | (va & (mem.PageBytes - 1))
	}
	return mem.PageAddr(pte.PFN) | (va & (mem.PageBytes - 1))
}

// Read loads len(buf) bytes (not crossing a 64 B line) at the virtual
// address and returns their plaintext.
func (k *Kernel) Read(now uint64, pid Pid, va uint64, buf []byte) (uint64, error) {
	k.Stats.LoadOps++
	p, vma, pte, err := k.translate(pid, va)
	if err != nil {
		return now, err
	}
	now += p.TLB.Translate(vpnOf(vma, va), vma.Huge)
	pa := physAddr(vma, pte, va)
	line, done, err := k.ctl.Load(now, pa)
	if err != nil {
		return done, err
	}
	off := pa & (mem.LineBytes - 1)
	copy(buf, line[off:])
	return done, nil
}

// Write stores data (not crossing a 64 B line) at the virtual address,
// taking the write-protect fault first when needed.
func (k *Kernel) Write(now uint64, pid Pid, va uint64, data []byte) (uint64, error) {
	k.Stats.StoreOps++
	p, vma, pte, err := k.translate(pid, va)
	if err != nil {
		return now, err
	}
	now += p.TLB.Translate(vpnOf(vma, va), vma.Huge)
	if !pte.Writable {
		if now, err = k.wpFault(now, p, vma, pte, va); err != nil {
			return now, err
		}
	}
	return k.ctl.Store(now, physAddr(vma, pte, va), data)
}

// WriteLineNT stores one full line with a non-temporal store (the DMA-like
// bulk I/O path the boot/compile/mariadb workloads exercise).
func (k *Kernel) WriteLineNT(now uint64, pid Pid, va uint64, data *[mem.LineBytes]byte) (uint64, error) {
	k.Stats.StoreOps++
	p, vma, pte, err := k.translate(pid, va)
	if err != nil {
		return now, err
	}
	now += p.TLB.Translate(vpnOf(vma, va), vma.Huge)
	if !pte.Writable {
		if now, err = k.wpFault(now, p, vma, pte, va); err != nil {
			return now, err
		}
	}
	return k.ctl.StoreNT(now, physAddr(vma, pte, va)&^uint64(mem.LineBytes-1), data)
}

// Sub returns the field-wise difference s - prev, used to isolate the
// measured phase of a run.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Forks:        s.Forks - prev.Forks,
		Exits:        s.Exits - prev.Exits,
		Mmaps:        s.Mmaps - prev.Mmaps,
		ZeroFaults:   s.ZeroFaults - prev.ZeroFaults,
		CoWFaults:    s.CoWFaults - prev.CoWFaults,
		ReuseFaults:  s.ReuseFaults - prev.ReuseFaults,
		PagesCopied:  s.PagesCopied - prev.PagesCopied,
		PagesInited:  s.PagesInited - prev.PagesInited,
		PhycCommands: s.PhycCommands - prev.PhycCommands,
		FreeCommands: s.FreeCommands - prev.FreeCommands,
		KSMMerges:    s.KSMMerges - prev.KSMMerges,
		FaultNs:      s.FaultNs - prev.FaultNs,
		LoadOps:      s.LoadOps - prev.LoadOps,
		StoreOps:     s.StoreOps - prev.StoreOps,
		OOMs:         s.OOMs - prev.OOMs,
	}
}
