package kernel

import (
	"bytes"
	"fmt"
	"sort"

	"lelantus/internal/mem"
)

// Fork duplicates the parent's address space into a new child process.
// Every writable anonymous mapping is downgraded to write-protected and
// shared in both processes; under the Lelantus schemes the kernel flushes
// the pages' dirty cache lines before write-protecting them (Section
// IV-B), so the metadata-level copy observes current data.
func (k *Kernel) Fork(now uint64, parent Pid) (Pid, uint64, error) {
	k.bumpGen()
	p := k.procs[parent]
	if p == nil {
		return 0, now, fmt.Errorf("kernel: fork by dead pid %d", parent)
	}
	k.Stats.Forks++
	now += k.cfg.SyscallNs

	child := k.Spawn()
	c := k.procs[child]
	c.nextMap = p.nextMap

	for _, vma := range p.VMAs {
		vma.AG.members[child] = true
		c.VMAs = append(c.VMAs, vma)
	}

	share := func(huge bool, src map[uint64]*PTE, dst map[uint64]*PTE) error {
		// Deterministic iteration keeps runs reproducible.
		keys := make([]uint64, 0, len(src))
		for key := range src {
			keys = append(keys, key)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, key := range keys {
			pte := src[key]
			now += k.cfg.PTEntryNs
			if !k.isZeroFrame(pte.PFN, huge) {
				info := k.pages[pte.PFN]
				if info == nil {
					return fmt.Errorf("kernel: fork saw frame %#x without page info", pte.PFN)
				}
				info.MapCount++
				if pte.Writable {
					pte.Writable = false
					info.everShared = true
					if k.usesCommands() {
						n := unitFrames(huge)
						for f := uint64(0); f < n; f++ {
							t, err := k.ctl.FlushPage(now, pte.PFN+f)
							if err != nil {
								return err
							}
							now = t
						}
					}
				}
			}
			dst[key] = &PTE{PFN: pte.PFN, Writable: false}
			if k.isZeroFrame(pte.PFN, huge) {
				dst[key].Writable = false
			}
		}
		return nil
	}
	if err := share(false, p.PT, c.PT); err != nil {
		return child, now, err
	}
	if err := share(true, p.PTH, c.PTH); err != nil {
		return child, now, err
	}
	// The write-protect sweep is a global shootdown of the parent's
	// cached translations; the child starts cold anyway.
	p.TLB.FlushAll()
	return child, now, nil
}

// Exit tears down a process: every mapping is removed, frames whose last
// mapping disappears are released (running early-reclamation and
// page_free protocols), and the process leaves its anon groups.
func (k *Kernel) Exit(now uint64, pid Pid) (uint64, error) {
	k.bumpGen()
	p := k.procs[pid]
	if p == nil {
		return now, fmt.Errorf("kernel: exit of dead pid %d", pid)
	}
	k.Stats.Exits++
	now += k.cfg.SyscallNs

	unmapAll := func(huge bool, table map[uint64]*PTE) error {
		keys := make([]uint64, 0, len(table))
		for key := range table {
			keys = append(keys, key)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, key := range keys {
			t, err := k.unmapPTE(now, huge, table[key])
			if err != nil {
				return err
			}
			now = t
			delete(table, key)
		}
		return nil
	}
	if err := unmapAll(false, p.PT); err != nil {
		return now, err
	}
	if err := unmapAll(true, p.PTH); err != nil {
		return now, err
	}
	for _, vma := range p.VMAs {
		delete(vma.AG.members, pid)
	}
	k.retiredTLBWalks += p.TLB.Walks
	delete(k.procs, pid)
	return now, nil
}

// Munmap removes an existing mapping range (unit-aligned).
func (k *Kernel) Munmap(now uint64, pid Pid, vaddr, bytes uint64) (uint64, error) {
	// The TLB keeps any entry of the unmapped range (an open model question,
	// ROADMAP.md): invalidating would move timing.
	return k.walkRange(now, pid, vaddr, bytes, "munmap",
		func(now uint64, p *Process, vma *VMA, va uint64, pte *PTE) (uint64, error) {
			t, err := k.unmapPTE(now, vma.Huge, pte)
			if err == nil {
				delete(p.pageTable(vma), vpnOf(vma, va))
			}
			return t, err
		})
}

// walkRange is the prologue and unit walk the range syscalls share. It
// rejects a dead pid or an unmapped vaddr (op names the call in the
// error), charges the syscall, then calls fn on every mapped unit — a 4 KB
// page, or a 2 MB page in a huge VMA — from vaddr's unit up to
// vaddr+bytes, clipped to the VMA. fn returns the new time; an error stops
// the walk.
func (k *Kernel) walkRange(now uint64, pid Pid, vaddr, bytes uint64, op string,
	fn func(now uint64, p *Process, vma *VMA, va uint64, pte *PTE) (uint64, error)) (uint64, error) {
	k.bumpGen()
	p := k.procs[pid]
	if p == nil {
		return now, fmt.Errorf("kernel: %s by dead pid %d", op, pid)
	}
	vma := p.vmaOf(vaddr)
	if vma == nil {
		return now, fmt.Errorf("kernel: %s of unmapped vaddr %#x", op, vaddr)
	}
	now += k.cfg.SyscallNs
	unit := uint64(mem.PageBytes)
	if vma.Huge {
		unit = mem.HugePageBytes
	}
	table, end := p.pageTable(vma), min(vaddr+bytes, vma.End)
	for va := vaddr &^ (unit - 1); va < end; va += unit {
		pte := table[vpnOf(vma, va)]
		if pte == nil {
			continue
		}
		t, err := fn(now, p, vma, va, pte)
		if err != nil {
			return t, err
		}
		now = t
	}
	return now, nil
}

// KSMMerge deduplicates the given 4 KB mapping sites (madvise(MERGEABLE)
// model, Section II-C): pages whose plaintext matches the first site's
// content are merged into one shared, write-protected frame, and the
// duplicates are released. The stable frame records every mapping site as
// its reverse map. Returns the number of sites merged away.
func (k *Kernel) KSMMerge(now uint64, refs []PageRef) (int, uint64, error) {
	k.bumpGen()
	if len(refs) < 2 {
		return 0, now, nil
	}
	read := func(ref PageRef) ([]byte, *PTE, error) {
		p, vma, pte, err := k.translate(ref.PID, ref.Vaddr)
		if err != nil {
			return nil, nil, err
		}
		_ = p
		if vma.Huge {
			return nil, nil, fmt.Errorf("kernel: KSM merge of huge mapping %#x unsupported", ref.Vaddr)
		}
		buf := make([]byte, mem.PageBytes)
		for i := 0; i < mem.LinesPerPage; i++ {
			t, err := k.Read(now, ref.PID, ref.Vaddr+uint64(i*mem.LineBytes), buf[i*mem.LineBytes:(i+1)*mem.LineBytes])
			if err != nil {
				return nil, nil, err
			}
			now = t
		}
		return buf, pte, nil
	}

	stableContent, stablePTE, err := read(refs[0])
	if err != nil {
		return 0, now, err
	}
	stablePFN := stablePTE.PFN
	if k.isZeroFrame(stablePFN, false) {
		return 0, now, fmt.Errorf("kernel: KSM stable page cannot be the zero page")
	}
	stableInfo := k.pages[stablePFN]
	if stableInfo == nil {
		return 0, now, fmt.Errorf("kernel: KSM stable frame %#x without page info", stablePFN)
	}
	if stableInfo.KSM == nil {
		stableInfo.KSM = &KSMNode{Mappers: []PageRef{refs[0]}}
	}
	stablePTE.Writable = false
	stableInfo.everShared = true
	if k.usesCommands() {
		if now, err = k.ctl.FlushPage(now, stablePFN); err != nil {
			return 0, now, err
		}
	}

	merged := 0
	for _, ref := range refs[1:] {
		content, pte, err := read(ref)
		if err != nil {
			return merged, now, err
		}
		if pte.PFN == stablePFN {
			continue
		}
		if !bytes.Equal(content, stableContent) {
			continue
		}
		if now, err = k.unmapPTE(now, false, pte); err != nil {
			return merged, now, err
		}
		pte.PFN = stablePFN
		pte.Writable = false
		stableInfo.MapCount++
		stableInfo.KSM.Mappers = append(stableInfo.KSM.Mappers, ref)
		k.Stats.KSMMerges++
		merged++
	}
	return merged, now, nil
}

// MadviseDontNeed releases the physical backing of a mapped range
// (madvise(MADV_DONTNEED)): the pages return to the demand-zero state, so
// the next read sees zeros and the next write faults a fresh frame. Under
// the Lelantus schemes the released frames go through the page_free
// protocol like any other free.
func (k *Kernel) MadviseDontNeed(now uint64, pid Pid, vaddr, bytes uint64) (uint64, error) {
	return k.walkRange(now, pid, vaddr, bytes, "madvise",
		func(now uint64, p *Process, vma *VMA, va uint64, pte *PTE) (uint64, error) {
			if k.isZeroFrame(pte.PFN, vma.Huge) {
				return now, nil
			}
			t, err := k.unmapPTE(now, vma.Huge, pte)
			if err != nil {
				return t, err
			}
			pte.PFN = k.zeroPFN
			if vma.Huge {
				pte.PFN = k.hugeZeroPFN
			}
			pte.Writable = false
			p.TLB.Invalidate(vpnOf(vma, va), vma.Huge)
			return t, nil
		})
}

// Mprotect changes the write permission of a mapped range. Write-
// protecting is the dirty-tracking primitive incremental checkpointers
// build on: the next write to each unit takes a fault (and under the
// Lelantus schemes runs the usual CoW/reuse protocol). Re-enabling writes
// only applies to exclusively-owned frames — pages still CoW-shared stay
// write-protected so isolation is preserved, exactly like Linux, where
// mprotect(PROT_WRITE) marks the VMA and the fault handler sorts out
// sharing.
func (k *Kernel) Mprotect(now uint64, pid Pid, vaddr, bytes uint64, writable bool) (uint64, error) {
	return k.walkRange(now, pid, vaddr, bytes, "mprotect",
		func(now uint64, p *Process, vma *VMA, va uint64, pte *PTE) (uint64, error) {
			if !writable {
				if pte.Writable {
					pte.Writable = false
					p.TLB.Invalidate(vpnOf(vma, va), vma.Huge)
				}
				return now, nil
			}
			// Upgrades only take effect for exclusively-owned real frames;
			// the zero page and shared pages must keep faulting.
			if k.isZeroFrame(pte.PFN, vma.Huge) {
				return now, nil
			}
			info := k.pages[pte.PFN]
			if info == nil || info.MapCount != 1 || pte.Writable {
				return now, nil
			}
			// Run the reuse protocol: dependents of a formerly shared page
			// must be materialised before in-place writes resume.
			t, err := k.reuseFault(now, pte, info)
			if err == nil {
				p.TLB.Invalidate(vpnOf(vma, va), vma.Huge)
			}
			return t, err
		})
}
