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

// Munmap removes an existing mapping range: every mapped unit — a 4 KB
// page, or a 2 MB page in a huge VMA — from vaddr's unit up to
// vaddr+bytes, clipped to the VMA. A dead pid or an unmapped vaddr is an
// error.
func (k *Kernel) Munmap(now uint64, pid Pid, vaddr, bytes uint64) (uint64, error) {
	k.bumpGen()
	p := k.procs[pid]
	if p == nil {
		return now, fmt.Errorf("kernel: munmap by dead pid %d", pid)
	}
	vma := p.vmaOf(vaddr)
	if vma == nil {
		return now, fmt.Errorf("kernel: munmap of unmapped vaddr %#x", vaddr)
	}
	now += k.cfg.SyscallNs
	unit := uint64(mem.PageBytes)
	if vma.Huge {
		unit = mem.HugePageBytes
	}
	// The TLB keeps any entry of the unmapped range (an open model question,
	// ROADMAP.md): invalidating would move timing.
	table, end := p.pageTable(vma), min(vaddr+bytes, vma.End)
	for va := vaddr &^ (unit - 1); va < end; va += unit {
		vpn := vpnOf(vma, va)
		pte := table[vpn]
		if pte == nil {
			continue
		}
		t, err := k.unmapPTE(now, vma.Huge, pte)
		if err != nil {
			return t, err
		}
		now = t
		delete(table, vpn)
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
