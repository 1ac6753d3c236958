// Package workload generates the memory-operation scripts that drive the
// simulator: the paper's forkbench micro-benchmark (Section V-D) and
// synthetic versions of the six copy/initialisation-intensive applications
// of Table IV, calibrated so their copy/init traffic mix approaches the
// shares reported in Table V.
//
// A script is a flat list of operations over process and region *slots*;
// the simulator binds slots to kernel PIDs and mmap-returned addresses at
// execution time, so scripts are position-independent and deterministic.
package workload

import "fmt"

// Kind enumerates script operations.
type Kind int

const (
	// OpSpawn creates the initial process for a slot.
	OpSpawn Kind = iota
	// OpMmap maps Bytes of anonymous memory (huge pages if Huge) into the
	// process and binds the result to the region slot.
	OpMmap
	// OpLoad reads Size bytes at Region+Off.
	OpLoad
	// OpStore writes Size bytes of pattern Val at Region+Off.
	OpStore
	// OpStoreNT writes one full 64 B line at Region+Off with a
	// non-temporal store (DMA-style bulk I/O).
	OpStoreNT
	// OpFork forks Proc into the NewProc slot.
	OpFork
	// OpExit terminates the process.
	OpExit
	// OpMunmap unmaps Bytes at Region+Off.
	OpMunmap
	// OpKSM merges the page at Region+Off across the listed process slots.
	OpKSM
	// OpCompute models off-memory CPU work: the process burns Ns
	// nanoseconds without issuing memory requests. Real applications
	// spend most of their time here; without it every workload would be
	// a pure memory stress and speedups would be inflated.
	OpCompute
	// OpBeginMeasure starts the measured phase (statistics snapshot).
	OpBeginMeasure
	// OpEndMeasure ends the measured phase: the machine quiesces (all
	// dirty cache and metadata state is written back) and the statistics
	// are snapshotted. Subsequent ops (typically teardown) run uncounted.
	OpEndMeasure
)

// Op is one scripted operation.
type Op struct {
	Kind    Kind
	Proc    int
	NewProc int
	Region  int
	Off     uint64
	Bytes   uint64
	Size    int
	Val     byte
	Huge    bool
	Ns      uint64 // OpCompute: busy time
	Procs   []int  // OpKSM: process slots to merge across
}

func (o Op) String() string {
	switch o.Kind {
	case OpSpawn:
		return fmt.Sprintf("spawn p%d", o.Proc)
	case OpMmap:
		return fmt.Sprintf("mmap p%d r%d %dB huge=%v", o.Proc, o.Region, o.Bytes, o.Huge)
	case OpLoad:
		return fmt.Sprintf("load p%d r%d+%#x %dB", o.Proc, o.Region, o.Off, o.Size)
	case OpStore:
		return fmt.Sprintf("store p%d r%d+%#x %dB=%#x", o.Proc, o.Region, o.Off, o.Size, o.Val)
	case OpStoreNT:
		return fmt.Sprintf("storent p%d r%d+%#x", o.Proc, o.Region, o.Off)
	case OpFork:
		return fmt.Sprintf("fork p%d -> p%d", o.Proc, o.NewProc)
	case OpExit:
		return fmt.Sprintf("exit p%d", o.Proc)
	case OpMunmap:
		return fmt.Sprintf("munmap p%d r%d+%#x %dB", o.Proc, o.Region, o.Off, o.Bytes)
	case OpKSM:
		return fmt.Sprintf("ksm r%d+%#x procs=%v", o.Region, o.Off, o.Procs)
	case OpCompute:
		return fmt.Sprintf("compute p%d %dns", o.Proc, o.Ns)
	case OpBeginMeasure:
		return "begin-measure"
	case OpEndMeasure:
		return "end-measure"
	}
	return fmt.Sprintf("op(%d)", int(o.Kind))
}

// Script is a named operation sequence.
//
// A Script is immutable once built: nothing in the simulator writes to it,
// and sim.Machine.Run copies the one shared slice an Op carries (Procs)
// before handing it downstream. One Script value may therefore be shared
// read-only by any number of concurrently running machines — the
// experiment harness interns each generated script and runs it on every
// scheme's grid cell.
type Script struct {
	Name string
	Ops  []Op
	// Procs and Regions are the numbers of slots the script uses.
	Procs, Regions int
	// MeasureProc, when >= 0, restricts the reported execution time to the
	// simulated time consumed by that process slot's operations (the
	// paper's Redis experiment measures the parent's insert latency while
	// the bgsave child runs). -1 measures wall-clock machine time.
	MeasureProc int
}

// maxSlots caps a script's process and region slot counts: the simulator
// allocates per-slot tables up front, so a count decoded from a corrupt
// trace must not size them.
const maxSlots = 1 << 16

// Validate rejects a script whose slot indexing would run out of range
// when executed: slot counts outside [0, maxSlots], and a Proc, NewProc,
// Region or KSM Procs entry outside its slot table for an op that reads
// it. Unknown op kinds pass; the simulator rejects them when it reaches
// them.
func (s Script) Validate() error {
	if s.Procs < 0 || s.Procs > maxSlots || s.Regions < 0 || s.Regions > maxSlots {
		return fmt.Errorf("workload: %d procs, %d regions (want 0..%d each)", s.Procs, s.Regions, maxSlots)
	}
	for i := range s.Ops {
		o := &s.Ops[i]
		procs, region := []int{o.Proc}, true
		switch o.Kind {
		case OpSpawn, OpExit, OpCompute:
			region = false
		case OpFork:
			procs, region = []int{o.Proc, o.NewProc}, false
		case OpMmap, OpLoad, OpStore, OpStoreNT, OpMunmap:
		case OpKSM:
			procs = o.Procs
		default:
			continue
		}
		for _, p := range procs {
			if p < 0 || p >= s.Procs {
				return fmt.Errorf("workload: op %d (%s): proc slot %d out of range [0,%d)", i, o, p, s.Procs)
			}
		}
		if region && (o.Region < 0 || o.Region >= s.Regions) {
			return fmt.Errorf("workload: op %d (%s): region slot %d out of range [0,%d)", i, o, o.Region, s.Regions)
		}
	}
	return nil
}

// Builder assembles scripts with slot bookkeeping.
type Builder struct {
	s Script
}

// NewBuilder starts a script with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{s: Script{Name: name, MeasureProc: -1}}
}

func (b *Builder) touchProc(slots ...int) {
	for _, p := range slots {
		if p+1 > b.s.Procs {
			b.s.Procs = p + 1
		}
	}
}

func (b *Builder) touchRegion(r int) {
	if r+1 > b.s.Regions {
		b.s.Regions = r + 1
	}
}

// Spawn creates process slot p.
func (b *Builder) Spawn(p int) *Builder {
	b.touchProc(p)
	b.s.Ops = append(b.s.Ops, Op{Kind: OpSpawn, Proc: p})
	return b
}

// Mmap maps bytes into process p, binding region slot r.
func (b *Builder) Mmap(p, r int, bytes uint64, huge bool) *Builder {
	b.touchProc(p)
	b.touchRegion(r)
	b.s.Ops = append(b.s.Ops, Op{Kind: OpMmap, Proc: p, Region: r, Bytes: bytes, Huge: huge})
	return b
}

// Load reads size bytes at r+off in process p.
func (b *Builder) Load(p, r int, off uint64, size int) *Builder {
	b.touchProc(p)
	b.touchRegion(r)
	b.s.Ops = append(b.s.Ops, Op{Kind: OpLoad, Proc: p, Region: r, Off: off, Size: size})
	return b
}

// Store writes size bytes of val at r+off in process p.
func (b *Builder) Store(p, r int, off uint64, size int, val byte) *Builder {
	b.touchProc(p)
	b.touchRegion(r)
	b.s.Ops = append(b.s.Ops, Op{Kind: OpStore, Proc: p, Region: r, Off: off, Size: size, Val: val})
	return b
}

// StoreNT writes one full line at r+off with a non-temporal store.
func (b *Builder) StoreNT(p, r int, off uint64, val byte) *Builder {
	b.touchProc(p)
	b.touchRegion(r)
	b.s.Ops = append(b.s.Ops, Op{Kind: OpStoreNT, Proc: p, Region: r, Off: off, Val: val})
	return b
}

// Fork forks p into slot child.
func (b *Builder) Fork(p, child int) *Builder {
	b.touchProc(p, child)
	b.s.Ops = append(b.s.Ops, Op{Kind: OpFork, Proc: p, NewProc: child})
	return b
}

// Exit terminates process p.
func (b *Builder) Exit(p int) *Builder {
	b.touchProc(p)
	b.s.Ops = append(b.s.Ops, Op{Kind: OpExit, Proc: p})
	return b
}

// Munmap unmaps bytes at r+off.
func (b *Builder) Munmap(p, r int, off, bytes uint64) *Builder {
	b.touchProc(p)
	b.touchRegion(r)
	b.s.Ops = append(b.s.Ops, Op{Kind: OpMunmap, Proc: p, Region: r, Off: off, Bytes: bytes})
	return b
}

// KSM merges the page at r+off across the given process slots.
func (b *Builder) KSM(r int, off uint64, procs ...int) *Builder {
	b.touchRegion(r)
	b.touchProc(procs...)
	b.s.Ops = append(b.s.Ops, Op{Kind: OpKSM, Region: r, Off: off, Procs: procs})
	return b
}

// Compute burns ns nanoseconds of CPU time in process p.
func (b *Builder) Compute(p int, ns uint64) *Builder {
	b.touchProc(p)
	b.s.Ops = append(b.s.Ops, Op{Kind: OpCompute, Proc: p, Ns: ns})
	return b
}

// MeasureProcess restricts the reported execution time to process slot p.
func (b *Builder) MeasureProcess(p int) *Builder {
	b.touchProc(p)
	b.s.MeasureProc = p
	return b
}

// BeginMeasure starts the measured phase.
func (b *Builder) BeginMeasure() *Builder {
	b.s.Ops = append(b.s.Ops, Op{Kind: OpBeginMeasure})
	return b
}

// EndMeasure ends the measured phase.
func (b *Builder) EndMeasure() *Builder {
	b.s.Ops = append(b.s.Ops, Op{Kind: OpEndMeasure})
	return b
}

// Script finalises and returns the script.
func (b *Builder) Script() Script { return b.s }
