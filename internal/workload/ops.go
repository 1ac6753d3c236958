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

import (
	"fmt"
	"math"
)

// Kind enumerates script operations.
type Kind uint8

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
	// OpKSM merges the page at Region+Off across the process slots of
	// Script.Groups[Group].
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

// Op is one scripted operation. It is 48 B and holds no pointer: a fig9
// pass keeps millions of ops live, and a pointer-free slice is neither
// scanned by the garbage collector nor written through barriers. The one
// variable-length operand, a KSM op's participant list, lives in the
// script's group table.
type Op struct {
	Kind    Kind
	Val     byte
	Huge    bool
	Proc    int32
	NewProc int32
	Region  int32
	Size    int32
	Group   int32 // OpKSM: index into Script.Groups
	Off     uint64
	Bytes   uint64
	Ns      uint64 // OpCompute: busy time
}

// String renders the op on its own. A KSM op's members live in the
// script's group table, so only Script.OpString renders one.
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
// and sim.Machine.Run copies a KSM op's group before handing it
// downstream. One Script value may therefore be shared read-only by any
// number of concurrently running machines — the experiment harness
// interns each generated script and runs it on every scheme's grid cell.
type Script struct {
	Name string
	Ops  []Op
	// Groups holds the participant process slots of the KSM ops, which
	// refer to an entry by Op.Group.
	Groups [][]int
	// Procs and Regions are the numbers of slots the script uses.
	Procs, Regions int
	// MeasureProc, when >= 0, restricts the reported execution time to the
	// simulated time consumed by that process slot's operations (the
	// paper's Redis experiment measures the parent's insert latency while
	// the bgsave child runs). -1 measures wall-clock machine time.
	MeasureProc int
}

// OpString renders op i. A KSM op lists its group's members, so the text
// does not depend on how the group table is laid out; one whose group
// index is out of range prints the index.
func (s *Script) OpString(i int) string {
	o := &s.Ops[i]
	switch {
	case o.Kind != OpKSM:
		return o.String()
	case o.Group < 0 || int(o.Group) >= len(s.Groups):
		return fmt.Sprintf("ksm r%d+%#x group=%d", o.Region, o.Off, o.Group)
	}
	return fmt.Sprintf("ksm r%d+%#x procs=%v", o.Region, o.Off, s.Groups[o.Group])
}

// maxSlots caps a script's process and region slot counts: the simulator
// allocates per-slot tables up front, so a count decoded from a corrupt
// trace must not size them.
const maxSlots = 1 << 16

// Validate rejects a script whose slot indexing would run out of range
// when executed: slot counts outside [0, maxSlots], a KSM op's group index
// outside the group table, and a Proc, NewProc, Region or group member
// outside its slot table for an op that reads it. It also rejects a load
// or store whose Size is negative, which is how Builder marks a size
// outside [0, MaxInt32]. Unknown op kinds pass; the simulator rejects them
// when it reaches them.
func (s Script) Validate() error {
	if s.Procs < 0 || s.Procs > maxSlots || s.Regions < 0 || s.Regions > maxSlots {
		return fmt.Errorf("workload: %d procs, %d regions (want 0..%d each)", s.Procs, s.Regions, maxSlots)
	}
	for i := range s.Ops {
		o := &s.Ops[i]
		procs, region := []int{int(o.Proc)}, true
		switch o.Kind {
		case OpSpawn, OpExit, OpCompute:
			region = false
		case OpFork:
			procs, region = []int{int(o.Proc), int(o.NewProc)}, false
		case OpLoad, OpStore:
			if o.Size < 0 {
				return fmt.Errorf("workload: op %d (%s): size out of range [0,%d]", i, o, math.MaxInt32)
			}
		case OpMmap, OpStoreNT, OpMunmap:
		case OpKSM:
			if o.Group < 0 || int(o.Group) >= len(s.Groups) {
				return fmt.Errorf("workload: op %d (%s): group %d out of range [0,%d)", i, s.OpString(i), o.Group, len(s.Groups))
			}
			procs = s.Groups[o.Group]
		default:
			continue
		}
		for _, p := range procs {
			if p < 0 || p >= s.Procs {
				return fmt.Errorf("workload: op %d (%s): proc slot %d out of range [0,%d)", i, s.OpString(i), p, s.Procs)
			}
		}
		if region && (o.Region < 0 || int(o.Region) >= s.Regions) {
			return fmt.Errorf("workload: op %d (%s): region slot %d out of range [0,%d)", i, s.OpString(i), o.Region, s.Regions)
		}
	}
	return nil
}

// maxChunk caps a builder chunk at 64 Ki ops (3 MiB).
const maxChunk = 64 << 10

// Builder assembles scripts with slot bookkeeping. Ops go into chunks that
// start small, double up to maxChunk and are never regrown, so no op is
// copied while the script is built; Script copies them once into a slice
// of exactly the final length.
type Builder struct {
	s      Script // header and group table; s.Ops is set by Script
	chunks [][]Op // filled chunks, in order
	cur    []Op   // the chunk being filled
}

// NewBuilder starts a script with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{s: Script{Name: name, MeasureProc: -1}}
}

// add appends one op, opening a new chunk when the current one is full.
func (b *Builder) add(op Op) {
	if len(b.cur) == cap(b.cur) {
		next := min(max(2*cap(b.cur), 64), maxChunk)
		if len(b.cur) > 0 {
			b.chunks = append(b.chunks, b.cur)
		}
		b.cur = make([]Op, 0, next)
	}
	b.cur = append(b.cur, op)
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
	b.add(Op{Kind: OpSpawn, Proc: int32(p)})
	return b
}

// Mmap maps bytes into process p, binding region slot r.
func (b *Builder) Mmap(p, r int, bytes uint64, huge bool) *Builder {
	b.touchProc(p)
	b.touchRegion(r)
	b.add(Op{Kind: OpMmap, Proc: int32(p), Region: int32(r), Bytes: bytes, Huge: huge})
	return b
}

// accessSize narrows an access size to Op.Size. A size outside
// [0, MaxInt32] becomes -1, which Validate rejects, rather than wrapping
// to a different size.
func accessSize(size int) int32 {
	if size < 0 || size > math.MaxInt32 {
		return -1
	}
	return int32(size)
}

// Load reads size bytes at r+off in process p. A size outside
// [0, MaxInt32] makes the script fail Validate.
func (b *Builder) Load(p, r int, off uint64, size int) *Builder {
	b.touchProc(p)
	b.touchRegion(r)
	b.add(Op{Kind: OpLoad, Proc: int32(p), Region: int32(r), Off: off, Size: accessSize(size)})
	return b
}

// Store writes size bytes of val at r+off in process p. A size outside
// [0, MaxInt32] makes the script fail Validate.
func (b *Builder) Store(p, r int, off uint64, size int, val byte) *Builder {
	b.touchProc(p)
	b.touchRegion(r)
	b.add(Op{Kind: OpStore, Proc: int32(p), Region: int32(r), Off: off, Size: accessSize(size), Val: val})
	return b
}

// StoreNT writes one full line at r+off with a non-temporal store.
func (b *Builder) StoreNT(p, r int, off uint64, val byte) *Builder {
	b.touchProc(p)
	b.touchRegion(r)
	b.add(Op{Kind: OpStoreNT, Proc: int32(p), Region: int32(r), Off: off, Val: val})
	return b
}

// Fork forks p into slot child.
func (b *Builder) Fork(p, child int) *Builder {
	b.touchProc(p, child)
	b.add(Op{Kind: OpFork, Proc: int32(p), NewProc: int32(child)})
	return b
}

// Exit terminates process p.
func (b *Builder) Exit(p int) *Builder {
	b.touchProc(p)
	b.add(Op{Kind: OpExit, Proc: int32(p)})
	return b
}

// Munmap unmaps bytes at r+off.
func (b *Builder) Munmap(p, r int, off, bytes uint64) *Builder {
	b.touchProc(p)
	b.touchRegion(r)
	b.add(Op{Kind: OpMunmap, Proc: int32(p), Region: int32(r), Off: off, Bytes: bytes})
	return b
}

// KSM merges the page at r+off across the given process slots, which
// become a new entry of the script's group table.
func (b *Builder) KSM(r int, off uint64, procs ...int) *Builder {
	b.touchRegion(r)
	b.touchProc(procs...)
	b.s.Groups = append(b.s.Groups, append([]int(nil), procs...))
	b.add(Op{Kind: OpKSM, Region: int32(r), Off: off, Group: int32(len(b.s.Groups) - 1)})
	return b
}

// Compute burns ns nanoseconds of CPU time in process p.
func (b *Builder) Compute(p int, ns uint64) *Builder {
	b.touchProc(p)
	b.add(Op{Kind: OpCompute, Proc: int32(p), Ns: ns})
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
	b.add(Op{Kind: OpBeginMeasure})
	return b
}

// EndMeasure ends the measured phase.
func (b *Builder) EndMeasure() *Builder {
	b.add(Op{Kind: OpEndMeasure})
	return b
}

// Script finalises and returns the script, its ops copied once into a
// slice of exactly their number.
func (b *Builder) Script() Script {
	s := b.s
	n := len(b.cur)
	for _, c := range b.chunks {
		n += len(c)
	}
	s.Ops = make([]Op, 0, n)
	for _, c := range b.chunks {
		s.Ops = append(s.Ops, c...)
	}
	s.Ops = append(s.Ops, b.cur...)
	return s
}
