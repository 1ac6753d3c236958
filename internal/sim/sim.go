// Package sim binds the kernel, cache hierarchy and secure memory
// controller into a runnable machine and executes workload scripts against
// it, producing the measurements the experiment harness reports.
package sim

import (
	"fmt"

	"lelantus/internal/core"
	"lelantus/internal/kernel"
	"lelantus/internal/mem"
	"lelantus/internal/memctrl"
	"lelantus/internal/probe"
	"lelantus/internal/workload"
)

// Config assembles a machine.
type Config struct {
	Mem    memctrl.Config
	Kernel kernel.Config
}

// DefaultConfig returns the paper's Table III machine for a scheme.
func DefaultConfig(scheme core.Scheme) Config {
	return Config{
		Mem:    memctrl.DefaultConfig(scheme),
		Kernel: kernel.DefaultConfig(),
	}
}

// Result is the measured phase of one run.
type Result struct {
	Workload string
	Scheme   core.Scheme
	PageMode string

	ExecNs uint64

	// Device-level NVM traffic (all regions).
	NVMReads, NVMWrites uint64

	// Engine-level event deltas for the measured phase.
	Engine core.Stats

	// Kernel events for the measured phase.
	Kernel kernel.Stats

	// CPU-visible request counts.
	CPUReads, CPUWrites uint64

	// Metadata-cache behaviour over the whole run.
	CtrMissRate  float64
	CoWMissRate  float64
	CtrOverflows uint64

	// Copy/initialisation share of all memory requests (Table V).
	CopyInitShare float64

	// TLBWalks counts page-table walks in the measured phase.
	TLBWalks uint64

	// MaxWear is the hottest line's write count (when wear tracking on).
	MaxWear uint32
}

// WriteReductionVs returns this result's NVM write count relative to a
// baseline run (lower is better; the paper reports e.g. 42.78%).
func (r Result) WriteReductionVs(base Result) float64 {
	if base.NVMWrites == 0 {
		return 0
	}
	return float64(r.NVMWrites) / float64(base.NVMWrites)
}

// SpeedupVs returns baseline execution time divided by this run's.
func (r Result) SpeedupVs(base Result) float64 {
	if r.ExecNs == 0 {
		return 0
	}
	return float64(base.ExecNs) / float64(r.ExecNs)
}

// Machine is one simulated system instance.
type Machine struct {
	cfg  Config
	Ctl  *memctrl.Controller
	Kern *kernel.Kernel

	now     uint64
	procs   []kernel.Pid
	regions []uint64
	procNs  []uint64 // simulated time attributed to each process slot

	// beginSnap/endSnap are the two statistics snapshots a run needs. They
	// live in the struct so their procNs scratch buffers (sized on first
	// use) are reused across snapshots and runs, keeping snapshot-taking on
	// the measured path allocation-free.
	beginSnap, endSnap snapshot
}

// NewMachine builds a machine from the configuration.
func NewMachine(cfg Config) (*Machine, error) {
	ctl, err := memctrl.New(cfg.Mem)
	if err != nil {
		return nil, err
	}
	k, err := kernel.New(cfg.Kernel, ctl)
	if err != nil {
		return nil, err
	}
	return &Machine{cfg: cfg, Ctl: ctl, Kern: k}, nil
}

// Now returns the machine clock in nanoseconds.
func (m *Machine) Now() uint64 { return m.now }

// Probe returns the machine's observability plane (nil when the machine was
// built without one; see memctrl.Config.Probe).
func (m *Machine) Probe() *probe.Plane { return m.Ctl.Probe() }

// Pid resolves a script process slot to its kernel pid.
func (m *Machine) Pid(slot int) kernel.Pid { return m.procs[slot] }

// Region resolves a script region slot to its base virtual address.
func (m *Machine) Region(slot int) uint64 { return m.regions[slot] }

type snapshot struct {
	nvmReads, nvmWrites  uint64
	engine               core.Stats
	kern                 kernel.Stats
	cpuReads, cpuWrites  uint64
	demand, copyT, initT uint64
	nowNs                uint64
	procNs               []uint64
	tlbWalks             uint64
}

// snapInto fills dst with the machine's current counters. dst's procNs
// slice is reused as scratch (copied into, never aliased with another
// snapshot), so taking a snapshot allocates nothing once the buffer is
// sized — gated by TestSnapshotAllocFree.
func (m *Machine) snapInto(dst *snapshot) {
	demand, copyT, initT := m.Ctl.TrafficByContext()
	procNs := append(dst.procNs[:0], m.procNs...)
	*dst = snapshot{
		nvmReads:  m.Ctl.Dev.Reads,
		nvmWrites: m.Ctl.Dev.Writes,
		engine:    m.Ctl.Engine.Stats,
		kern:      m.Kern.Stats,
		cpuReads:  m.Ctl.CPUReads,
		cpuWrites: m.Ctl.CPUWrites,
		demand:    demand,
		copyT:     copyT,
		initT:     initT,
		nowNs:     m.now,
		procNs:    procNs,
		tlbWalks:  m.Kern.TLBWalks(),
	}
}

// Run executes a script to completion and returns the measured-phase
// result (from the BeginMeasure op, or the whole run without one).
//
// Run treats the Script as read-only: no op field is ever written, and a
// KSM op's group (a slice of Script.Groups) is copied before use. One
// Script value may therefore be shared by many machines running
// concurrently — RunGrid and workload.Cache, the script intern cache the
// experiment harness and the grid share, rely on this.
func (m *Machine) Run(s workload.Script) (Result, error) {
	if err := s.Validate(); err != nil {
		return Result{}, fmt.Errorf("sim: %w", err)
	}
	m.procs = make([]kernel.Pid, s.Procs)
	m.regions = make([]uint64, s.Regions)
	m.procNs = make([]uint64, s.Procs)

	m.snapInto(&m.beginSnap)
	endTaken := false
	var err error
	for idx := range s.Ops {
		// Iterate by pointer: Op is a 48 B value struct and this loop runs
		// once per scripted operation.
		op := &s.Ops[idx]
		opStart := m.now
		switch op.Kind {
		case workload.OpSpawn:
			m.procs[op.Proc] = m.Kern.Spawn()
		case workload.OpMmap:
			var va uint64
			va, m.now, err = m.Kern.Mmap(m.now, m.procs[op.Proc], op.Bytes, op.Huge)
			if err == nil {
				m.regions[op.Region] = va
			}
		case workload.OpLoad, workload.OpStore:
			m.now, err = m.access(m.now, op)
		case workload.OpStoreNT:
			var line [mem.LineBytes]byte
			for i := range line {
				line[i] = op.Val
			}
			m.now, err = m.Kern.WriteLineNT(m.now, m.procs[op.Proc], m.regions[op.Region]+op.Off, &line)
		case workload.OpFork:
			var child kernel.Pid
			child, m.now, err = m.Kern.Fork(m.now, m.procs[op.Proc])
			if err == nil {
				m.procs[op.NewProc] = child
			}
		case workload.OpExit:
			m.now, err = m.Kern.Exit(m.now, m.procs[op.Proc])
		case workload.OpMunmap:
			m.now, err = m.Kern.Munmap(m.now, m.procs[op.Proc], m.regions[op.Region]+op.Off, op.Bytes)
		case workload.OpKSM:
			// The group belongs to the (possibly shared) Script; copy it
			// into a local slice so nothing handed downstream can alias
			// script-owned memory, even if a future kernel reorders refs.
			procs := append([]int(nil), s.Groups[op.Group]...)
			refs := make([]kernel.PageRef, len(procs))
			for i, ps := range procs {
				refs[i] = kernel.PageRef{PID: m.procs[ps], Vaddr: m.regions[op.Region] + op.Off}
			}
			_, m.now, err = m.Kern.KSMMerge(m.now, refs)
		case workload.OpCompute:
			m.now += op.Ns
		case workload.OpBeginMeasure:
			// Quiesce first: dirty cache and metadata state left over from
			// the setup phase would otherwise drain inside the measured
			// window of whichever scheme did not happen to flush it
			// earlier (e.g. Lelantus flushes at fork, Baseline never does).
			if err = m.Ctl.Drain(m.now); err == nil {
				m.snapInto(&m.beginSnap)
			}
		case workload.OpEndMeasure:
			if err = m.Ctl.Drain(m.now); err == nil {
				m.snapInto(&m.endSnap)
				endTaken = true
			}
		default:
			err = fmt.Errorf("sim: unknown op kind %d", op.Kind)
		}
		if err != nil {
			return Result{}, fmt.Errorf("sim: op %d (%s): %w", idx, s.OpString(idx), err)
		}
		switch op.Kind {
		case workload.OpBeginMeasure, workload.OpEndMeasure:
			// Measurement markers consume no process time.
		case workload.OpKSM:
			// KSM ops carry their participants in a group and leave
			// op.Proc at its zero value; billing slot 0 would silently
			// charge an uninvolved process. Every participant waits for
			// the merge, so each is charged the elapsed time.
			for _, ps := range s.Groups[op.Group] {
				m.procNs[ps] += m.now - opStart
			}
		default:
			m.procNs[op.Proc] += m.now - opStart
		}
	}
	if err := m.Ctl.Drain(m.now); err != nil {
		return Result{}, fmt.Errorf("sim: drain: %w", err)
	}
	if !endTaken {
		m.snapInto(&m.endSnap)
	}
	begin, end := &m.beginSnap, &m.endSnap

	execNs := end.nowNs - begin.nowNs
	if s.MeasureProc >= 0 && s.MeasureProc < len(end.procNs) {
		execNs = end.procNs[s.MeasureProc]
		if s.MeasureProc < len(begin.procNs) {
			execNs -= begin.procNs[s.MeasureProc]
		}
	}
	res := Result{
		Workload:     s.Name,
		Scheme:       m.cfg.Mem.Core.Scheme,
		ExecNs:       execNs,
		NVMReads:     end.nvmReads - begin.nvmReads,
		NVMWrites:    end.nvmWrites - begin.nvmWrites,
		Engine:       end.engine.Sub(begin.engine),
		Kernel:       end.kern.Sub(begin.kern),
		CPUReads:     end.cpuReads - begin.cpuReads,
		CPUWrites:    end.cpuWrites - begin.cpuWrites,
		CtrMissRate:  m.Ctl.Engine.CtrCache.MissRate(),
		CoWMissRate:  m.Ctl.Engine.CoWCache.MissRate(),
		CtrOverflows: end.engine.Overflows - begin.engine.Overflows,
		TLBWalks:     end.tlbWalks - begin.tlbWalks,
	}
	dd := end.demand - begin.demand
	dc := end.copyT - begin.copyT
	di := end.initT - begin.initT
	if tot := dd + dc + di; tot > 0 {
		res.CopyInitShare = float64(dc+di) / float64(tot)
	}
	if w, _ := m.Ctl.Dev.MaxWear(); w > 0 {
		res.MaxWear = w
	}
	return res, nil
}

// access issues one scripted OpLoad/OpStore. Accesses larger than a 64 B
// line — or straddling a line boundary — are split into per-line kernel
// requests, so every scripted byte is transferred (no silent truncation).
// A non-positive size degenerates to a single byte.
func (m *Machine) access(now uint64, op *workload.Op) (uint64, error) {
	size := int(op.Size)
	if size <= 0 {
		size = 1
	}
	pid := m.procs[op.Proc]
	va := m.regions[op.Region] + op.Off
	var buf [mem.LineBytes]byte
	var err error
	for size > 0 {
		chunk := mem.LineBytes - int(va&(mem.LineBytes-1))
		if chunk > size {
			chunk = size
		}
		piece := buf[:chunk]
		if op.Kind == workload.OpStore {
			for i := range piece {
				piece[i] = op.Val
			}
			now, err = m.Kern.Write(now, pid, va, piece)
		} else {
			now, err = m.Kern.Read(now, pid, va, piece)
		}
		if err != nil {
			return now, err
		}
		va += uint64(chunk)
		size -= chunk
	}
	return now, nil
}

// RunOne builds a fresh default machine for the scheme and runs the script
// on it (one-shot convenience used throughout the experiments).
func RunOne(scheme core.Scheme, s workload.Script) (Result, error) {
	return RunWith(DefaultConfig(scheme), s)
}

// RunWith builds a fresh machine from cfg and runs the script on it.
func RunWith(cfg Config, s workload.Script) (Result, error) {
	m, err := NewMachine(cfg)
	if err != nil {
		return Result{}, err
	}
	return m.Run(s)
}
