// Package probe is the simulated-time observability plane threaded through
// the secure-NVM stack: a bounded ring buffer of typed events, fixed-bucket
// latency and distribution histograms, and periodic time-series samples of
// the machine's cache and device counters — all stamped with *simulated*
// nanoseconds, never host time.
//
// Like internal/faultinject, the plane is nil-receiver safe: the engine and
// kernel hold one unconditionally and every emission site costs a single
// branch-predictable nil compare when disabled (the disabled plane adds
// zero allocations to the hot path — gated by TestProbeDisabledAllocFree).
// Enabled, recording stays amortised-allocation-free: the ring is
// preallocated and histograms are fixed arrays; only the time-series slice
// grows.
//
// The simulation is single-threaded and deterministic, so for a fixed seed
// the recorded stream — and therefore both exporters (the sorted-key JSON
// summary and the Chrome trace-event / Perfetto JSON) — is byte-identical
// across runs. A Plane is owned by one machine and is not safe for
// concurrent use; concurrent grid cells each attach their own plane.
package probe

import "lelantus/internal/metrics"

// Kind classifies one recorded event.
type Kind uint8

const (
	// EvRead is an engine ReadLine: a 64 B demand/fill read, including any
	// redirect-chain walk (the event's Arg carries the chain-hop count).
	EvRead Kind = iota
	// EvWrite is an engine WriteLine (store write-back / non-temporal store).
	EvWrite
	// EvPageCopy .. EvPageInit are the MMIO CoW commands (paper Table II).
	EvPageCopy
	EvPagePhyc
	EvPageFree
	EvPageInit
	// EvCtrHit / EvCtrMiss are counter-cache lookups; EvCtrEvict is a dirty
	// victim write-back forced by a fill.
	EvCtrHit
	EvCtrMiss
	EvCtrEvict
	// EvCoWHit / EvCoWMiss are supplementary CoW-table cache lookups
	// (Lelantus-CoW).
	EvCoWHit
	EvCoWMiss
	// EvBMTVerify / EvBMTUpdate are Merkle-tree leaf verifications and
	// refreshes on the counter-block fetch/persist paths.
	EvBMTVerify
	EvBMTUpdate
	// EvOverflow is a minor-counter overflow re-encryption sweep; Arg is the
	// number of lines re-encrypted.
	EvOverflow
	// EvFault is a fault-injection decision that perturbed a persist
	// (drop/tear/crash); Arg is the faultinject.Point.
	EvFault
	// EvKernelFault is a kernel write-protect fault; Arg is 0 for
	// demand-zero, 1 for CoW copy, 2 for exclusive-owner reuse.
	EvKernelFault
	// EvRecovery is one pass of the post-crash metadata scrub; Addr is the
	// pass number (1-4), Arg the pass's item count. Every persistence
	// strategy's recovery work flows through these four spans: a strategy's
	// leaf-digest rebuild rides the pass-1 block scan (before the pass-2
	// tree rebuild) and the pass-3 span carries the chain-walk device reads.
	EvRecovery
	// EvPrefetchIssue .. EvPrefetchUnused are metadata-prefetch events
	// (Arg 0: counter block, 1: CoW-table entry). Issue spans the fill's
	// device time; Useful/Late mark the first demand touch of a prefetched
	// entry (after/before its fill completed); Unused marks a prefetched
	// entry evicted untouched. Only a prefetch-enabled engine emits them,
	// so prefetch-off exports stay byte-identical.
	EvPrefetchIssue
	EvPrefetchUseful
	EvPrefetchLate
	EvPrefetchUnused

	// NumKinds bounds the Kind space.
	NumKinds
)

var kindNames = [NumKinds]string{
	"read", "write",
	"page_copy", "page_phyc", "page_free", "page_init",
	"ctr-hit", "ctr-miss", "ctr-evict",
	"cow-hit", "cow-miss",
	"bmt-verify", "bmt-update",
	"overflow-sweep", "fault-inject", "kernel-fault", "recovery",
	"prefetch-issue", "prefetch-useful", "prefetch-late", "prefetch-unused",
}

func (k Kind) String() string {
	if k < NumKinds {
		return kindNames[k]
	}
	return "probe.Kind(?)"
}

// Kernel-fault Arg values (EvKernelFault).
const (
	KernZeroFault uint64 = iota
	KernCoWFault
	KernReuseFault
)

// Event is one recorded occurrence. Start/End are simulated nanoseconds;
// Addr and Arg are kind-specific (documented on the Kind constants).
type Event struct {
	Kind       Kind
	Start, End uint64
	Addr       uint64
	Arg        uint64
}

// Per-kind latency histograms are metrics.Hist — the shared log-linear
// layout (2^metrics.HistSubBits sub-buckets per octave, ~3% relative
// error) — so the summary exporter can extract p50/p90/p99/p999 per event
// class with bucket-resolution accuracy. The old pure-log₂ histograms
// could only bound a percentile within a factor of two.

// LinBuckets sizes the linear distribution histograms (chain depth, queue
// occupancy): bucket i counts value i exactly; the last bucket collects
// everything >= LinBuckets-1.
const LinBuckets = 17

// LinHist is a fixed-bucket linear histogram with an open top bucket.
type LinHist struct {
	Buckets [LinBuckets]uint64
	Count   uint64
	Sum     uint64
	Max     uint64
}

// Observe records one value.
func (h *LinHist) Observe(v uint64) {
	b := v
	if b >= LinBuckets-1 {
		b = LinBuckets - 1
	}
	h.Buckets[b]++
	h.Count++
	h.Sum += v
	if v > h.Max {
		h.Max = v
	}
}

// Sample is one periodic time-series snapshot of cumulative machine
// counters, taken every Config.SampleNs simulated nanoseconds. Rates over
// an interval are the deltas between consecutive samples; the exporters
// compute them so the stored record stays raw and deterministic.
type Sample struct {
	NowNs       uint64 `json:"nowNs"`
	CtrHits     uint64 `json:"ctrHits"`
	CtrMisses   uint64 `json:"ctrMisses"`
	CoWHits     uint64 `json:"cowHits"`
	CoWMisses   uint64 `json:"cowMisses"`
	L3Hits      uint64 `json:"l3Hits"`
	L3Misses    uint64 `json:"l3Misses"`
	DevReads    uint64 `json:"devReads"`
	DevWrites   uint64 `json:"devWrites"`
	ReadBusyNs  uint64 `json:"readBusyNs"`
	WriteBusyNs uint64 `json:"writeBusyNs"`
	BMTUpdates  uint64 `json:"bmtUpdates"`
	BMTVerifies uint64 `json:"bmtVerifies"`
	QueueOcc    int    `json:"queueOcc"`
}

// Config sizes a plane.
type Config struct {
	// RingCap bounds the event ring buffer (default 1<<16 events). When the
	// ring wraps, the oldest events are overwritten and counted as dropped;
	// histograms and totals always cover the full run.
	RingCap int
	// SampleNs is the simulated-time interval between time-series samples
	// (0 disables sampling).
	SampleNs uint64
}

// DefaultRingCap is the event-ring capacity when Config.RingCap is 0.
const DefaultRingCap = 1 << 16

// Plane records the event stream of one machine. The zero Plane is not
// usable; a nil *Plane is (every method no-ops), so emitters hold one
// unconditionally. Not safe for concurrent use, like the machine it rides.
type Plane struct {
	ring    []Event
	head    int // index of the oldest event once the ring has wrapped
	wrapped bool
	dropped uint64

	total [NumKinds]uint64
	lat   [NumKinds]metrics.Hist
	chain LinHist // redirect-chain hops per ReadLine
	occ   LinHist // write-queue occupancy observed at each WriteLine
	mshr  LinHist // MSHR registers busy at each overlapped-leg issue (MLP)
	bankQ LinHist // device bank-queue depth at each access issue (MLP)

	lastNs uint64 // high-water simulated time across recorded events

	sampleNs uint64
	nextAt   uint64
	samples  []Sample
	sampler  func(now uint64, s *Sample)
	occFn    func() int
}

// New creates an enabled plane.
func New(cfg Config) *Plane {
	capEv := cfg.RingCap
	if capEv <= 0 {
		capEv = DefaultRingCap
	}
	return &Plane{
		ring:     make([]Event, 0, capEv),
		sampleNs: cfg.SampleNs,
		nextAt:   cfg.SampleNs,
	}
}

// SetSampler installs the closure that fills periodic samples from the
// machine's counters (wired by memctrl.New, which can see the caches, the
// Merkle tree and the device behind the engine).
func (p *Plane) SetSampler(fn func(now uint64, s *Sample)) {
	if p == nil {
		return
	}
	p.sampler = fn
}

// SetQueueOcc installs the write-queue occupancy probe consulted on every
// recorded WriteLine (nil when no queue fronts the device).
func (p *Plane) SetQueueOcc(fn func() int) {
	if p == nil {
		return
	}
	p.occFn = fn
}

// Record stores one event: start/end are simulated ns, addr/arg are
// kind-specific. With a nil receiver this is a no-op.
func (p *Plane) Record(k Kind, start, end, addr, arg uint64) {
	if p == nil {
		return
	}
	if end < start {
		end = start
	}
	p.total[k]++
	p.lat[k].Observe(end - start)
	if end > p.lastNs {
		p.lastNs = end
	}
	switch k {
	case EvRead:
		p.chain.Observe(arg)
	case EvWrite:
		if p.occFn != nil {
			p.occ.Observe(uint64(p.occFn()))
		}
	}
	ev := Event{Kind: k, Start: start, End: end, Addr: addr, Arg: arg}
	if !p.wrapped && len(p.ring) < cap(p.ring) {
		p.ring = append(p.ring, ev)
	} else {
		if !p.wrapped {
			p.wrapped = true
		}
		p.ring[p.head] = ev
		p.head++
		if p.head == len(p.ring) {
			p.head = 0
		}
		p.dropped++
	}
	if p.sampleNs > 0 && p.sampler != nil && end >= p.nextAt {
		var s Sample
		s.NowNs = end
		p.sampler(end, &s)
		p.samples = append(p.samples, s)
		p.nextAt = (end/p.sampleNs + 1) * p.sampleNs
	}
}

// RecordAt stamps an event at the plane's high-water simulated time — used
// by sites that have no clock in hand (fault-injection decisions fire
// inside byte-level persist helpers that charge time elsewhere).
func (p *Plane) RecordAt(k Kind, addr, arg uint64) {
	if p == nil {
		return
	}
	p.Record(k, p.lastNs, p.lastNs, addr, arg)
}

// Enabled reports whether the plane records (false for nil).
func (p *Plane) Enabled() bool { return p != nil }

// LastNs returns the latest simulated timestamp recorded.
func (p *Plane) LastNs() uint64 {
	if p == nil {
		return 0
	}
	return p.lastNs
}

// Count returns how many events of one kind were recorded over the whole
// run (independent of ring wrapping).
func (p *Plane) Count(k Kind) uint64 {
	if p == nil {
		return 0
	}
	return p.total[k]
}

// Dropped returns how many events the bounded ring overwrote.
func (p *Plane) Dropped() uint64 {
	if p == nil {
		return 0
	}
	return p.dropped
}

// Events invokes fn over the retained ring contents in chronological
// (recording) order.
func (p *Plane) Events(fn func(Event)) {
	if p == nil {
		return
	}
	for i := p.head; i < len(p.ring); i++ {
		fn(p.ring[i])
	}
	if p.wrapped {
		for i := 0; i < p.head; i++ {
			fn(p.ring[i])
		}
	}
}

// EventsRetained returns how many events the ring currently holds.
func (p *Plane) EventsRetained() int {
	if p == nil {
		return 0
	}
	return len(p.ring)
}

// Samples returns the recorded time series (owned by the plane).
func (p *Plane) Samples() []Sample {
	if p == nil {
		return nil
	}
	return p.samples
}

// Latency returns the latency histogram of one event class.
func (p *Plane) Latency(k Kind) metrics.Hist {
	if p == nil {
		return metrics.Hist{}
	}
	return p.lat[k]
}

// ChainDepth returns the redirect-chain depth distribution (per ReadLine).
func (p *Plane) ChainDepth() LinHist {
	if p == nil {
		return LinHist{}
	}
	return p.chain
}

// QueueOccupancy returns the write-queue occupancy distribution (observed
// at each WriteLine; empty when no queue fronts the device).
func (p *Plane) QueueOccupancy() LinHist {
	if p == nil {
		return LinHist{}
	}
	return p.occ
}

// ObserveMSHROcc records how many MSHR registers were busy at the instant
// an overlapped leg was issued. Only the MLP path emits these; the
// distribution is omitted from exports when no value was ever observed, so
// MLP-off summaries stay byte-identical to pre-MLP ones.
func (p *Plane) ObserveMSHROcc(busy int) {
	if p == nil {
		return
	}
	p.mshr.Observe(uint64(busy))
}

// MSHROccupancy returns the MSHR-busy distribution (MLP runs only).
func (p *Plane) MSHROccupancy() LinHist {
	if p == nil {
		return LinHist{}
	}
	return p.mshr
}

// ObserveBankQueue records the depth of one device bank's pending queue at
// an access issue (installed on the device only for MLP runs).
func (p *Plane) ObserveBankQueue(depth int) {
	if p == nil {
		return
	}
	p.bankQ.Observe(uint64(depth))
}
