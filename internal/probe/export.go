package probe

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"lelantus/internal/metrics"
)

// BucketCount is one non-empty histogram bucket: N values fell in [Lo, Hi].
type BucketCount struct {
	Lo uint64 `json:"lo"`
	Hi uint64 `json:"hi"`
	N  uint64 `json:"n"`
}

// HistSummary is the exported shape of a histogram: only non-empty buckets,
// in ascending order, plus the aggregate moments.
type HistSummary struct {
	Count   uint64        `json:"count"`
	Sum     uint64        `json:"sum"`
	Max     uint64        `json:"max"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

func histSummary(h *metrics.Hist) HistSummary {
	s := HistSummary{Count: h.Count, Sum: h.Sum, Max: h.Max}
	h.Each(func(lo, hi, n uint64) {
		if hi > h.Max {
			hi = h.Max // the open clamp bucket: bound it by the observed max
		}
		s.Buckets = append(s.Buckets, BucketCount{Lo: lo, Hi: hi, N: n})
	})
	return s
}

func (h *LinHist) summary() HistSummary {
	s := HistSummary{Count: h.Count, Sum: h.Sum, Max: h.Max}
	for i, n := range h.Buckets {
		if n == 0 {
			continue
		}
		lo, hi := uint64(i), uint64(i)
		if i == LinBuckets-1 {
			hi = h.Max
		}
		s.Buckets = append(s.Buckets, BucketCount{Lo: lo, Hi: hi, N: n})
	}
	return s
}

// EventClassSummary aggregates one event kind over the run. The tail
// percentiles are extracted from the log-linear latency histogram
// (bucket-resolution accurate, ~3% relative error) and — like everything
// in this plane — are *simulated*-time quantities, so they are safe to
// record in deterministic reports.
type EventClassSummary struct {
	Kind    string      `json:"kind"`
	Count   uint64      `json:"count"`
	P50     uint64      `json:"p50"`
	P90     uint64      `json:"p90"`
	P99     uint64      `json:"p99"`
	P999    uint64      `json:"p999"`
	Latency HistSummary `json:"latency"`
}

// RunSummary is the deterministic export of a plane: fixed field order,
// fixed kind order, no maps — json.MarshalIndent output is byte-identical
// for identical runs.
type RunSummary struct {
	LastNs     uint64              `json:"lastNs"`
	Recorded   uint64              `json:"recorded"`
	Retained   int                 `json:"retained"`
	Dropped    uint64              `json:"dropped"`
	Events     []EventClassSummary `json:"events"`
	ChainDepth HistSummary         `json:"chainDepth"`
	QueueOcc   HistSummary         `json:"queueOcc"`
	// MSHROcc and BankQueue are populated only when the MLP path observed at
	// least one value; pointers + omitempty keep MLP-off exports
	// byte-identical to pre-MLP ones.
	MSHROcc   *HistSummary `json:"mshrOcc,omitempty"`
	BankQueue *HistSummary `json:"bankQueue,omitempty"`
	Samples   []Sample     `json:"samples,omitempty"`
}

// Summary aggregates the plane into its deterministic exported form. Event
// classes appear in Kind order; classes with zero events are omitted.
func (p *Plane) Summary() RunSummary {
	var s RunSummary
	if p == nil {
		return s
	}
	s.LastNs = p.lastNs
	s.Retained = len(p.ring)
	s.Dropped = p.dropped
	for k := Kind(0); k < NumKinds; k++ {
		s.Recorded += p.total[k]
		if p.total[k] == 0 {
			continue
		}
		h := p.lat[k]
		ps := h.Percentiles(50, 90, 99, 99.9)
		s.Events = append(s.Events, EventClassSummary{
			Kind:    k.String(),
			Count:   p.total[k],
			P50:     ps[0],
			P90:     ps[1],
			P99:     ps[2],
			P999:    ps[3],
			Latency: histSummary(&h),
		})
	}
	s.ChainDepth = p.chain.summary()
	s.QueueOcc = p.occ.summary()
	if p.mshr.Count > 0 {
		h := p.mshr.summary()
		s.MSHROcc = &h
	}
	if p.bankQ.Count > 0 {
		h := p.bankQ.summary()
		s.BankQueue = &h
	}
	s.Samples = p.samples
	return s
}

// MarshalJSONSummary renders the summary as indented JSON (byte-identical
// across identical runs).
func (p *Plane) MarshalJSONSummary() ([]byte, error) {
	return json.MarshalIndent(p.Summary(), "", "  ")
}

// String renders a human-readable table of the summary.
func (s RunSummary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "probe: %d events recorded, %d retained, %d dropped, last ts %d ns\n",
		s.Recorded, s.Retained, s.Dropped, s.LastNs)
	fmt.Fprintf(&b, "%-16s %12s %14s %10s %10s %10s %10s %10s\n",
		"class", "count", "total-ns", "mean-ns", "p50-ns", "p99-ns", "p999-ns", "max-ns")
	for _, e := range s.Events {
		mean := uint64(0)
		if e.Latency.Count > 0 {
			mean = e.Latency.Sum / e.Latency.Count
		}
		fmt.Fprintf(&b, "%-16s %12d %14d %10d %10d %10d %10d %10d\n",
			e.Kind, e.Count, e.Latency.Sum, mean, e.P50, e.P99, e.P999, e.Latency.Max)
	}
	writeDist := func(name string, h HistSummary) {
		if h.Count == 0 {
			return
		}
		fmt.Fprintf(&b, "%s (n=%d, max=%d):", name, h.Count, h.Max)
		for _, bk := range h.Buckets {
			if bk.Lo == bk.Hi {
				fmt.Fprintf(&b, " %d:%d", bk.Lo, bk.N)
			} else {
				fmt.Fprintf(&b, " %d-%d:%d", bk.Lo, bk.Hi, bk.N)
			}
		}
		b.WriteByte('\n')
	}
	writeDist("chain depth", s.ChainDepth)
	writeDist("queue occupancy", s.QueueOcc)
	if s.MSHROcc != nil {
		writeDist("mshr occupancy", *s.MSHROcc)
	}
	if s.BankQueue != nil {
		writeDist("bank queue depth", *s.BankQueue)
	}
	if len(s.Samples) > 0 {
		fmt.Fprintf(&b, "time series: %d samples, first %d ns, last %d ns\n",
			len(s.Samples), s.Samples[0].NowNs, s.Samples[len(s.Samples)-1].NowNs)
	}
	return b.String()
}

// Per-subsystem Perfetto tracks (tid values). One process (pid 1) with one
// named thread per subsystem keeps related spans on one row in the UI.
var tracks = [NumKinds]struct {
	tid  int
	name string
}{
	EvRead:           {2, "reads"},
	EvWrite:          {3, "writes"},
	EvPageCopy:       {1, "commands"},
	EvPagePhyc:       {1, "commands"},
	EvPageFree:       {1, "commands"},
	EvPageInit:       {1, "commands"},
	EvCtrHit:         {4, "ctr-cache"},
	EvCtrMiss:        {4, "ctr-cache"},
	EvCtrEvict:       {4, "ctr-cache"},
	EvCoWHit:         {5, "cow-cache"},
	EvCoWMiss:        {5, "cow-cache"},
	EvBMTVerify:      {6, "bmt"},
	EvBMTUpdate:      {6, "bmt"},
	EvOverflow:       {7, "overflow"},
	EvFault:          {8, "faults"},
	EvKernelFault:    {9, "kernel"},
	EvRecovery:       {10, "recovery"},
	EvPrefetchIssue:  {11, "prefetch"},
	EvPrefetchUseful: {11, "prefetch"},
	EvPrefetchLate:   {11, "prefetch"},
	EvPrefetchUnused: {11, "prefetch"},
}

// usec renders simulated ns as the microsecond floats Chrome trace events
// use, with fixed precision so output is deterministic.
func usec(ns uint64) string {
	return strconv.FormatFloat(float64(ns)/1000.0, 'f', 3, 64)
}

// WriteTrace emits the retained ring and time series as Chrome
// trace-event / Perfetto JSON ({"displayTimeUnit":"ns","traceEvents":[...]}).
// Simulated nanoseconds map directly onto the trace clock (ts/dur are in
// microseconds per the format). The file loads in ui.perfetto.dev and
// chrome://tracing. Output is deterministic: events are emitted in
// recording order under fixed-precision timestamp formatting.
func (p *Plane) WriteTrace(w io.Writer) error {
	bw := &traceWriter{w: w}
	bw.raw(`{"displayTimeUnit":"ns","traceEvents":[`)
	bw.raw(`{"ph":"M","pid":1,"name":"process_name","args":{"name":"lelantus-sim"}}`)
	seen := [16]bool{}
	for k := Kind(0); k < NumKinds; k++ {
		tr := tracks[k]
		if seen[tr.tid] {
			continue
		}
		seen[tr.tid] = true
		bw.raw(",")
		bw.raw(fmt.Sprintf(`{"ph":"M","pid":1,"tid":%d,"name":"thread_name","args":{"name":%q}}`, tr.tid, tr.name))
	}
	p.Events(func(ev Event) {
		tr := tracks[ev.Kind]
		bw.raw(",")
		bw.raw(fmt.Sprintf(`{"ph":"X","pid":1,"tid":%d,"name":%q,"ts":%s,"dur":%s,"args":{"addr":%d,"arg":%d}}`,
			tr.tid, ev.Kind.String(), usec(ev.Start), usec(ev.End-ev.Start), ev.Addr, ev.Arg))
	})
	var prev Sample
	for i, s := range p.Samples() {
		dt := s.NowNs - prev.NowNs
		if i == 0 {
			dt = s.NowNs
		}
		if dt == 0 {
			dt = 1
		}
		missRate := func(h, m uint64) string {
			tot := h + m
			if tot == 0 {
				return "0"
			}
			return strconv.FormatFloat(float64(m)/float64(tot), 'f', 4, 64)
		}
		frac := func(busy uint64) string {
			f := float64(busy) / float64(dt)
			if f > 1 {
				f = 1
			}
			return strconv.FormatFloat(f, 'f', 4, 64)
		}
		counter := func(name, value string) {
			bw.raw(",")
			bw.raw(fmt.Sprintf(`{"ph":"C","pid":1,"name":%q,"ts":%s,"args":{"value":%s}}`,
				name, usec(s.NowNs), value))
		}
		counter("ctr-miss-rate", missRate(s.CtrHits-prev.CtrHits, s.CtrMisses-prev.CtrMisses))
		counter("cow-miss-rate", missRate(s.CoWHits-prev.CoWHits, s.CoWMisses-prev.CoWMisses))
		counter("l3-miss-rate", missRate(s.L3Hits-prev.L3Hits, s.L3Misses-prev.L3Misses))
		counter("nvm-reads", strconv.FormatUint(s.DevReads-prev.DevReads, 10))
		counter("nvm-writes", strconv.FormatUint(s.DevWrites-prev.DevWrites, 10))
		counter("nvm-read-busy", frac(s.ReadBusyNs-prev.ReadBusyNs))
		counter("nvm-write-busy", frac(s.WriteBusyNs-prev.WriteBusyNs))
		counter("queue-occupancy", strconv.Itoa(s.QueueOcc))
		prev = s
	}
	bw.raw("]}\n")
	return bw.err
}

type traceWriter struct {
	w   io.Writer
	err error
}

func (t *traceWriter) raw(s string) {
	if t.err != nil {
		return
	}
	_, t.err = io.WriteString(t.w, s)
}

// ValidateTrace checks that data is a structurally sound Chrome trace-event
// JSON document as emitted by WriteTrace: valid JSON, displayTimeUnit "ns",
// at least one metadata and one complete event, and every complete event
// carrying name/ts/dur. Used by `make probe-smoke` and the smoke tests.
func ValidateTrace(data []byte) error {
	if !json.Valid(data) {
		return fmt.Errorf("probe trace: not valid JSON")
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Ph   string           `json:"ph"`
			Name string           `json:"name"`
			Ts   *float64         `json:"ts"`
			Dur  *float64         `json:"dur"`
			Pid  *int             `json:"pid"`
			Args *json.RawMessage `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("probe trace: %w", err)
	}
	if doc.DisplayTimeUnit != "ns" {
		return fmt.Errorf("probe trace: displayTimeUnit = %q, want \"ns\"", doc.DisplayTimeUnit)
	}
	var meta, complete int
	for i, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
		case "X":
			complete++
			if ev.Name == "" || ev.Ts == nil || ev.Dur == nil || ev.Pid == nil {
				return fmt.Errorf("probe trace: event %d: X event missing name/ts/dur/pid", i)
			}
		case "C":
			if ev.Name == "" || ev.Ts == nil || ev.Args == nil {
				return fmt.Errorf("probe trace: event %d: C event missing name/ts/args", i)
			}
		default:
			return fmt.Errorf("probe trace: event %d: unexpected phase %q", i, ev.Ph)
		}
	}
	if meta == 0 {
		return fmt.Errorf("probe trace: no metadata (M) events")
	}
	if complete == 0 {
		return fmt.Errorf("probe trace: no complete (X) events")
	}
	return nil
}
