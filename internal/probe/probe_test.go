package probe

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestNilPlaneSafe pins the enabling contract: every method of a nil *Plane
// is a no-op, so emitters hold one unconditionally.
func TestNilPlaneSafe(t *testing.T) {
	var p *Plane
	p.Record(EvRead, 0, 10, 1, 2)
	p.RecordAt(EvFault, 0, 1)
	p.SetSampler(func(uint64, *Sample) {})
	p.SetQueueOcc(func() int { return 0 })
	if p.LastNs() != 0 || p.Count(EvRead) != 0 || p.EventsRetained() != 0 {
		t.Error("nil plane reports non-zero state")
	}
	if p.Samples() != nil {
		t.Error("nil plane returns samples")
	}
	p.Events(func(Event) { t.Error("nil plane iterated an event") })
	if h := p.Latency(EvRead); h.Count != 0 {
		t.Error("nil plane has latency observations")
	}
	if s := p.Summary(); s.Recorded != 0 || len(s.Events) != 0 {
		t.Error("nil plane summary not empty")
	}
	var buf bytes.Buffer
	if err := p.WriteTrace(&buf); err != nil {
		t.Fatalf("nil WriteTrace: %v", err)
	}
	if err := ValidateTrace(buf.Bytes()); err == nil {
		t.Error("empty trace validated (no X events should fail)")
	}
}

// TestRingWrap checks the bounded ring overwrites oldest-first, counts
// drops, and keeps totals/histograms covering the whole run.
func TestRingWrap(t *testing.T) {
	p := New(Config{RingCap: 8})
	for i := uint64(0); i < 20; i++ {
		p.Record(EvWrite, i, i+1, i, 0)
	}
	if got := p.EventsRetained(); got != 8 {
		t.Errorf("retained = %d, want 8", got)
	}
	if got := p.Summary().Dropped; got != 12 {
		t.Errorf("dropped = %d, want 12", got)
	}
	if got := p.Count(EvWrite); got != 20 {
		t.Errorf("total = %d, want 20 (totals must survive wrapping)", got)
	}
	var starts []uint64
	p.Events(func(ev Event) { starts = append(starts, ev.Start) })
	for i, s := range starts {
		if want := uint64(12 + i); s != want {
			t.Fatalf("event %d start = %d, want %d (chronological order after wrap)", i, s, want)
		}
	}
	if p.LastNs() != 20 {
		t.Errorf("lastNs = %d, want 20", p.LastNs())
	}
}

// TestLatencyPercentilesInSummary pins the tail-latency surfacing: per-kind
// latencies land in log-linear histograms and the summary exposes
// p50/p90/p99/p999 per event class, bucket-resolution accurate.
func TestLatencyPercentilesInSummary(t *testing.T) {
	p := New(Config{})
	// 99 reads at 100 ns, one straggler at 10 µs: p50 stays in the body's
	// bucket, p99/p999 catch the tail.
	for i := uint64(0); i < 99; i++ {
		p.Record(EvRead, i*200, i*200+100, 0, 0)
	}
	p.Record(EvRead, 20000, 30000, 0, 0)
	h := p.Latency(EvRead)
	if h.Count != 100 || h.Max != 10000 {
		t.Fatalf("latency count=%d max=%d", h.Count, h.Max)
	}
	s := p.Summary()
	if len(s.Events) != 1 {
		t.Fatalf("%d event classes, want 1", len(s.Events))
	}
	e := s.Events[0]
	// Log-linear resolution: ~3% relative error above the exact region.
	if e.P50 < 100 || e.P50 > 104 {
		t.Errorf("p50 = %d, want ~100", e.P50)
	}
	if e.P99 < 100 || e.P99 > 104 {
		t.Errorf("p99 = %d, want ~100 (straggler is the 100th value)", e.P99)
	}
	if e.P999 != 10000 {
		t.Errorf("p999 = %d, want the 10000 ns straggler (clamped to max)", e.P999)
	}
	if !strings.Contains(s.String(), "p999-ns") {
		t.Error("text summary missing percentile columns")
	}
}

func TestLinHistBuckets(t *testing.T) {
	var h LinHist
	for _, v := range []uint64{0, 1, 1, 15, 16, 100} {
		h.Observe(v)
	}
	if h.Buckets[0] != 1 || h.Buckets[1] != 2 || h.Buckets[15] != 1 {
		t.Errorf("exact buckets wrong: %v", h.Buckets)
	}
	if h.Buckets[LinBuckets-1] != 2 {
		t.Errorf("open top bucket = %d, want 2 (16 and 100)", h.Buckets[LinBuckets-1])
	}
	if h.Max != 100 || h.Count != 6 {
		t.Errorf("count=%d max=%d", h.Count, h.Max)
	}
}

// TestChainAndOccObservation checks the kind-triggered distributions: EvRead
// feeds chain depth from Arg, EvWrite samples the queue-occupancy probe.
func TestChainAndOccObservation(t *testing.T) {
	p := New(Config{})
	occ := 0
	p.SetQueueOcc(func() int { return occ })
	p.Record(EvRead, 0, 1, 0, 3)
	p.Record(EvRead, 1, 2, 0, 0)
	occ = 5
	p.Record(EvWrite, 2, 3, 0, 0)
	ch := p.chain
	if ch.Count != 2 || ch.Max != 3 || ch.Buckets[3] != 1 || ch.Buckets[0] != 1 {
		t.Errorf("chain depth = %+v", ch)
	}
	qo := p.occ
	if qo.Count != 1 || qo.Buckets[5] != 1 {
		t.Errorf("queue occupancy = %+v", qo)
	}
}

func TestSamplerFires(t *testing.T) {
	p := New(Config{SampleNs: 100})
	calls := 0
	p.SetSampler(func(now uint64, s *Sample) {
		calls++
		s.DevReads = uint64(calls)
	})
	for _, end := range []uint64{50, 120, 130, 250} {
		p.Record(EvWrite, end-1, end, 0, 0)
	}
	ss := p.Samples()
	if len(ss) != 2 || calls != 2 {
		t.Fatalf("samples = %d (calls %d), want 2", len(ss), calls)
	}
	if ss[0].NowNs != 120 || ss[1].NowNs != 250 {
		t.Errorf("sample times = %d, %d, want 120, 250", ss[0].NowNs, ss[1].NowNs)
	}
	if ss[0].DevReads != 1 || ss[1].DevReads != 2 {
		t.Errorf("sampler-filled fields lost: %+v", ss)
	}
}

func TestRecordClampsBackwardEnd(t *testing.T) {
	p := New(Config{})
	p.Record(EvRead, 10, 5, 0, 0) // end < start: clamped to zero duration
	if h := p.Latency(EvRead); h.Max != 0 || h.Count != 1 {
		t.Errorf("latency = %+v, want one zero-duration observation", h)
	}
	if p.LastNs() != 10 {
		t.Errorf("lastNs = %d, want 10", p.LastNs())
	}
}

func fillPlane(p *Plane) {
	p.SetSampler(func(now uint64, s *Sample) { s.DevWrites = now })
	p.Record(EvRead, 0, 60, 64, 1)
	p.Record(EvWrite, 60, 200, 128, 0)
	p.Record(EvPageCopy, 200, 230, 2, 1)
	p.Record(EvCtrMiss, 230, 300, 2, 0)
	p.RecordAt(EvFault, 0, 3)
	p.Record(EvRecovery, 300, 5000, 1, 42)
}

// TestSummaryDeterministic pins the golden-test contract: identical record
// streams marshal to byte-identical JSON.
func TestSummaryDeterministic(t *testing.T) {
	a, b := New(Config{SampleNs: 100}), New(Config{SampleNs: 100})
	fillPlane(a)
	fillPlane(b)
	ja, err := a.MarshalJSONSummary()
	if err != nil {
		t.Fatal(err)
	}
	jb, err := b.MarshalJSONSummary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jb) {
		t.Error("identical planes marshalled differently")
	}
	// Event classes must come out in Kind order with zero classes omitted.
	s := a.Summary()
	if len(s.Events) != 6 {
		t.Fatalf("got %d event classes, want 6", len(s.Events))
	}
	if s.Events[0].Kind != "read" || s.Events[len(s.Events)-1].Kind != "recovery" {
		t.Errorf("kind order wrong: first %q last %q", s.Events[0].Kind, s.Events[len(s.Events)-1].Kind)
	}
	if s.Recorded != 6 {
		t.Errorf("recorded = %d, want 6", s.Recorded)
	}
	if !strings.Contains(s.String(), "chain depth") {
		t.Error("text summary missing chain-depth distribution")
	}
}

func TestWriteTraceValidates(t *testing.T) {
	p := New(Config{SampleNs: 100})
	fillPlane(p)
	var buf bytes.Buffer
	if err := p.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if err := ValidateTrace(data); err != nil {
		t.Fatalf("emitted trace does not validate: %v", err)
	}
	// Byte-identical across re-exports of the same plane.
	var buf2 bytes.Buffer
	if err := p.WriteTrace(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, buf2.Bytes()) {
		t.Error("re-export differs")
	}
	// The document must carry the metadata tracks and counter samples.
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var m, x, c int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			m++
		case "X":
			x++
		case "C":
			c++
		}
	}
	if m < 2 || x != 6 || c == 0 {
		t.Errorf("trace shape: %d M, %d X, %d C events", m, x, c)
	}
}

func TestValidateTraceRejects(t *testing.T) {
	cases := map[string]string{
		"invalid JSON":      `{"displayTimeUnit":"ns","traceEvents":[`,
		"wrong time unit":   `{"displayTimeUnit":"ms","traceEvents":[{"ph":"M","pid":1,"name":"process_name"},{"ph":"X","pid":1,"name":"read","ts":0,"dur":1}]}`,
		"no complete event": `{"displayTimeUnit":"ns","traceEvents":[{"ph":"M","pid":1,"name":"process_name"}]}`,
		"X missing dur":     `{"displayTimeUnit":"ns","traceEvents":[{"ph":"M","pid":1,"name":"process_name"},{"ph":"X","pid":1,"name":"read","ts":0}]}`,
		"unknown phase":     `{"displayTimeUnit":"ns","traceEvents":[{"ph":"B","pid":1,"name":"read","ts":0}]}`,
	}
	for name, doc := range cases {
		if err := ValidateTrace([]byte(doc)); err == nil {
			t.Errorf("%s: validated, want error", name)
		}
	}
}

func TestKindNames(t *testing.T) {
	seen := map[string]bool{}
	for k := Kind(0); k < NumKinds; k++ {
		n := k.String()
		if n == "" || strings.Contains(n, "?") {
			t.Errorf("kind %d has no name", k)
		}
		if seen[n] {
			t.Errorf("kind name %q duplicated", n)
		}
		seen[n] = true
	}
	if NumKinds.String() == "read" {
		t.Error("out-of-range kind resolved to a real name")
	}
}
