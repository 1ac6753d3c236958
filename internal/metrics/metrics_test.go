package metrics

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// TestTelemetryDisabledAllocFree pins the disabled plane's zero-overhead
// contract: a nil registry hands out nil instruments, and hot-path
// counter/gauge/histogram updates through them cost zero allocations.
func TestTelemetryDisabledAllocFree(t *testing.T) {
	var reg *Registry
	c := reg.Counter("x_total", "")
	g := reg.Gauge("x_depth", "")
	h := reg.Histogram("x_ns", "")
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry handed out live instruments")
	}
	var i uint64
	avg := testing.AllocsPerRun(1000, func() {
		i++
		c.Inc()
		c.Add(i)
		g.Set(int64(i))
		g.Add(-1)
		h.Observe(i)
	})
	if avg != 0 {
		t.Errorf("disabled telemetry: %.2f allocs/op on instrument updates, want 0", avg)
	}
	if c.Value() != 0 || g.Value() != 0 || h.Snapshot().Count != 0 {
		t.Error("nil instruments report non-zero state")
	}
	if reg.Snapshot() != nil {
		t.Error("nil registry reports enabled state")
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("nil registry exposition: err=%v len=%d", err, buf.Len())
	}
}

// TestEnabledUpdatesAllocFree: the *enabled* hot path must not allocate
// either — instruments are fixed arrays and atomics; only creation and
// snapshots allocate.
func TestEnabledUpdatesAllocFree(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("x_total", "help")
	g := reg.Gauge("x_depth", "help")
	h := reg.Histogram("x_ns", "help")
	var i uint64
	avg := testing.AllocsPerRun(1000, func() {
		i++
		c.Inc()
		g.Set(int64(i))
		h.Observe(i * 37)
	})
	if avg != 0 {
		t.Errorf("enabled telemetry: %.2f allocs/op on instrument updates, want 0", avg)
	}
}

func TestRegistryIdempotentAndConflicts(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("same", "h")
	b := reg.Counter("same", "h2")
	if a != b {
		t.Error("re-registering a name returned a different counter")
	}
	a.Add(3)
	// Kind conflict: detached instrument, conflict surfaced as a counter.
	gg := reg.Gauge("same", "")
	gg.Set(9) // must not crash or affect the counter
	if a.Value() != 3 {
		t.Error("conflict overwrote the original instrument")
	}
	snap := reg.Snapshot()
	found := false
	for _, m := range snap {
		if m.Name == conflictCounter && m.Counter == 1 {
			found = true
		}
		if m.Name == "same" && m.Type != "counter" {
			t.Errorf("name %q exported as %s, want the original counter", m.Name, m.Type)
		}
	}
	if !found {
		t.Errorf("registration conflict not counted in %s", conflictCounter)
	}
}

func TestSnapshotSortedAndTyped(t *testing.T) {
	reg := NewRegistry()
	reg.Gauge("zz_depth", "").Set(-4)
	reg.Counter("aa_total", "").Add(7)
	hi := reg.Histogram("mm_ns", "")
	for v := uint64(1); v <= 100; v++ {
		hi.Observe(v)
	}
	snap := reg.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("%d metrics, want 3", len(snap))
	}
	if snap[0].Name != "aa_total" || snap[1].Name != "mm_ns" || snap[2].Name != "zz_depth" {
		t.Errorf("snapshot not sorted: %s %s %s", snap[0].Name, snap[1].Name, snap[2].Name)
	}
	if snap[0].Counter != 7 || snap[2].Gauge != -4 {
		t.Error("counter/gauge values lost in snapshot")
	}
	m := snap[1]
	if m.Count != 100 || m.Max != 100 || m.P50 == 0 || m.P999 < m.P50 {
		t.Errorf("histogram snapshot %+v", m)
	}
	// Percentiles of 1..100: p50 in [50, ~52], p99 in [99, ~103].
	if m.P50 < 50 || m.P50 > 53 || m.P99 < 99 || m.P99 > 100 {
		t.Errorf("p50=%d p99=%d out of expected bucket-resolution range", m.P50, m.P99)
	}
}

func TestPrometheusExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("cells_finished_total", "finished cells").Add(12)
	reg.Gauge("queue_depth", "pending cells").Set(5)
	h := reg.Histogram("cell_wall_ns", "per-cell wall time")
	for _, v := range []uint64{10, 20, 20, 1 << 20} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE cells_finished_total counter",
		"cells_finished_total 12",
		"# TYPE queue_depth gauge",
		"queue_depth 5",
		"# TYPE cell_wall_ns histogram",
		`cell_wall_ns_bucket{le="+Inf"} 4`,
		"cell_wall_ns_sum 1048626",
		"cell_wall_ns_count 4",
		"cell_wall_ns_max 1048576",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	if err := ValidatePrometheus(buf.Bytes()); err != nil {
		t.Errorf("own exposition does not validate: %v", err)
	}
	// Deterministic: a second render of the same state is byte-identical.
	var buf2 bytes.Buffer
	if err := reg.WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("re-render differs")
	}
}

func TestValidatePrometheusRejects(t *testing.T) {
	cases := map[string]string{
		"no samples":     "# HELP x y\n",
		"no value":       "lonely_name\n",
		"bad value":      "x zap\n",
		"not cumulative": "x_bucket{le=\"1\"} 5\nx_bucket{le=\"2\"} 3\nx_bucket{le=\"+Inf\"} 5\n",
		"no +Inf":        "x_bucket{le=\"1\"} 5\nx_sum 5\nx_count 5\n",
	}
	for name, doc := range cases {
		if err := ValidatePrometheus([]byte(doc)); err == nil {
			t.Errorf("%s: validated, want error", name)
		}
	}
}

func TestJSONExport(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a_total", "").Add(2)
	reg.Histogram("b_ns", "").Observe(99)
	data, err := reg.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var out []map[string]any
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("JSON export invalid: %v", err)
	}
	if len(out) != 2 || out[0]["name"] != "a_total" || out[1]["type"] != "histogram" {
		t.Errorf("JSON export shape: %s", data)
	}
}

// TestConcurrentUpdates drives every instrument kind from many goroutines;
// run under -race by the Makefile race pass.
func TestConcurrentUpdates(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := reg.Counter("c_total", "")
			g := reg.Gauge("g_depth", "")
			h := reg.Histogram("h_ns", "")
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(uint64(w*1000 + i))
				if i%100 == 0 {
					reg.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := reg.Counter("c_total", "").Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if got := reg.Gauge("g_depth", "").Value(); got != 0 {
		t.Errorf("gauge = %d, want 0", got)
	}
	if got := reg.Histogram("h_ns", "").Snapshot().Count; got != 8000 {
		t.Errorf("histogram count = %d, want 8000", got)
	}
}
