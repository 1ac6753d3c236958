package metrics

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64. A nil *Counter (what a nil
// Registry hands out) no-ops on every method.
type Counter struct {
	name, help string
	v          atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous signed value. A nil *Gauge no-ops.
type Gauge struct {
	name, help string
	v          atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adds delta (negative to decrement).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a concurrency-safe log-linear histogram instrument: a Hist
// behind one mutex. Observations are rare relative to counter updates
// (the grid observes one per finished cell), so a mutex — not per-bucket
// atomics — keeps the value type simple and snapshots consistent. A nil
// *Histogram no-ops.
type Histogram struct {
	name, help string
	mu         sync.Mutex
	h          Hist
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.h.Observe(v)
	h.mu.Unlock()
}

// Snapshot returns a consistent copy of the underlying histogram.
func (h *Histogram) Snapshot() Hist {
	if h == nil {
		return Hist{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h
}

// Registry owns a set of named instruments. The zero Registry is not
// usable; NewRegistry creates one; a nil *Registry is the disabled plane —
// it hands out nil instruments whose methods all no-op, so instrumented
// code never branches on "is telemetry on".
//
// Instrument creation (Counter/Gauge/Histogram) takes a lock and may
// allocate; it belongs in setup code. Instrument *updates* are the hot
// path and never allocate. Registering the same name twice returns the
// existing instrument, so wiring code can be re-entered (a resumed grid
// reuses its registry). Registering a name as two different instrument
// kinds is a programming error; the second caller gets a detached
// instrument that records but is never exported, and the conflict is
// counted in the reserved "telemetry_registration_conflicts" counter so
// the bug is visible on the /metrics page instead of crashing the run.
type Registry struct {
	mu     sync.Mutex
	byName map[string]any
	names  []string // registration-independent: sorted on snapshot
}

// NewRegistry creates an enabled registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]any{}}
}

// conflictCounter is the reserved name that counts kind-mismatched
// re-registrations (see the Registry doc comment).
const conflictCounter = "telemetry_registration_conflicts"

func lookup[T any](r *Registry, name string, make func() *T) *T {
	r.mu.Lock()
	if got, ok := r.byName[name]; ok {
		if t, ok := got.(*T); ok {
			r.mu.Unlock()
			return t
		}
		// Kind mismatch: hand back a detached instrument and surface the
		// conflict as a metric rather than tearing down a long sweep. (The
		// name guard keeps a mis-registered conflict counter from recursing.)
		r.mu.Unlock()
		if name != conflictCounter {
			r.Counter(conflictCounter, "names registered as two instrument kinds (a wiring bug)").Inc()
		}
		return make()
	}
	t := make()
	r.byName[name] = t
	r.names = append(r.names, name)
	r.mu.Unlock()
	return t
}

// Counter returns (creating if needed) the named counter; nil from a nil
// registry.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return lookup(r, name, func() *Counter { return &Counter{name: name, help: help} })
}

// Gauge returns (creating if needed) the named gauge; nil from a nil
// registry.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return lookup(r, name, func() *Gauge { return &Gauge{name: name, help: help} })
}

// Histogram returns (creating if needed) the named histogram; nil from a
// nil registry.
func (r *Registry) Histogram(name, help string) *Histogram {
	if r == nil {
		return nil
	}
	return lookup(r, name, func() *Histogram { return &Histogram{name: name, help: help} })
}

// MetricSnapshot is one instrument's frozen state. Exactly one of the
// value fields is meaningful, selected by Type ("counter", "gauge",
// "histogram").
type MetricSnapshot struct {
	Name    string `json:"name"`
	Help    string `json:"help,omitempty"`
	Type    string `json:"type"`
	Counter uint64 `json:"counter,omitempty"`
	Gauge   int64  `json:"gauge,omitempty"`
	// Histogram moments and percentiles (bucket detail is exposition-only).
	Count uint64 `json:"count,omitempty"`
	Sum   uint64 `json:"sum,omitempty"`
	Max   uint64 `json:"max,omitempty"`
	P50   uint64 `json:"p50,omitempty"`
	P90   uint64 `json:"p90,omitempty"`
	P99   uint64 `json:"p99,omitempty"`
	P999  uint64 `json:"p999,omitempty"`

	hist Hist // retained for Prometheus bucket exposition
}

// Snapshot freezes every instrument, sorted by name — the deterministic
// order both expositions render in. (Values are whatever the live
// instruments held at the instant each was read; determinism here means
// stable field order and sorting, not reproducible values — telemetry
// observes wall time and scheduling by design.)
func (r *Registry) Snapshot() []MetricSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := append([]string(nil), r.names...)
	byName := make(map[string]any, len(names))
	for _, n := range names {
		byName[n] = r.byName[n]
	}
	r.mu.Unlock()
	sort.Strings(names)
	out := make([]MetricSnapshot, 0, len(names))
	for _, n := range names {
		switch inst := byName[n].(type) {
		case *Counter:
			out = append(out, MetricSnapshot{Name: n, Help: inst.help, Type: "counter", Counter: inst.Value()})
		case *Gauge:
			out = append(out, MetricSnapshot{Name: n, Help: inst.help, Type: "gauge", Gauge: inst.Value()})
		case *Histogram:
			h := inst.Snapshot()
			out = append(out, MetricSnapshot{
				Name: n, Help: inst.help, Type: "histogram",
				Count: h.Count, Sum: h.Sum, Max: h.Max,
				P50: h.Percentile(50), P90: h.Percentile(90),
				P99: h.Percentile(99), P999: h.Percentile(99.9),
				hist: h,
			})
		}
	}
	return out
}
