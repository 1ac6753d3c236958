package grid

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"time"

	"lelantus/internal/metrics"
)

// telemetryFile is the atomically rewritten live-progress document a
// heartbeat-enabled run keeps in the grid directory. It is advisory and
// host-dependent (wall-clock rates, ETA), and its done/failed counts are
// a snapshot of what the results log held: `lelantus-grid status` reads it
// for the live view, and neither resume nor the report ever reads it.
const telemetryFile = "telemetry.json"

// gridMetrics bundles the coordinator's live instruments. Built from a nil
// registry every field is a nil instrument whose methods no-op, so the
// coordinator updates them unconditionally — the telemetry-off hot path
// costs one nil compare per update and zero allocations.
type gridMetrics struct {
	total      *metrics.Gauge
	queueDepth *metrics.Gauge
	started    *metrics.Counter
	finished   *metrics.Counter
	failed     *metrics.Counter
	retried    *metrics.Counter
	wallNs     *metrics.Histogram
}

func newGridMetrics(r *metrics.Registry) gridMetrics {
	return gridMetrics{
		total:      r.Gauge("grid_cells_total", "cells enumerated by the grid spec"),
		queueDepth: r.Gauge("grid_queue_depth", "cells not yet finished in this run"),
		started:    r.Counter("grid_cells_started_total", "cells begun (first attempts, not retries)"),
		finished:   r.Counter("grid_cells_finished_total", "cells recorded to the results log (ok or failed)"),
		failed:     r.Counter("grid_cells_failed_total", "cells recorded as failed after all retries"),
		retried:    r.Counter("grid_cell_retries_total", "extra attempts after a failed attempt"),
		wallNs:     r.Histogram("grid_cell_wall_ns", "per-cell wall-clock nanoseconds (all attempts and backoff waits)"),
	}
}

// Progress is the live-progress document: one JSON object per heartbeat
// line, and the body of telemetry.json. Every field is host- and
// schedule-dependent by nature (wall-clock rate, ETA) — which is exactly
// why it lives here and never in the report.
type Progress struct {
	Grid    string `json:"grid"`
	UnixMs  int64  `json:"unixMs"`
	Done    int    `json:"done"`
	Total   int    `json:"total"`
	Failed  int    `json:"failed"`
	Retries uint64 `json:"retries"`
	// CellsPerSec is the finish rate of *this* run (resumed runs do not
	// count previously finished cells), and EtaSec the remaining work at
	// that rate (0 until the first cell finishes).
	CellsPerSec float64 `json:"cellsPerSec"`
	EtaSec      float64 `json:"etaSec"`
	Running     bool    `json:"running"`
}

// Progress snapshots the coordinator's live progress: the finished and
// failed cells the results log holds, as counted by the coordinator's
// tally while it appends. Safe to call from any goroutine, including the
// telemetry HTTP handlers, while Run is executing.
func (c *Coordinator) Progress() Progress {
	c.mu.Lock()
	done, failed, total := len(c.tally.cells), c.tally.failed, c.total
	start, doneAtStart, running := c.runStart, c.doneAtStart, c.running
	c.mu.Unlock()
	p := Progress{
		Grid:    c.state.Spec.withDefaults().Name,
		UnixMs:  time.Now().UnixMilli(),
		Done:    done,
		Total:   total,
		Failed:  failed,
		Retries: c.gm.retried.Value(),
		Running: running,
	}
	if elapsed := time.Since(start).Seconds(); !start.IsZero() && elapsed > 0 && done > doneAtStart {
		p.CellsPerSec = float64(done-doneAtStart) / elapsed
		p.EtaSec = float64(total-done) / p.CellsPerSec
	}
	return p
}

// emitHeartbeat writes one progress line to the heartbeat writer and
// atomically rewrites telemetry.json. Both are best-effort: a full disk or
// closed pipe must not fail the grid the telemetry is watching.
func (c *Coordinator) emitHeartbeat(running bool) {
	p := c.Progress()
	p.Running = running
	line, err := json.Marshal(p)
	if err != nil {
		return
	}
	if c.opts.HeartbeatW != nil {
		fmt.Fprintf(c.opts.HeartbeatW, "%s\n", line)
	}
	writeAtomic(c.dir, telemetryFile, append(line, '\n'))
}

// startHeartbeat launches the heartbeat ticker (no-op when the interval is
// unset) and returns its stop function, which emits one final
// running=false document so telemetry.json ends on the run's outcome.
func (c *Coordinator) startHeartbeat() (stop func()) {
	if c.opts.Heartbeat <= 0 {
		return func() {}
	}
	c.emitHeartbeat(true)
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(c.opts.Heartbeat)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				c.emitHeartbeat(true)
			case <-done:
				return
			}
		}
	}()
	return func() {
		close(done)
		<-finished
		c.emitHeartbeat(false)
	}
}

// ReadTelemetry reads a grid directory's last heartbeat document, if one
// exists (ok=false when the run never had -heartbeat enabled).
func ReadTelemetry(dir string) (Progress, bool) {
	data, err := os.ReadFile(filepath.Join(dir, telemetryFile))
	if err != nil {
		return Progress{}, false
	}
	var p Progress
	if err := json.Unmarshal(data, &p); err != nil {
		return Progress{}, false
	}
	return p, true
}

// TelemetryServer serves the live telemetry plane over HTTP while a grid
// runs: Prometheus text exposition on /metrics, a JSON status snapshot
// (progress + every instrument) on /status, and the standard pprof
// handlers under /debug/pprof/ — on its own mux, so importing this package
// never pollutes http.DefaultServeMux.
type TelemetryServer struct {
	ln  net.Listener
	srv *http.Server
}

// StartTelemetry binds addr (":0" picks an ephemeral port) and serves the
// registry and progress snapshots until Close.
func StartTelemetry(addr string, reg *metrics.Registry, progress func() Progress) (*TelemetryServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("grid: telemetry listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, _ *http.Request) {
		metricsJSON, err := reg.MarshalJSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		doc := struct {
			Progress Progress        `json:"progress"`
			Metrics  json.RawMessage `json:"metrics"`
		}{Progress: progress(), Metrics: metricsJSON}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(doc)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	return &TelemetryServer{ln: ln, srv: srv}, nil
}

// Addr returns the bound address (host:port — the resolved port when the
// caller asked for :0).
func (t *TelemetryServer) Addr() string { return t.ln.Addr().String() }

// Close stops the server and releases the port.
func (t *TelemetryServer) Close() error { return t.srv.Close() }
