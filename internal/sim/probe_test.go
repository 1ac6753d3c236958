package sim

import (
	"bytes"
	"encoding/json"
	"testing"

	"lelantus/internal/core"
	"lelantus/internal/nvm"
	"lelantus/internal/probe"
	"lelantus/internal/workload"
)

// probeRun executes a small forkbench on a fresh machine with a fresh plane
// attached and returns the plane. The write queue is enabled so the queue
// occupancy distribution is exercised too; strat selects the persistence
// strategy (the zero value is strict).
func probeRun(t *testing.T, sampleNs uint64, strat core.PersistStrategy) *probe.Plane {
	t.Helper()
	cfg := DefaultConfig(core.Lelantus)
	cfg.Mem.MemBytes = 64 << 20
	cfg.Mem.Core.Fidelity = core.FidelityTiming
	cfg.Mem.Core.Persist = strat
	q := nvm.DefaultQueueConfig()
	cfg.Mem.WriteQueue = &q
	pl := probe.New(probe.Config{SampleNs: sampleNs})
	cfg.Mem.Probe = pl
	p := workload.DefaultForkbench(false)
	p.RegionBytes = 1 << 20
	if _, err := RunWith(cfg, workload.Forkbench(p)); err != nil {
		t.Fatal(err)
	}
	return pl
}

// TestProbeEndToEnd runs forkbench on a probe-attached machine and checks
// the full plane fills in: command, data-path, cache, kernel and sampling
// channels all observe events with coherent simulated-time stamps.
func TestProbeEndToEnd(t *testing.T) {
	pl := probeRun(t, 1_000_000, core.PersistStrategy{})
	for _, k := range []probe.Kind{
		probe.EvRead, probe.EvWrite, probe.EvPageCopy, probe.EvPageInit,
		probe.EvCtrHit, probe.EvCtrMiss, probe.EvKernelFault,
	} {
		if pl.Count(k) == 0 {
			t.Errorf("no %s events recorded by forkbench", k)
		}
	}
	if pl.Summary().ChainDepth.Count != pl.Count(probe.EvRead) {
		t.Error("chain-depth distribution out of sync with read events")
	}
	if pl.Summary().QueueOcc.Count != pl.Count(probe.EvWrite) {
		t.Error("queue-occupancy distribution out of sync with write events")
	}
	if len(pl.Samples()) == 0 {
		t.Error("no periodic samples despite a 1 ms interval")
	}
	for i, s := range pl.Samples() {
		if s.NowNs > pl.LastNs() {
			t.Fatalf("sample %d stamped at %d ns, beyond lastNs %d", i, s.NowNs, pl.LastNs())
		}
	}
	s := pl.Summary()
	if s.Recorded == 0 || len(s.Events) == 0 || s.LastNs == 0 {
		t.Errorf("summary empty: %+v", s)
	}
	if s.Retained+int(s.Dropped) != int(s.Recorded) {
		t.Errorf("ring accounting: retained %d + dropped %d != recorded %d",
			s.Retained, s.Dropped, s.Recorded)
	}
}

// TestProbeDeterministicExports pins the acceptance criterion: two identical
// machines running the same script produce byte-identical probe summaries
// and byte-identical Perfetto traces, and the trace validates — under every
// persistence strategy, since lazy strategies reshuffle when persist-point
// events fire.
func TestProbeDeterministicExports(t *testing.T) {
	strategies := map[string]core.PersistStrategy{
		"strict":  {},
		"phoenix": core.PhoenixPersist(),
		"triad:1": core.TriadPersist(1),
	}
	for name, strat := range strategies {
		strat := strat
		t.Run(name, func(t *testing.T) {
			a := probeRun(t, 500_000, strat)
			b := probeRun(t, 500_000, strat)

			ja, err := a.MarshalJSONSummary()
			if err != nil {
				t.Fatal(err)
			}
			jb, err := b.MarshalJSONSummary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ja, jb) {
				t.Error("probe summaries differ across identical runs")
			}
			if !json.Valid(ja) {
				t.Error("summary is not valid JSON")
			}

			var ta, tb bytes.Buffer
			if err := a.WriteTrace(&ta); err != nil {
				t.Fatal(err)
			}
			if err := b.WriteTrace(&tb); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ta.Bytes(), tb.Bytes()) {
				t.Error("Perfetto traces differ across identical runs")
			}
			if err := probe.ValidateTrace(ta.Bytes()); err != nil {
				t.Errorf("emitted trace does not validate: %v", err)
			}
		})
	}
}

// TestProbeOffIsByteIdentical checks attaching a probe observes without
// perturbing: the simulated result with and without a plane is identical.
func TestProbeOffIsByteIdentical(t *testing.T) {
	p := workload.DefaultForkbench(false)
	p.RegionBytes = 1 << 20
	script := workload.Forkbench(p)

	run := func(withProbe bool) Result {
		cfg := DefaultConfig(core.Lelantus)
		cfg.Mem.MemBytes = 64 << 20
		cfg.Mem.Core.Fidelity = core.FidelityTiming
		if withProbe {
			cfg.Mem.Probe = probe.New(probe.Config{SampleNs: 1_000_000})
		}
		res, err := RunWith(cfg, script)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	with, without := run(true), run(false)
	jw, err := json.Marshal(with)
	if err != nil {
		t.Fatal(err)
	}
	jo, err := json.Marshal(without)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jw, jo) {
		t.Errorf("probe changed simulation results:\nwith:    %s\nwithout: %s", jw, jo)
	}
}
