package core

import (
	"reflect"
	"testing"

	"lelantus/internal/mem"
	"lelantus/internal/probe"
)

// TestStatsSubCoversAllFields walks Stats by reflection and checks every
// numeric field is differenced by Sub — a newly added counter that is not
// wired into Sub would silently vanish from phase-isolated diffs. MaxChain
// is the one documented exception: it is a running maximum, so Sub keeps
// the whole-run value instead of subtracting.
func TestStatsSubCoversAllFields(t *testing.T) {
	var s, prev Stats
	sv := reflect.ValueOf(&s).Elem()
	pv := reflect.ValueOf(&prev).Elem()
	typ := sv.Type()
	for i := 0; i < typ.NumField(); i++ {
		switch typ.Field(i).Type.Kind() {
		case reflect.Uint64:
			sv.Field(i).SetUint(uint64(1000 + i))
			pv.Field(i).SetUint(uint64(i))
		case reflect.Int:
			sv.Field(i).SetInt(int64(1000 + i))
			pv.Field(i).SetInt(int64(i))
		default:
			t.Fatalf("Stats.%s has unexpected kind %s; teach this test and Sub about it",
				typ.Field(i).Name, typ.Field(i).Type.Kind())
		}
	}
	dv := reflect.ValueOf(s.Sub(prev))
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		var got uint64
		switch typ.Field(i).Type.Kind() {
		case reflect.Uint64:
			got = dv.Field(i).Uint()
		case reflect.Int:
			got = uint64(dv.Field(i).Int())
		}
		if name == "MaxChain" {
			if got != uint64(1000+i) {
				t.Errorf("Sub differenced MaxChain (got %d); it must keep the running maximum", got)
			}
			continue
		}
		if got != 1000 {
			t.Errorf("Stats.%s: Sub diff = %d, want 1000 — field not differenced in Sub", name, got)
		}
	}
}

// TestProbeDisabledAllocFree pins the probe plane's zero-overhead contract
// on the hot path: with no plane attached (the default), the instrumented
// ReadLine/WriteLine wrappers must not add a single allocation.
func TestProbeDisabledAllocFree(t *testing.T) {
	for _, s := range Schemes() {
		t.Run(s.String(), func(t *testing.T) {
			e := testEngine(t, s, nil)
			e.AttachProbe(nil) // explicit: the disabled state under test
			addrs := allocAddrs()
			var plain [mem.LineBytes]byte
			plain[0] = 0x3C
			now := uint64(0)
			for _, a := range addrs {
				d, err := e.WriteLine(now, a, &plain)
				if err != nil {
					t.Fatal(err)
				}
				now = d
			}
			var k int
			avg := testing.AllocsPerRun(200, func() {
				a := addrs[k%len(addrs)]
				k++
				d, err := e.WriteLine(now, a, &plain)
				if err != nil {
					t.Fatal(err)
				}
				if _, d, err = e.ReadLine(d, a); err != nil {
					t.Fatal(err)
				}
				now = d
			})
			if avg != 0 {
				t.Errorf("disabled probe: %.2f allocs/op on ReadLine+WriteLine, want 0", avg)
			}
		})
	}
}

// TestProbeRecordsEngineEvents checks the engine-level wiring: with a plane
// attached, the data path and MMIO commands emit typed events with
// simulated-time stamps and per-class latency observations.
func TestProbeRecordsEngineEvents(t *testing.T) {
	e := testEngine(t, Lelantus, nil)
	pl := probe.New(probe.Config{})
	e.AttachProbe(pl)
	var plain [mem.LineBytes]byte
	plain[0] = 0xA5
	now := uint64(0)
	src, dst := uint64(4), uint64(5)
	for li := 0; li < mem.LinesPerPage; li++ {
		d, err := e.WriteLine(now, mem.LineAddr(src, li), &plain)
		if err != nil {
			t.Fatal(err)
		}
		now = d
	}
	done, err := e.PageCopy(now, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if _, done, err = e.ReadLine(done, mem.LineAddr(dst, 0)); err != nil {
		t.Fatal(err)
	}
	if done, err = e.PageFree(done, dst); err != nil {
		t.Fatal(err)
	}
	for k, want := range map[probe.Kind]uint64{
		probe.EvWrite:    uint64(mem.LinesPerPage),
		probe.EvPageCopy: 1,
		probe.EvRead:     1,
		probe.EvPageFree: 1,
	} {
		if got := pl.Count(k); got < want {
			t.Errorf("%s events = %d, want >= %d", k, got, want)
		}
	}
	if pl.Latency(probe.EvWrite).Count != pl.Count(probe.EvWrite) {
		t.Error("write latency histogram out of sync with event total")
	}
	// The redirected read resolved through the source page: chain depth > 0
	// must have been observed.
	if ch := pl.Summary().ChainDepth; ch.Count == 0 || ch.Max == 0 {
		t.Errorf("chain depth distribution = %+v, want redirected read observed", ch)
	}
	if pl.LastNs() == 0 || pl.LastNs() > done {
		t.Errorf("probe lastNs = %d, final done = %d", pl.LastNs(), done)
	}
	// Failed commands must not record: copying a page onto itself errors.
	before := pl.Count(probe.EvPageCopy)
	if _, err := e.PageCopy(done, src, src); err == nil {
		t.Fatal("self-copy succeeded unexpectedly")
	}
	if pl.Count(probe.EvPageCopy) != before {
		t.Error("failed PageCopy recorded an event")
	}
}
