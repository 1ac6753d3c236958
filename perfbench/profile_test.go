package main

import (
	"bytes"
	"compress/gzip"
	"testing"
)

func TestLayerOfSyntheticStacks(t *testing.T) {
	for _, c := range []struct {
		name  string
		stack []string // innermost first
		want  string
	}{
		{"sha256 under bmt", []string{
			"crypto/internal/fips140/sha256.blockAVX2",
			"crypto/internal/fips140/sha256.(*Digest).Write",
			"crypto/internal/fips140/hmac.(*HMAC).Write",
			"lelantus/internal/bmt.(*Tree).Update",
			"lelantus/internal/core.(*Engine).persistCounter",
			"lelantus/internal/sim.(*Machine).Run",
			"main.runDirectCell",
		}, "bmt"},
		{"aes under enc", []string{
			"crypto/internal/fips140/aes.encryptBlockAsm",
			"lelantus/internal/enc.(*Engine).Pad",
			"lelantus/internal/core.(*Engine).ReadLine",
		}, "enc"},
		{"GC only", []string{
			"runtime.scanobject",
			"runtime.gcDrain",
			"runtime.gcBgMarkWorker",
			"runtime.goexit",
		}, runtimeLayer},
		{"allocation inside the cache", []string{
			"runtime.mallocgc",
			"runtime.newobject",
			"lelantus/internal/cache.(*Level).Insert",
			"lelantus/internal/memctrl.(*Controller).Read",
		}, "cache"},
		{"closure in a layer", []string{"lelantus/internal/grid.(*Coordinator).Run.func1"}, "grid"},
		{"harness frames only", []string{"encoding/json.Marshal", "main.report", "main.main"}, runtimeLayer},
		{"empty stack", nil, runtimeLayer},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("%s: layer %q, want %q", c.name, got, c.want)
		}
	}
}

// pb is a minimal protocol-buffer encoder for building synthetic profiles.
type pb struct{ bytes.Buffer }

func (b *pb) varint(v uint64) {
	for v >= 0x80 {
		b.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	b.WriteByte(byte(v))
}

func (b *pb) uint(field int, v uint64) {
	b.varint(uint64(field)<<3 | 0)
	b.varint(v)
}

func (b *pb) bytesField(field int, data []byte) {
	b.varint(uint64(field)<<3 | 2)
	b.varint(uint64(len(data)))
	b.Write(data)
}

func (b *pb) msg(field int, build func(*pb)) {
	var m pb
	build(&m)
	b.bytesField(field, m.Bytes())
}

func (b *pb) packed(field int, vs ...uint64) {
	var m pb
	for _, v := range vs {
		m.varint(v)
	}
	b.bytesField(field, m.Bytes())
}

// syntheticProfile encodes a profile with three samples: 10 ms in sha256
// under bmt (packed fields), 20 ms in GC (unpacked fields), and 30 ms in
// the cache called from a recovery pass, whose location carries an inlined
// frame.
func syntheticProfile() []byte {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"crypto/sha256.block", "lelantus/internal/bmt.(*Tree).Update",
		"runtime.gcBgMarkWorker", "lelantus/internal/cache.(*Level).find",
		"lelantus/internal/cache.(*Level).Lookup", "lelantus/internal/core.(*Engine).Recover"}
	var p pb
	// Samples: location ids leaf first; values {count, nanoseconds}.
	p.msg(2, func(s *pb) { s.packed(1, 1, 2); s.packed(2, 1, 10e6) })
	p.msg(2, func(s *pb) { s.uint(1, 3); s.uint(2, 2); s.uint(2, 20e6) })
	p.msg(2, func(s *pb) { s.packed(1, 4, 5); s.packed(2, 3, 30e6) })
	// Locations: id 4 holds find inlined into Lookup.
	for _, loc := range []struct{ id, fns []uint64 }{
		{[]uint64{1}, []uint64{1}}, {[]uint64{2}, []uint64{2}}, {[]uint64{3}, []uint64{3}},
		{[]uint64{4}, []uint64{4, 5}}, {[]uint64{5}, []uint64{6}},
	} {
		p.msg(4, func(l *pb) {
			l.uint(1, loc.id[0])
			for _, fn := range loc.fns {
				l.msg(4, func(ln *pb) { ln.uint(1, fn); ln.uint(2, 42) })
			}
		})
	}
	for id, name := range []uint64{5, 6, 7, 8, 9, 10} {
		p.msg(5, func(f *pb) { f.uint(1, uint64(id+1)); f.uint(2, name) })
	}
	for _, s := range strs {
		p.bytesField(6, []byte(s))
	}
	p.uint(12, 10e6)
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p.Bytes())
	zw.Close()
	return gz.Bytes()
}

func TestParseCPUProfileAttribution(t *testing.T) {
	prof, err := parseCPUProfile(syntheticProfile())
	if err != nil {
		t.Fatal(err)
	}
	self := prof.selfSeconds()
	want := map[string]float64{"bmt": 0.010, "runtime": 0.020, "cache": 0.030}
	if len(self) != len(want) {
		t.Errorf("self = %v, want %v", self, want)
	}
	for l, s := range want {
		if !near(self[l], s) {
			t.Errorf("%s.self_s = %v, want %v", l, self[l], s)
		}
	}
	if got := prof.inclusiveSeconds(fnRecover); !near(got, 0.030) {
		t.Errorf("inclusive Recover = %v, want 0.030", got)
	}
	if got := prof.inclusiveSeconds("lelantus/internal/cache.(*Level).find"); !near(got, 0.030) {
		t.Errorf("inclusive inlined find = %v, want 0.030", got)
	}
	if _, err := parseCPUProfile(syntheticProfile()[:40]); err == nil {
		t.Error("truncated profile accepted")
	}
}

func TestRSSSamplerStops(t *testing.T) {
	r := startRSSSampler()
	buf := make([]byte, 8<<20)
	for i := range buf {
		buf[i] = byte(i)
	}
	if mb := r.Stop(); !(mb > 0) {
		t.Errorf("mean resident = %v MB, want > 0", mb)
	}
	if len(r.samples) == 0 {
		t.Error("no samples taken")
	}
}
