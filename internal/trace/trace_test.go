package trace

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"lelantus/internal/workload"
)

func sample() workload.Script {
	b := workload.NewBuilder("sample")
	b.Spawn(0)
	b.Mmap(0, 0, 1<<20, true)
	b.Store(0, 0, 4096, 8, 0xAB)
	b.Load(0, 0, 64, 16)
	b.StoreNT(0, 0, 128, 0x11)
	b.Fork(0, 1)
	b.Compute(1, 12345)
	b.KSM(0, 0, 0, 1)
	b.BeginMeasure()
	b.Munmap(0, 0, 0, 4096)
	b.EndMeasure()
	b.Exit(1)
	b.Exit(0)
	b.MeasureProcess(0)
	return b.Script()
}

func TestBinaryRoundTrip(t *testing.T) {
	s := sample()
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, s)
	}
}

func TestBinaryRoundTripBigScript(t *testing.T) {
	s := workload.Redis(false, 3)
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Ops) != len(s.Ops) || got.Name != s.Name {
		t.Fatalf("got %d ops, want %d", len(got.Ops), len(s.Ops))
	}
	for i := range s.Ops {
		if got.Ops[i].String() != s.Ops[i].String() {
			t.Fatalf("op %d: %s vs %s", i, got.Ops[i], s.Ops[i])
		}
	}
}

func TestBadInput(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("WRONGMAGIC....."))); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
	// Truncated op stream.
	var buf bytes.Buffer
	if err := Write(&buf, sample()); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-5]
	if _, err := Read(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated input accepted")
	}
}

func TestDisassemble(t *testing.T) {
	var out strings.Builder
	Disassemble(&out, sample(), 3)
	text := out.String()
	if !strings.Contains(text, `script "sample"`) {
		t.Fatalf("missing header: %q", text)
	}
	if !strings.Contains(text, "more ops") {
		t.Fatal("missing truncation marker")
	}
	var full strings.Builder
	Disassemble(&full, sample(), 0)
	if !strings.Contains(full.String(), "exit p0") {
		t.Fatal("missing final op in full disassembly")
	}
}

// TestHugeOpCountDoesNotPreallocate pins that a header claiming maxOps ops
// over an empty body fails without allocating for the claim.
func TestHugeOpCountDoesNotPreallocate(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, workload.Script{Name: "x"}); err != nil {
		t.Fatal(err)
	}
	head := buf.Bytes()[:buf.Len()-1] // drop the zero op count
	head = binary.AppendUvarint(append([]byte(nil), head...), maxOps)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Read(bytes.NewReader(head)); err == nil {
		t.Fatal("truncated op stream accepted")
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
		t.Fatalf("reading a %d-byte header allocated %d bytes", len(head), grew)
	}
}
