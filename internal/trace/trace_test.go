package trace

import (
	"bytes"
	"encoding/binary"
	"math"
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

// TestKSMGroupsRoundTrip pins that the group table survives the codec,
// which writes each KSM op's members inline and rebuilds the table on read.
func TestKSMGroupsRoundTrip(t *testing.T) {
	s := workload.VMClone(false, 1)
	if len(s.Groups) == 0 {
		t.Fatal("vmclone has no KSM group")
	}
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Groups, s.Groups) {
		t.Fatalf("groups %v, want %v", got.Groups, s.Groups)
	}
	for i := range s.Ops {
		if got.OpString(i) != s.OpString(i) {
			t.Fatalf("op %d: %s vs %s", i, got.OpString(i), s.OpString(i))
		}
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
	// Op fields are int32: a slot or size above MaxInt32 must fail, not wrap.
	for field := 0; field < 4; field++ {
		if _, err := Read(bytes.NewReader(oneLoad(field, math.MaxInt32+1))); err == nil {
			t.Fatalf("field %d above MaxInt32 accepted", field)
		}
	}
	if _, err := Read(bytes.NewReader(oneLoad(0, math.MaxInt32))); err != nil {
		t.Fatalf("proc slot MaxInt32 rejected: %v", err)
	}
}

// oneLoad encodes a one-op script whose op sets one of its proc, new
// proc, region or size fields (0..3) to v and leaves the others 0.
func oneLoad(field int, v uint64) []byte {
	b := append([]byte(nil), magic...)
	b = append(b, 1, 'x', 1, 1)    // name "x", 1 proc, 1 region
	b = binary.AppendVarint(b, -1) // measure proc
	b = append(b, 1, byte(workload.OpLoad))
	var vals [4]uint64
	vals[field] = v
	for _, x := range vals[:3] {
		b = binary.AppendUvarint(b, x)
	}
	b = append(b, 0, 0) // off, bytes
	b = binary.AppendUvarint(b, vals[3])
	return append(b, 0, 0, 0, 0) // val, huge, ns, no KSM members
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

// TestDisassembleText pins the full disassembly of sample(), a KSM op
// among its ops, to the text the format has always printed: a KSM op
// lists its members, not its index in the group table.
func TestDisassembleText(t *testing.T) {
	const want = `script "sample": 13 ops, 2 procs, 1 regions, measures p0
       0  spawn p0
       1  mmap p0 r0 1048576B huge=true
       2  store p0 r0+0x1000 8B=0xab
       3  load p0 r0+0x40 16B
       4  storent p0 r0+0x80
       5  fork p0 -> p1
       6  compute p1 12345ns
       7  ksm r0+0x0 procs=[0 1]
       8  begin-measure
       9  munmap p0 r0+0x0 4096B
      10  end-measure
      11  exit p1
      12  exit p0
`
	var out strings.Builder
	Disassemble(&out, sample(), 0)
	if out.String() != want {
		t.Fatalf("disassembly:\n%s\nwant:\n%s", out.String(), want)
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
