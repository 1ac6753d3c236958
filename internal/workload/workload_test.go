package workload

import (
	"math"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"lelantus/internal/mem"
)

// validate checks script well-formedness: ops only reference declared
// slots, spawn/fork precede use, and loads/stores stay inside one line.
func validate(t *testing.T, s Script) {
	t.Helper()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	live := make([]bool, s.Procs)
	mapped := make([]bool, s.Regions)
	for i, op := range s.Ops {
		if op.Kind == OpBeginMeasure || op.Kind == OpEndMeasure {
			continue
		}
		if op.Kind == OpKSM {
			for _, p := range s.Groups[op.Group] {
				if p >= s.Procs || !live[p] {
					t.Fatalf("op %d (%s): dead/unknown proc %d", i, op, p)
				}
			}
			continue
		}
		if int(op.Proc) >= s.Procs {
			t.Fatalf("op %d (%s): proc slot %d out of range %d", i, op, op.Proc, s.Procs)
		}
		switch op.Kind {
		case OpSpawn:
			live[op.Proc] = true
		case OpFork:
			if !live[op.Proc] {
				t.Fatalf("op %d (%s): fork by dead proc", i, op)
			}
			live[op.NewProc] = true
		case OpExit:
			if !live[op.Proc] {
				t.Fatalf("op %d (%s): exit of dead proc", i, op)
			}
			live[op.Proc] = false
		case OpMmap:
			if !live[op.Proc] {
				t.Fatalf("op %d (%s): mmap by dead proc", i, op)
			}
			mapped[op.Region] = true
		case OpLoad, OpStore, OpStoreNT, OpMunmap:
			if !live[op.Proc] {
				t.Fatalf("op %d (%s): access by dead proc", i, op)
			}
			if !mapped[op.Region] {
				t.Fatalf("op %d (%s): access to unmapped region", i, op)
			}
			if op.Kind == OpLoad || op.Kind == OpStore {
				start := op.Off & (mem.LineBytes - 1)
				if start+uint64(op.Size) > mem.LineBytes {
					t.Fatalf("op %d (%s): crosses a line", i, op)
				}
			}
			if op.Kind == OpStoreNT && op.Off&(mem.LineBytes-1) != 0 {
				t.Fatalf("op %d (%s): NT store must be line aligned", i, op)
			}
		}
	}
}

func TestCatalogueWellFormed(t *testing.T) {
	for _, spec := range Catalogue() {
		for _, huge := range []bool{false, true} {
			s := spec.Build(huge, 1)
			if s.Name == "" || len(s.Ops) == 0 {
				t.Fatalf("%s: empty script", spec.Name)
			}
			validate(t, s)
		}
	}
}

// TestValidateRejects pins Script.Validate against every slot indexing
// the simulator performs: each case is one field out of range.
func TestValidateRejects(t *testing.T) {
	wrapsTo8 := uint64(1)<<32 + 8
	ok := func() Script { return NewBuilder("v").Spawn(0).Mmap(0, 0, 4096, false).Script() }
	cases := map[string]func(*Script){
		"negative procs":   func(s *Script) { s.Procs = -1 },
		"too many procs":   func(s *Script) { s.Procs = 1 << 62 },
		"too many regions": func(s *Script) { s.Regions = maxSlots + 1 },
		"load proc":        func(s *Script) { s.Ops = append(s.Ops, Op{Kind: OpLoad, Proc: 5}) },
		"negative proc":    func(s *Script) { s.Ops = append(s.Ops, Op{Kind: OpStore, Proc: -1}) },
		"store region":     func(s *Script) { s.Ops = append(s.Ops, Op{Kind: OpStoreNT, Region: 1}) },
		"fork new proc":    func(s *Script) { s.Ops = append(s.Ops, Op{Kind: OpFork, NewProc: 1}) },
		"compute proc":     func(s *Script) { s.Ops = append(s.Ops, Op{Kind: OpCompute, Proc: 1}) },
		"ksm region":       func(s *Script) { s.Groups = [][]int{{0}}; s.Ops = append(s.Ops, Op{Kind: OpKSM, Region: 2}) },
		"ksm procs":        func(s *Script) { s.Groups = [][]int{{0, 3}}; s.Ops = append(s.Ops, Op{Kind: OpKSM}) },
		"ksm group":        func(s *Script) { s.Groups = [][]int{{0}}; s.Ops = append(s.Ops, Op{Kind: OpKSM, Group: 1}) },
		"negative group":   func(s *Script) { s.Groups = [][]int{{0}}; s.Ops = append(s.Ops, Op{Kind: OpKSM, Group: -1}) },
		"negative size":    func(s *Script) { s.Ops = append(s.Ops, Op{Kind: OpLoad, Size: -1}) },
		// The builder must not narrow an int size to a different int32.
		"built size above MaxInt32": func(s *Script) {
			*s = NewBuilder("v").Spawn(0).Mmap(0, 0, 4096, false).Load(0, 0, 0, math.MaxInt32+1).Script()
		},
		"built size wrapping to 8": func(s *Script) {
			*s = NewBuilder("v").Spawn(0).Mmap(0, 0, 4096, false).Store(0, 0, 0, int(wrapsTo8), 1).Script()
		},
	}
	if err := ok().Validate(); err != nil {
		t.Fatalf("well-formed script rejected: %v", err)
	}
	for name, mutate := range cases {
		s := ok()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCatalogueHasMeasurementWindow(t *testing.T) {
	for _, spec := range Catalogue() {
		s := spec.Build(false, 1)
		begins, ends := 0, 0
		for _, op := range s.Ops {
			switch op.Kind {
			case OpBeginMeasure:
				begins++
			case OpEndMeasure:
				ends++
			}
		}
		if begins != 1 || ends != 1 {
			t.Fatalf("%s: begins=%d ends=%d, want 1/1", spec.Name, begins, ends)
		}
	}
}

func TestForkbenchShape(t *testing.T) {
	p := ForkbenchParams{RegionBytes: 8 * mem.PageBytes, BytesPerUnit: 4}
	s := Forkbench(p)
	validate(t, s)
	var initStores, childStores int
	inMeasure := false
	for _, op := range s.Ops {
		switch op.Kind {
		case OpBeginMeasure:
			inMeasure = true
		case OpEndMeasure:
			inMeasure = false
		case OpStore:
			if inMeasure {
				childStores++
			} else {
				initStores++
			}
		}
	}
	if initStores != 8*mem.LinesPerPage {
		t.Fatalf("init stores = %d, want %d", initStores, 8*mem.LinesPerPage)
	}
	if childStores != 8*4 {
		t.Fatalf("child stores = %d, want %d (4 lines x 8 pages)", childStores, 8*4)
	}
}

func TestUpdateEvenConvention(t *testing.T) {
	// Paper Fig. 11: updating 64 bytes in a 4 KB page writes one byte in
	// each of the 64 cachelines.
	b := NewBuilder("probe")
	b.Spawn(0).Mmap(0, 0, mem.PageBytes, false)
	updateEven(b, 0, 0, mem.PageBytes, false, 64, 1)
	s := b.Script()
	lines := make(map[uint64]bool)
	for _, op := range s.Ops {
		if op.Kind == OpStore {
			if op.Size != 1 {
				t.Fatalf("store size = %d, want 1", op.Size)
			}
			lines[op.Off>>6] = true
		}
	}
	if len(lines) != 64 {
		t.Fatalf("touched %d lines, want 64", len(lines))
	}

	// Whole-page update: all 64 lines touched, each with a sub-line store
	// (scattered application writes, not memset: write allocation and the
	// CoW redirect must fire).
	b2 := NewBuilder("probe2")
	b2.Spawn(0).Mmap(0, 0, mem.PageBytes, false)
	updateEven(b2, 0, 0, mem.PageBytes, false, mem.PageBytes, 1)
	n := 0
	for _, op := range b2.Script().Ops {
		if op.Kind == OpStore {
			if op.Size >= mem.LineBytes {
				t.Fatalf("whole-page store size = %d, must stay sub-line", op.Size)
			}
			n++
		}
	}
	if n != 64 {
		t.Fatalf("whole-page stores = %d", n)
	}

	// One byte: a single line touched.
	b3 := NewBuilder("probe3")
	b3.Spawn(0).Mmap(0, 0, mem.PageBytes, false)
	updateEven(b3, 0, 0, mem.PageBytes, false, 1, 1)
	n = 0
	for _, op := range b3.Script().Ops {
		if op.Kind == OpStore {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("1-byte update stores = %d", n)
	}
}

func TestSeedsChangeScripts(t *testing.T) {
	a := Redis(false, 1)
	b := Redis(false, 2)
	c := Redis(false, 1)
	if len(a.Ops) != len(c.Ops) {
		t.Fatal("same seed must give the same script")
	}
	same := true
	for i := range a.Ops {
		if a.Ops[i].String() != c.Ops[i].String() {
			same = false
		}
	}
	if !same {
		t.Fatal("same seed produced different ops")
	}
	diff := len(a.Ops) != len(b.Ops)
	if !diff {
		for i := range a.Ops {
			if a.Ops[i].String() != b.Ops[i].String() {
				diff = true
				break
			}
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical scripts")
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("redis"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestOpStrings(t *testing.T) {
	ops := []Op{
		{Kind: OpSpawn}, {Kind: OpMmap}, {Kind: OpLoad}, {Kind: OpStore},
		{Kind: OpStoreNT}, {Kind: OpFork}, {Kind: OpExit}, {Kind: OpMunmap},
		{Kind: OpKSM}, {Kind: OpBeginMeasure}, {Kind: OpEndMeasure}, {Kind: Kind(99)},
	}
	for _, op := range ops {
		if op.String() == "" {
			t.Fatalf("empty string for kind %d", op.Kind)
		}
	}
}

func TestUseCasesWellFormed(t *testing.T) {
	specs := append(UseCases(), Spec{"journal", "", Journal})
	for _, spec := range specs {
		for _, huge := range []bool{false, true} {
			s := spec.Build(huge, 1)
			validate(t, s)
			begins, ends := 0, 0
			for _, op := range s.Ops {
				switch op.Kind {
				case OpBeginMeasure:
					begins++
				case OpEndMeasure:
					ends++
				}
			}
			if begins != 1 || ends != 1 {
				t.Fatalf("%s huge=%v: begins=%d ends=%d", spec.Name, huge, begins, ends)
			}
		}
	}
}

func TestSnapshotMeasuresApp(t *testing.T) {
	s := Snapshot(false, 1)
	if s.MeasureProc != 0 {
		t.Fatalf("snapshot must measure the app process, got %d", s.MeasureProc)
	}
}

func TestJournalIsNTStoreHeavy(t *testing.T) {
	s := Journal(false, 1)
	nt, other := 0, 0
	inWindow := false
	for _, op := range s.Ops {
		switch op.Kind {
		case OpBeginMeasure:
			inWindow = true
		case OpEndMeasure:
			inWindow = false
		case OpStoreNT:
			if inWindow {
				nt++
			}
		case OpStore, OpLoad:
			if inWindow {
				other++
			}
		}
	}
	if nt == 0 || other != 0 {
		t.Fatalf("journal window must be pure NT stores: nt=%d other=%d", nt, other)
	}
}

func TestVMCloneSkipsKSMOnHuge(t *testing.T) {
	for _, huge := range []bool{false, true} {
		s := VMClone(huge, 1)
		hasKSM := false
		for _, op := range s.Ops {
			if op.Kind == OpKSM {
				hasKSM = true
			}
		}
		if hasKSM == huge {
			t.Fatalf("huge=%v: KSM presence=%v (KSM only merges 4KB pages)", huge, hasKSM)
		}
	}
}

// TestOpIsCompact pins the op stream's representation: 48 B per op and no
// field the garbage collector would have to scan.
func TestOpIsCompact(t *testing.T) {
	if n := unsafe.Sizeof(Op{}); n != 48 {
		t.Fatalf("Op is %d B, want 48", n)
	}
	typ := reflect.TypeOf(Op{})
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Map, reflect.String,
			reflect.Interface, reflect.Chan, reflect.Func, reflect.UnsafePointer:
			t.Fatalf("Op.%s is a %s", f.Name, f.Type.Kind())
		}
	}
}

// TestBuildAllocationBudget pins the copy-once builder: building
// full-size forkbench allocates at most 2.5x the bytes of its final ops
// (the chunks once, the final slice once, and a little besides).
func TestBuildAllocationBudget(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := Forkbench(DefaultForkbench(false))
	runtime.ReadMemStats(&after)
	final := uint64(len(s.Ops)) * uint64(unsafe.Sizeof(Op{}))
	if got := after.TotalAlloc - before.TotalAlloc; float64(got) > 2.5*float64(final) {
		t.Fatalf("building %d ops allocated %d B, over 2.5x their %d B", len(s.Ops), got, final)
	}
}

// built keeps BenchmarkBuild's result live.
var built Script

// BenchmarkBuild generates each catalogue script at full size (4 KB
// pages, seed 1): the host cost of a fig9 pass's set-up, per script.
func BenchmarkBuild(b *testing.B) {
	for _, spec := range Catalogue() {
		b.Run(spec.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				built = spec.Build(false, 1)
			}
		})
	}
}
