package faultinject

import (
	"encoding/json"
	"errors"
	"testing"

	"lelantus/internal/mem"
)

func TestCrashFiresAtExactPoint(t *testing.T) {
	p := New(1)
	p.ArmCrashAt(3)
	for i := 1; i <= 2; i++ {
		if d := p.Hit(CtrWrite); d.Action != ActNone {
			t.Fatalf("hit %d: action %v before the armed point", i, d.Action)
		}
	}
	d := p.Hit(DataWrite)
	if d.Action != ActCrash {
		t.Fatalf("hit 3: action %v, want crash", d.Action)
	}
	if !errors.Is(d.Err, ErrCrash) {
		t.Fatalf("crash error %v does not wrap ErrCrash", d.Err)
	}
	pt, n, ok := p.Crashed()
	if !ok || pt != DataWrite || n != 3 {
		t.Fatalf("Crashed() = %v %d %v, want data-write 3 true", pt, n, ok)
	}
	// After the crash the plane is inert: recovery traffic must not fault.
	if d := p.Hit(CtrWrite); d.Action != ActNone {
		t.Fatalf("post-crash hit faulted: %v", d.Action)
	}
	if p.Hits() != 3 {
		t.Fatalf("Hits() = %d, want 3 (post-crash hits not counted)", p.Hits())
	}
}

func TestDecisionsDeterministicForSeed(t *testing.T) {
	run := func(seed int64) []Decision {
		p := New(seed)
		p.ArmCrashAt(5)
		p.ArmTear(CtrWrite, 2)
		var out []Decision
		for i := 0; i < 6; i++ {
			out = append(out, p.Hit(CtrWrite))
		}
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i].Action != b[i].Action || a[i].KeepWords != b[i].KeepWords {
			t.Fatalf("hit %d differs across identical seeds: %+v vs %+v", i, a[i], b[i])
		}
	}
	if a[1].Action != ActTear || a[1].KeepWords < 1 || a[1].KeepWords >= WordsPerLine {
		t.Fatalf("directed tear: %+v, want a real 1..%d-word tear", a[1], WordsPerLine-1)
	}
	if a[4].Action != ActCrash {
		t.Fatalf("hit 5: %+v, want crash", a[4])
	}
}

func TestDirectedDropTargetsNthHitOfPoint(t *testing.T) {
	p := New(1)
	p.ArmDrop(CoWMetaWrite, 2)
	if d := p.Hit(CoWMetaWrite); d.Action != ActNone {
		t.Fatalf("first cow-meta hit: %v", d.Action)
	}
	if d := p.Hit(DataWrite); d.Action != ActNone {
		t.Fatalf("unrelated point: %v", d.Action)
	}
	if d := p.Hit(CoWMetaWrite); d.Action != ActDrop {
		t.Fatalf("second cow-meta hit: %v, want drop", d.Action)
	}
}

func TestNilPlaneIsInert(t *testing.T) {
	var p *Plane
	if d := p.Hit(CtrWrite); d.Action != ActNone {
		t.Fatal("nil plane must decide ActNone")
	}
	if p.Hits() != 0 || p.Seed() != 0 {
		t.Fatal("nil plane accessors must be zero")
	}
	var line [mem.LineBytes]byte
	p.ObserveData(0, &line) // must not panic
	if p.ShadowHistory(0) != nil {
		t.Fatal("nil plane has no shadow")
	}
}

func TestShadowHistoryDedupsConsecutive(t *testing.T) {
	p := New(1)
	p.EnableShadow()
	var a, b [mem.LineBytes]byte
	a[0], b[0] = 1, 2
	p.ObserveData(0x40, &a)
	p.ObserveData(0x40, &a)
	p.ObserveData(0x40, &b)
	p.ObserveData(0x40, &a)
	h := p.ShadowHistory(0x40)
	if len(h) != 3 || h[0][0] != 1 || h[1][0] != 2 || h[2][0] != 1 {
		t.Fatalf("history %v, want values 1,2,1", h)
	}
}

func TestLanded(t *testing.T) {
	cases := []struct {
		d    Decision
		want bool
	}{
		{Decision{Action: ActNone}, true},
		{Decision{Action: ActDrop}, false},
		{Decision{Action: ActTear, KeepWords: 3}, false},
		{Decision{Action: ActTear, KeepWords: WordsPerLine}, true},
		{Decision{Action: ActCrash, KeepWords: 0}, false},
		{Decision{Action: ActCrash, KeepWords: WordsPerLine}, true},
	}
	for i, c := range cases {
		if c.d.Landed() != c.want {
			t.Fatalf("case %d: Landed() = %v, want %v", i, c.d.Landed(), c.want)
		}
	}
}

func TestPointTextRoundTrip(t *testing.T) {
	for pt := Point(0); pt < NumPoints; pt++ {
		b, err := json.Marshal(pt)
		if err != nil {
			t.Fatalf("%v: marshal: %v", pt, err)
		}
		var back Point
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("%v: unmarshal %s: %v", pt, b, err)
		}
		if back != pt {
			t.Fatalf("%s decoded to %v, want %v", b, back, pt)
		}
	}
	var p Point
	if err := p.UnmarshalText([]byte("no-such-point")); err == nil {
		t.Fatal("unknown point name decoded without error")
	}
}

func TestTornTracksLastDataPersist(t *testing.T) {
	p := New(1)
	const a, b = 0x1000, 0x2000
	p.NoteDataPersist(a, false)
	p.NoteDataPersist(b, true)
	if !p.Torn(a) || p.Torn(b) {
		t.Fatalf("torn(a)=%v torn(b)=%v, want true false", p.Torn(a), p.Torn(b))
	}
	p.NoteDataPersist(a, true)
	if p.Torn(a) {
		t.Fatal("a full rewrite did not clear the torn mark")
	}
}
