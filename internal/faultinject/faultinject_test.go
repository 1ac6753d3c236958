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
		if d := p.Hit(CtrWrite); d != (Decision{}) {
			t.Fatalf("hit %d: %+v before the armed point", i, d)
		}
	}
	d := p.Hit(DataWrite)
	if !errors.Is(d.Err, ErrCrash) {
		t.Fatalf("crash error %v does not wrap ErrCrash", d.Err)
	}
	pt, n, ok := p.Crashed()
	if !ok || pt != DataWrite || n != 3 {
		t.Fatalf("Crashed() = %v %d %v, want data-write 3 true", pt, n, ok)
	}
	// After the crash the plane is inert: recovery traffic must not fault.
	if d := p.Hit(CtrWrite); d != (Decision{}) {
		t.Fatalf("post-crash hit faulted: %+v", d)
	}
	if p.Hits() != 3 {
		t.Fatalf("Hits() = %d, want 3 (post-crash hits not counted)", p.Hits())
	}
}

// TestHitsAfterCrashCounted: the inert plane counts the persist points
// reached after its crash, and only those.
func TestHitsAfterCrashCounted(t *testing.T) {
	p := New(1)
	p.ArmCrashAt(2)
	p.Hit(CtrWrite)
	p.Hit(DataWrite)
	if n := p.HitsAfterCrash(); n != 0 {
		t.Fatalf("HitsAfterCrash() = %d at the crash, want 0", n)
	}
	p.Hit(CtrWrite)
	p.Hit(BMTUpdate)
	if n := p.HitsAfterCrash(); n != 2 {
		t.Fatalf("HitsAfterCrash() = %d after two more hits, want 2", n)
	}
	var nilPlane *Plane
	if nilPlane.HitsAfterCrash() != 0 {
		t.Fatal("nil plane reports hits after a crash")
	}
}

func TestDecisionsDeterministicForSeed(t *testing.T) {
	run := func(seed int64) []Decision {
		p := New(seed)
		p.ArmCrashAt(5)
		var out []Decision
		for i := 0; i < 6; i++ {
			out = append(out, p.Hit(CtrWrite))
		}
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if (a[i].Err == nil) != (b[i].Err == nil) || a[i].KeepWords != b[i].KeepWords {
			t.Fatalf("hit %d differs across identical seeds: %+v vs %+v", i, a[i], b[i])
		}
	}
	if a[4].Err == nil || a[4].KeepWords < 0 || a[4].KeepWords > WordsPerLine {
		t.Fatalf("hit 5: %+v, want a crash keeping 0..%d words", a[4], WordsPerLine)
	}
}

func TestNilPlaneIsInert(t *testing.T) {
	var p *Plane
	if d := p.Hit(CtrWrite); d != (Decision{}) {
		t.Fatal("nil plane must decide the zero Decision")
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
		{Decision{}, true},
		{Decision{KeepWords: 0, Err: ErrCrash}, false},
		{Decision{KeepWords: 3, Err: ErrCrash}, false},
		{Decision{KeepWords: WordsPerLine, Err: ErrCrash}, true},
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
