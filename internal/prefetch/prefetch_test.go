package prefetch

import "testing"

func TestParseMode(t *testing.T) {
	cases := []struct {
		in   string
		want Mode
		err  bool
	}{
		{"", Off, false},
		{"off", Off, false},
		{"delta", Delta, false},
		{"chain", Chain, false},
		{"both", Both, false},
		{"BOTH", Both, false},
		{"Delta", Delta, false},
		{"mshr", Off, true},
	}
	for _, c := range cases {
		got, err := ParseMode(c.in)
		if (err != nil) != c.err || got != c.want {
			t.Errorf("ParseMode(%q) = (%v, %v), want (%v, err=%v)", c.in, got, err, c.want, c.err)
		}
	}
}

func TestModeString(t *testing.T) {
	for m, want := range map[Mode]string{Off: "off", Delta: "delta", Chain: "chain", Both: "both"} {
		if m.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(m), m.String(), want)
		}
	}
}

func TestNewOffIsNil(t *testing.T) {
	if New(Config{}) != nil {
		t.Error("New of the zero config must return nil — the engine's hooks gate on it")
	}
	if New(Config{Mode: Off, Depth: 9}) != nil {
		t.Error("a non-zero depth must not enable a disabled unit")
	}
	modes := map[Mode][2]bool{ // mode -> {DeltaOn, ChainOn}
		Delta: {true, false},
		Chain: {false, true},
		Both:  {true, true},
	}
	for m, want := range modes {
		u := New(Config{Mode: m})
		if u == nil {
			t.Fatalf("New(%v) = nil", m)
		}
		if u.DeltaOn() != want[0] || u.ChainOn() != want[1] {
			t.Errorf("%v: DeltaOn=%v ChainOn=%v, want %v %v", m, u.DeltaOn(), u.ChainOn(), want[0], want[1])
		}
	}
}

// TestObserveLearnsStride walks the classic stride FSM: the first access
// tags the region, the second learns the delta, two confirmations arm the
// entry, and from then on every matching access predicts depth pages ahead.
func TestObserveLearnsStride(t *testing.T) {
	u := New(Config{Mode: Delta, Depth: 3})
	base := uint64(128) // region 2
	accesses := []struct {
		page  uint64
		wantD int64
		wantN int
	}{
		{base, 0, 0},      // tag the region
		{base + 8, 0, 0},  // learn delta 8
		{base + 16, 0, 0}, // first confirmation (conf 1)
		{base + 24, 8, 3}, // second confirmation arms the entry
		{base + 32, 8, 3}, // armed: keeps predicting
		{base + 33, 8, 3}, // outlier: conf decays 3->2, stride still armed
		{base + 41, 8, 3}, // stride resumes, conf saturates again
	}
	for i, a := range accesses {
		d, n := u.Observe(a.page)
		if d != a.wantD && a.wantN != 0 || n != a.wantN {
			t.Errorf("access %d (page %d): Observe = (%d, %d), want (%d, %d)", i, a.page, d, n, a.wantD, a.wantN)
		}
	}
}

// TestObserveRetrainsAfterDecay pins the mispredict path: a changed stride
// first drains confidence without touching the learned delta, then retrains
// the entry once confidence hits zero.
func TestObserveRetrainsAfterDecay(t *testing.T) {
	u := New(Config{Mode: Delta})
	for _, p := range []uint64{0, 8, 16, 24} { // arm stride 8 (conf 2)
		u.Observe(p)
	}
	seq := []struct {
		page  uint64
		wantN int
	}{
		{27, 0},            // delta 3: conf 2 -> 1, stride kept
		{30, 0},            // delta 3: conf 1 -> 0, stride kept
		{33, 0},            // delta 3: conf 0 -> retrain to stride 3
		{36, 0},            // confirmation (conf 1)
		{39, DefaultDepth}, // armed on the new stride
	}
	for i, s := range seq {
		d, n := u.Observe(s.page)
		if n != s.wantN {
			t.Errorf("access %d (page %d): n = %d, want %d", i, s.page, n, s.wantN)
		}
		if n > 0 && d != 3 {
			t.Errorf("access %d: retrained delta = %d, want 3", i, d)
		}
	}
}

// TestObserveSamePageIsNoSignal pins the line-sweep filter: repeated
// accesses to one page (64 line touches of one counter block) carry no
// stride information and must not disturb a learned pattern.
func TestObserveSamePageIsNoSignal(t *testing.T) {
	u := New(Config{Mode: Delta})
	for _, p := range []uint64{0, 8, 16, 24} {
		u.Observe(p)
	}
	for i := 0; i < 5; i++ {
		if _, n := u.Observe(24); n != 0 {
			t.Fatalf("same-page access %d predicted %d pages", i, n)
		}
	}
	if d, n := u.Observe(32); n != DefaultDepth || d != 8 {
		t.Errorf("stride after same-page run: (%d, %d), want (8, %d)", d, n, DefaultDepth)
	}
}

// TestObserveRegionsTrainIndependently interleaves two streams with
// different strides in different 64-page regions: each must arm its own
// table entry despite the interleaving.
func TestObserveRegionsTrainIndependently(t *testing.T) {
	u := New(Config{Mode: Delta})
	var armedA, armedB bool
	for i := uint64(0); i < 8; i++ {
		if d, n := u.Observe(0 + i*4); n > 0 {
			armedA = true
			if d != 4 {
				t.Errorf("region 0 armed with delta %d, want 4", d)
			}
		}
		if d, n := u.Observe(64 + i*2); n > 0 {
			armedB = true
			if d != 2 {
				t.Errorf("region 1 armed with delta %d, want 2", d)
			}
		}
	}
	if !armedA || !armedB {
		t.Errorf("interleaved regions trained: A=%v B=%v, want both", armedA, armedB)
	}
}

// TestObserveTableCollisionRetags pins the direct-mapped replacement: a
// region aliasing onto an armed entry's slot resets it.
func TestObserveTableCollisionRetags(t *testing.T) {
	u := New(Config{Mode: Delta})
	for _, p := range []uint64{0, 8, 16, 24} { // arm region 0
		u.Observe(p)
	}
	alias := uint64(tableSize * 64) // region tableSize aliases slot 0
	if _, n := u.Observe(alias); n != 0 {
		t.Fatal("aliasing access predicted from the stale entry")
	}
	if _, n := u.Observe(32); n != 0 {
		t.Error("original region still armed after its slot was re-tagged")
	}
}

func TestObserveDepthConfig(t *testing.T) {
	for _, c := range []struct{ depth, want int }{{0, DefaultDepth}, {-3, DefaultDepth}, {2, 2}, {9, 9}} {
		u := New(Config{Mode: Delta, Depth: c.depth})
		var got int
		for _, p := range []uint64{0, 8, 16, 24} {
			_, got = u.Observe(p)
		}
		if got != c.want {
			t.Errorf("Depth %d: predicted %d pages, want %d", c.depth, got, c.want)
		}
	}
}

// TestAdmitChainWalk pins the trigger filter: one walk per destination page
// until another destination displaces the slot, after which the original is
// re-admitted (a collision costs at most a redundant walk, never a miss).
func TestAdmitChainWalk(t *testing.T) {
	u := New(Config{Mode: Chain})
	if !u.AdmitChainWalk(5) {
		t.Fatal("first admission refused")
	}
	if u.AdmitChainWalk(5) {
		t.Fatal("steady re-reads must walk once")
	}
	if !u.AdmitChainWalk(5 + filterSize) {
		t.Fatal("colliding destination refused")
	}
	if !u.AdmitChainWalk(5) {
		t.Fatal("displaced destination not re-admitted")
	}
}

// TestReset pins the power-cycle contract: predictor and filter both
// clear, matching the cold metadata caches the unit fills.
func TestReset(t *testing.T) {
	u := New(Config{Mode: Both})
	for _, p := range []uint64{0, 8, 16, 24} {
		u.Observe(p)
	}
	u.AdmitChainWalk(3)
	u.Reset()
	if _, n := u.Observe(32); n != 0 {
		t.Error("delta table survived Reset")
	}
	if !u.AdmitChainWalk(3) {
		t.Error("walk filter survived Reset")
	}
}

func TestWalkCap(t *testing.T) {
	if u := New(Config{Mode: Chain}); u.WalkCap() != walkCap {
		t.Errorf("WalkCap = %d, want %d", u.WalkCap(), walkCap)
	}
}
