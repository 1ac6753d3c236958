package core

import "testing"

// TestPersistStrategyTables pins the declared durability of each strategy —
// the recovery-cost model and the fault plane's persist-point schedule both
// key off these answers, so a drifting table silently re-prices recovery.
func TestPersistStrategyTables(t *testing.T) {
	const inner, treeLevels = 5, 6
	cases := []struct {
		s            PersistStrategy
		name         string
		leafDurable  bool
		durableInner int
		eagerCoW     bool
		perPersist   uint64
	}{
		{StrictPersist(), "strict", true, inner, true, treeLevels},
		{PersistStrategy{}, "strict", true, inner, true, treeLevels}, // the zero value
		{PhoenixPersist(), "phoenix", true, 0, false, 1},
		{TriadPersist(1), "triad:1", false, 0, false, 0},
		{TriadPersist(2), "triad:2", true, 0, true, 1},
		{TriadPersist(3), "triad:3", true, 1, true, 2},
		{TriadPersist(9), "triad:9", true, inner, true, treeLevels},
		{TriadPersist(0), "triad:1", false, 0, false, 0}, // clamped up
	}
	for _, c := range cases {
		if got := c.s.Name(); got != c.name {
			t.Errorf("Name() = %q, want %q", got, c.name)
		}
		if got := c.s.LeafDigestsDurable(); got != c.leafDurable {
			t.Errorf("%s: LeafDigestsDurable() = %v, want %v", c.name, got, c.leafDurable)
		}
		if got := c.s.DurableInnerLevels(inner); got != c.durableInner {
			t.Errorf("%s: DurableInnerLevels(%d) = %d, want %d", c.name, inner, got, c.durableInner)
		}
		if got := c.s.EagerCoWMeta(); got != c.eagerCoW {
			t.Errorf("%s: EagerCoWMeta() = %v, want %v", c.name, got, c.eagerCoW)
		}
		if got := c.s.NodesPerCounterPersist(treeLevels); got != c.perPersist {
			t.Errorf("%s: NodesPerCounterPersist(%d) = %d, want %d", c.name, treeLevels, got, c.perPersist)
		}
	}
	if (PersistStrategy{}) != StrictPersist() {
		t.Errorf("the zero PersistStrategy %+v differs from StrictPersist() %+v", PersistStrategy{}, StrictPersist())
	}
}

func TestParsePersist(t *testing.T) {
	good := map[string]string{
		"":        "strict",
		"strict":  "strict",
		"phoenix": "phoenix",
		"triad:1": "triad:1",
		"triad:4": "triad:4",
	}
	for in, want := range good {
		s, err := ParsePersist(in)
		if err != nil {
			t.Fatalf("ParsePersist(%q): %v", in, err)
		}
		if s.Name() != want {
			t.Errorf("ParsePersist(%q).Name() = %q, want %q", in, s.Name(), want)
		}
	}
	for _, in := range []string{"lazy", "triad", "triad:", "triad:0", "triad:-1", "triad:x", "Strict"} {
		if _, err := ParsePersist(in); err == nil {
			t.Errorf("ParsePersist(%q) must fail", in)
		}
	}
}
