package workload

import (
	"reflect"
	"strings"
	"sync"
	"testing"
)

// same reports whether two scripts share one backing op array.
func same(a, b Script) bool {
	return len(a.Ops) > 0 && len(b.Ops) > 0 && &a.Ops[0] == &b.Ops[0]
}

func mustGet(t *testing.T, c *Cache, k Key) Script {
	t.Helper()
	s, err := c.Get(k)
	if err != nil {
		t.Fatalf("Get(%+v): %v", k, err)
	}
	if len(s.Ops) == 0 {
		t.Fatalf("Get(%+v) returned an empty script", k)
	}
	return s
}

// TestScriptInterning pins the cache: one key resolves to one shared
// script, every field of the key selects its own slot, and a nil cache
// builds afresh on every call.
func TestScriptInterning(t *testing.T) {
	var c Cache
	base := Key{Name: "forkbench", Seed: 1, Quick: true}
	a := mustGet(t, &c, base)
	if b := mustGet(t, &c, base); !same(a, b) {
		t.Error("one key built twice: two Gets returned distinct Ops")
	}
	variants := map[string]Key{
		"huge":     {Name: "forkbench", Seed: 1, Quick: true, Huge: true},
		"quick":    {Name: "forkbench", Seed: 1},
		"regionKB": {Name: "forkbench", Seed: 1, Quick: true, RegionKB: 256},
		"seed":     {Name: "forkbench", Seed: 2, Quick: true},
	}
	got := map[string]Script{}
	for name, k := range variants {
		s := mustGet(t, &c, k)
		if same(s, a) {
			t.Errorf("%s: shares the base key's slot", name)
		}
		for other, o := range got {
			if same(s, o) {
				t.Errorf("%s and %s share one slot", name, other)
			}
		}
		got[name] = s
	}

	var bare *Cache
	e, f := mustGet(t, bare, base), mustGet(t, bare, base)
	if same(e, f) {
		t.Error("nil cache interned a script")
	}
	if !reflect.DeepEqual(e, a) {
		t.Error("nil-cache build differs from the cached script")
	}
}

// TestKeyForkbenchScaling pins the Quick and RegionKB rule against the
// explicit parameters it replaces: a 4 MB region (8 MB with huge pages)
// under Quick, and RegionKB overriding the region outright, Quick or not.
func TestKeyForkbenchScaling(t *testing.T) {
	for _, huge := range []bool{false, true} {
		quick := DefaultForkbench(huge)
		quick.RegionBytes = 4 << 20
		if huge {
			quick.RegionBytes = 8 << 20
		}
		region := DefaultForkbench(huge)
		region.RegionBytes = 128 << 10
		for _, tc := range []struct {
			k    Key
			want ForkbenchParams
		}{
			{Key{Name: "forkbench", Huge: huge}, DefaultForkbench(huge)},
			{Key{Name: "forkbench", Huge: huge, Quick: true}, quick},
			{Key{Name: "forkbench", Huge: huge, RegionKB: 128}, region},
			{Key{Name: "forkbench", Huge: huge, Quick: true, RegionKB: 128}, region},
		} {
			if got := tc.k.Forkbench(); got != tc.want {
				t.Errorf("%+v: params %+v, want %+v", tc.k, got, tc.want)
			}
			if tc.want == DefaultForkbench(huge) {
				continue // params suffice: Build hands them to Forkbench as below
			}
			s, err := Build(tc.k)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(s, Forkbench(tc.want)) {
				t.Errorf("%+v: script differs op for op from Forkbench(%+v)", tc.k, tc.want)
			}
		}
	}
}

// TestBuildLooksUpCatalogue checks that a non-forkbench key builds the
// named catalogue generator with the key's seed, and that a name outside
// the catalogue (a use case among them) is an error, cached like a script.
func TestBuildLooksUpCatalogue(t *testing.T) {
	for _, tc := range []struct {
		k    Key
		want Script
	}{
		{Key{Name: "mariadb", Seed: 3}, MariaDB(false, 3)},
		{Key{Name: "non-copy", Huge: true}, NonCopy(true, 0)},
	} {
		s, err := Build(tc.k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(s, tc.want) {
			t.Errorf("%+v: script differs from its generator's", tc.k)
		}
	}
	var c Cache
	for _, name := range []string{"nope", "nope", "snapshot"} {
		if _, err := c.Get(Key{Name: name}); err == nil || !strings.Contains(err.Error(), `"`+name+`"`) {
			t.Fatalf("Get(%s) = %v, want an unknown-workload error", name, err)
		}
	}
}

// TestCacheConcurrentGet races first requests for one key: every caller
// must get the one script the cache keeps.
func TestCacheConcurrentGet(t *testing.T) {
	var c Cache
	k := Key{Name: "forkbench", Seed: 1, RegionKB: 512}
	got := make([]Script, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], _ = c.Get(k)
		}()
	}
	wg.Wait()
	for i, s := range got {
		if !same(s, got[0]) {
			t.Fatalf("caller %d got a different script than caller 0", i)
		}
	}
}
