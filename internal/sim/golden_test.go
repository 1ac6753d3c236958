package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"lelantus/internal/core"
	"lelantus/internal/workload"
)

// quickForkbench is the grid's quick forkbench cell: a 4 MiB region of
// 4 KB pages.
func quickForkbench() workload.Script {
	p := workload.DefaultForkbench(false)
	p.RegionBytes = 4 << 20
	return workload.Forkbench(p)
}

// goldenDigest is the hex SHA-256 of v's JSON encoding.
func goldenDigest(t *testing.T, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// checkGolden compares one case's digest against its literal.
func checkGolden(t *testing.T, want map[string]string, name, got string) {
	t.Helper()
	if w, ok := want[name]; !ok {
		t.Errorf("%s: no golden digest (got %q)", name, got)
	} else if got != w {
		t.Errorf("%s: digest %s, want %s", name, got, w)
	}
}

// TestGoldenResults pins the exact output of the simulator as literal
// digests: every sim.Result field of a set of scripts over every scheme,
// both fidelities, non-secure mode and both MLP settings, the
// crash-and-recover cells of the quick forkbench under two persistence
// strategies, and crash cells of the overflow script where recovery
// detects a torn counter block or a lost data line. A refactor that claims to keep reports byte-identical must
// leave every digest unchanged; a deliberate model change updates the
// literals and says why.
func TestGoldenResults(t *testing.T) {
	type script struct {
		name      string
		seed      int64
		build     func() workload.Script
		nonSecure bool // also pin the non-secure (plaintext, no pad) mode
	}
	scripts := []script{
		{"rand1", 1, func() workload.Script { return randomScript(1) }, true},
		{"rand2", 2, func() workload.Script { return randomScript(2) }, false},
		{"rand3", 3, func() workload.Script { return randomScript(3) }, false},
		{"overflow", 2, overflowScript, true},
		{"forkbench", 1, quickForkbench, true},
	}
	modes := []string{"full", "timing", "nonsecure"}
	if testing.Short() {
		scripts = []script{scripts[0], scripts[3]}
	}
	for _, sc := range scripts {
		s := sc.build()
		for _, scheme := range core.Schemes() {
			for _, mode := range modes {
				if mode == "nonsecure" && !sc.nonSecure {
					continue
				}
				for _, mlp := range []bool{false, true} {
					name := fmt.Sprintf("%s/%v/%s/mlp=%v", sc.name, scheme, mode, mlp)
					f := core.FidelityFull
					if mode == "timing" {
						f = core.FidelityTiming
					}
					cfg := fidelityConfig(scheme, f, sc.seed)
					cfg.Mem.Core.NonSecure = mode == "nonsecure"
					cfg.Mem.Core.MLP.Enabled = mlp
					res, err := RunWith(cfg, s)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					checkGolden(t, goldenResults, name, goldenDigest(t, res))
				}
			}
		}
	}

	for _, c := range goldenCrashes() {
		cell, err := CrashAt(c.cfg, c.script, 1, c.n)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if r := cell.Report; c.detects && (r.TornBlocks != c.torn || r.MACMismatches != c.lost) {
			t.Errorf("%s: %d torn blocks and %d MAC mismatches, want %d and %d", c.name, r.TornBlocks, r.MACMismatches, c.torn, c.lost)
		}
		checkGolden(t, goldenCrashCells, c.name, goldenDigest(t, cell))
	}
}

// goldenCrash is one crash-and-recover cell TestGoldenResults pins: the
// script under cfg, crashed at persist point n with fault seed 1.
type goldenCrash struct {
	name   string
	cfg    Config
	script workload.Script
	n      uint64
	// detects, when set, requires recovery to report exactly the torn
	// counter-block count torn and the MAC-mismatch count lost.
	detects    bool
	torn, lost uint64
}

// goldenCrashes lists the crash cells TestGoldenResults pins: the quick
// forkbench under two persistence strategies, and the overflow script
// where recovery detects a torn counter block or a lost data line.
func goldenCrashes() []goldenCrash {
	var cells []goldenCrash
	points := []uint64{100, 1000}
	if testing.Short() {
		points = points[:1]
	}
	fb := quickForkbench()
	for _, scheme := range core.Schemes() {
		for _, strat := range []core.PersistStrategy{core.StrictPersist(), core.PhoenixPersist()} {
			for _, mlp := range []bool{false, true} {
				for _, n := range points {
					cfg := fidelityConfig(scheme, core.FidelityFull, 1)
					cfg.Mem.Core.Persist = strat
					cfg.Mem.Core.MLP.Enabled = mlp
					name := fmt.Sprintf("crash/%v/%s/mlp=%v/%d", scheme, strat.Name(), mlp, n)
					cells = append(cells, goldenCrash{name: name, cfg: cfg, script: fb, n: n})
				}
			}
		}
	}

	// The forkbench cells above detect nothing. These crash the overflow
	// script where recovery must: point 66 tears a counter block (pass 1's
	// digest check), and macPoint loses a data line (pass 4's MAC scrub).
	// The counts are asserted so the pins cannot go vacuous.
	macPoint := map[core.Scheme]uint64{core.Baseline: 70, core.SilentShredder: 70, core.Lelantus: 196, core.LelantusCoW: 200}
	ov := overflowScript()
	for _, scheme := range core.Schemes() {
		for _, mlp := range []bool{false, true} {
			for _, p := range []struct{ n, torn, lost uint64 }{{66, 1, 0}, {macPoint[scheme], 0, 1}} {
				cfg := fidelityConfig(scheme, core.FidelityFull, 1)
				cfg.Mem.Core.MLP.Enabled = mlp
				name := fmt.Sprintf("crash/overflow/%v/mlp=%v/%d", scheme, mlp, p.n)
				cells = append(cells, goldenCrash{name, cfg, ov, p.n, true, p.torn, p.lost})
			}
		}
	}
	return cells
}

// TestGoldenCrashesStopTheMachine: in every crash cell TestGoldenResults
// pins, no persist point is reached between the crash firing and the power
// cycle (TestCrashStopsTheMachine covers the crash sweep's matrix).
func TestGoldenCrashesStopTheMachine(t *testing.T) {
	for _, c := range goldenCrashes() {
		_, plane, err := runToCrash(c.cfg, c.script, 1, c.n)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if late := plane.HitsAfterCrash(); late != 0 {
			t.Errorf("%s: %d persist points reached before the power cycle", c.name, late)
		}
	}
}

var goldenResults = map[string]string{
	"rand1/baseline/full/mlp=false":              "bdce0f13f66d2bdb1f40cd59f8ef409943a596fff19bfef30b81a9bffa641ac5",
	"rand1/baseline/full/mlp=true":               "1abce3490fdaa732e7f3ac15bb1434d14e94418cd235ecdd32aa60065511ddac",
	"rand1/baseline/timing/mlp=false":            "bdce0f13f66d2bdb1f40cd59f8ef409943a596fff19bfef30b81a9bffa641ac5",
	"rand1/baseline/timing/mlp=true":             "1abce3490fdaa732e7f3ac15bb1434d14e94418cd235ecdd32aa60065511ddac",
	"rand1/silent-shredder/full/mlp=false":       "893b4a55d60f6751661859fa40b00f2767f51ae2bdaeda1ee8eed7e39ec8fbb1",
	"rand1/silent-shredder/full/mlp=true":        "39b793293a6e29226d1e517602c2c320ec2d1d77bb6482ac4d2391fed2a9ac35",
	"rand1/silent-shredder/timing/mlp=false":     "893b4a55d60f6751661859fa40b00f2767f51ae2bdaeda1ee8eed7e39ec8fbb1",
	"rand1/silent-shredder/timing/mlp=true":      "39b793293a6e29226d1e517602c2c320ec2d1d77bb6482ac4d2391fed2a9ac35",
	"rand1/lelantus/full/mlp=false":              "1dc2efbc0afff9c958a84a1ad963ff5860ee2bc896fac0e80be871cadbdde8b0",
	"rand1/lelantus/full/mlp=true":               "dbd4bd3ec4f8015f493ea8ca4af9df03e77bd4ceb37efcc6efc8cbcf02042794",
	"rand1/lelantus/timing/mlp=false":            "1dc2efbc0afff9c958a84a1ad963ff5860ee2bc896fac0e80be871cadbdde8b0",
	"rand1/lelantus/timing/mlp=true":             "dbd4bd3ec4f8015f493ea8ca4af9df03e77bd4ceb37efcc6efc8cbcf02042794",
	"rand1/lelantus-cow/full/mlp=false":          "8841627bce3b468a2aaf057895ca73c10c20855a377b39c8a2084a3150865333",
	"rand1/lelantus-cow/full/mlp=true":           "9ffcde480a5491261e48063d665660c259973b1bbd7965ba5a4fbb555b69f963",
	"rand1/lelantus-cow/timing/mlp=false":        "8841627bce3b468a2aaf057895ca73c10c20855a377b39c8a2084a3150865333",
	"rand1/lelantus-cow/timing/mlp=true":         "9ffcde480a5491261e48063d665660c259973b1bbd7965ba5a4fbb555b69f963",
	"rand2/baseline/full/mlp=false":              "451eece3de2b776f062aeec1c95e58d6b01ee81dd670ed139189203ecf295104",
	"rand2/baseline/full/mlp=true":               "9fcec0397f8b88813b68665b947a5aa7e5a31e35fd9f98aeded37fdb74935122",
	"rand2/baseline/timing/mlp=false":            "451eece3de2b776f062aeec1c95e58d6b01ee81dd670ed139189203ecf295104",
	"rand2/baseline/timing/mlp=true":             "9fcec0397f8b88813b68665b947a5aa7e5a31e35fd9f98aeded37fdb74935122",
	"rand2/silent-shredder/full/mlp=false":       "e050c1b3a64ef2ac0032464cb1c53147d335860508349d7f4590e6ff1a580216",
	"rand2/silent-shredder/full/mlp=true":        "a2f6d751256d95222b8bb434aaa1a24463f5684446df4131c52434661e453eb8",
	"rand2/silent-shredder/timing/mlp=false":     "e050c1b3a64ef2ac0032464cb1c53147d335860508349d7f4590e6ff1a580216",
	"rand2/silent-shredder/timing/mlp=true":      "a2f6d751256d95222b8bb434aaa1a24463f5684446df4131c52434661e453eb8",
	"rand2/lelantus/full/mlp=false":              "9d31681e688e7b4727f0c05aa56655d598d1254027cf4d42b35c25ea3a63ef0e",
	"rand2/lelantus/full/mlp=true":               "0d75749bed5924e616fd5c3c66cd23535b60c9f6fb0b2b481c817f6a3427e3eb",
	"rand2/lelantus/timing/mlp=false":            "9d31681e688e7b4727f0c05aa56655d598d1254027cf4d42b35c25ea3a63ef0e",
	"rand2/lelantus/timing/mlp=true":             "0d75749bed5924e616fd5c3c66cd23535b60c9f6fb0b2b481c817f6a3427e3eb",
	"rand2/lelantus-cow/full/mlp=false":          "b107ce807db2416d0d5fb224757c376a6093f154da8c84943475d1ab4dd3b9d2",
	"rand2/lelantus-cow/full/mlp=true":           "ae2a795299abf25094c2b674daa4e88bc71f80e4eab3e6e36a08dc213fbfea5b",
	"rand2/lelantus-cow/timing/mlp=false":        "b107ce807db2416d0d5fb224757c376a6093f154da8c84943475d1ab4dd3b9d2",
	"rand2/lelantus-cow/timing/mlp=true":         "ae2a795299abf25094c2b674daa4e88bc71f80e4eab3e6e36a08dc213fbfea5b",
	"rand3/baseline/full/mlp=false":              "4af5a4a8365198dcddafd83a3bb3edb616e1994d4871108b04da8e7cb4c45a0b",
	"rand3/baseline/full/mlp=true":               "0825ad9495a252e1ec862e160063e658abf1fd4f04481008b3ef4e2ea6e7a4e1",
	"rand3/baseline/timing/mlp=false":            "4af5a4a8365198dcddafd83a3bb3edb616e1994d4871108b04da8e7cb4c45a0b",
	"rand3/baseline/timing/mlp=true":             "0825ad9495a252e1ec862e160063e658abf1fd4f04481008b3ef4e2ea6e7a4e1",
	"rand3/silent-shredder/full/mlp=false":       "5b49d6b94a0ae087c1387731bfc907af5818e8d1293ff7eefdf1b3e3effb2253",
	"rand3/silent-shredder/full/mlp=true":        "233773233dcc6950a65a3685f1219b7b1f4c1d34038785ebdf3fb5cf1db2549e",
	"rand3/silent-shredder/timing/mlp=false":     "5b49d6b94a0ae087c1387731bfc907af5818e8d1293ff7eefdf1b3e3effb2253",
	"rand3/silent-shredder/timing/mlp=true":      "233773233dcc6950a65a3685f1219b7b1f4c1d34038785ebdf3fb5cf1db2549e",
	"rand3/lelantus/full/mlp=false":              "039a17ae7bb2cf664a324ffa56ac903f1646457e976b456a00efbf6e096978b4",
	"rand3/lelantus/full/mlp=true":               "e3769290cc0209467e17ab63ec0a15fb733058acd395ed7c1915684321e1e050",
	"rand3/lelantus/timing/mlp=false":            "039a17ae7bb2cf664a324ffa56ac903f1646457e976b456a00efbf6e096978b4",
	"rand3/lelantus/timing/mlp=true":             "e3769290cc0209467e17ab63ec0a15fb733058acd395ed7c1915684321e1e050",
	"rand3/lelantus-cow/full/mlp=false":          "cac32feee3eecb9a08a637650d0bbc31694dd8440c3179162d75240424b54a5b",
	"rand3/lelantus-cow/full/mlp=true":           "0b2fad1f242778dfd7f069f12d5a680b199286fcb1c27771bb5e70a663b0fb9d",
	"rand3/lelantus-cow/timing/mlp=false":        "cac32feee3eecb9a08a637650d0bbc31694dd8440c3179162d75240424b54a5b",
	"rand3/lelantus-cow/timing/mlp=true":         "0b2fad1f242778dfd7f069f12d5a680b199286fcb1c27771bb5e70a663b0fb9d",
	"overflow/baseline/full/mlp=false":           "9f99e6ae4b774fb4726c7c73056bed43f6c66cd32ac40e7000300ca6c792a11c",
	"overflow/baseline/full/mlp=true":            "ce91cb0980485753829b63f62fb7bd16222b02263dff49b81db6588bba0ccd52",
	"overflow/baseline/timing/mlp=false":         "9f99e6ae4b774fb4726c7c73056bed43f6c66cd32ac40e7000300ca6c792a11c",
	"overflow/baseline/timing/mlp=true":          "ce91cb0980485753829b63f62fb7bd16222b02263dff49b81db6588bba0ccd52",
	"overflow/silent-shredder/full/mlp=false":    "a8b3a007d312a9144fedeb99999c5ee7b58749b502a71bf31f389e87629f049e",
	"overflow/silent-shredder/full/mlp=true":     "8d6c8243f83be8fe96c70e7b0a41281390810bb9c75f23b01203eb5a7c78280f",
	"overflow/silent-shredder/timing/mlp=false":  "a8b3a007d312a9144fedeb99999c5ee7b58749b502a71bf31f389e87629f049e",
	"overflow/silent-shredder/timing/mlp=true":   "8d6c8243f83be8fe96c70e7b0a41281390810bb9c75f23b01203eb5a7c78280f",
	"overflow/lelantus/full/mlp=false":           "4787ef7ee0c4de490d00ad1b5aa38feb577288983626969cfe94f12e6cb78467",
	"overflow/lelantus/full/mlp=true":            "8067619a830916f38ad369b3d77c0ae506757c4cbca627392ec1fd62899b8263",
	"overflow/lelantus/timing/mlp=false":         "4787ef7ee0c4de490d00ad1b5aa38feb577288983626969cfe94f12e6cb78467",
	"overflow/lelantus/timing/mlp=true":          "8067619a830916f38ad369b3d77c0ae506757c4cbca627392ec1fd62899b8263",
	"overflow/lelantus-cow/full/mlp=false":       "08da102e28b113622340c1f419beca1e7278b6c56fc9483f727d04b79bc98705",
	"overflow/lelantus-cow/full/mlp=true":        "8ba83ee5e08bc51f0a8ba3abeaa0afbdfeca2706da7311f0d1c0ed84bf4f46bb",
	"overflow/lelantus-cow/timing/mlp=false":     "08da102e28b113622340c1f419beca1e7278b6c56fc9483f727d04b79bc98705",
	"overflow/lelantus-cow/timing/mlp=true":      "8ba83ee5e08bc51f0a8ba3abeaa0afbdfeca2706da7311f0d1c0ed84bf4f46bb",
	"forkbench/baseline/full/mlp=false":          "de54b744d551ddc09a45a99358c12e8747dd4083661a4e2dd96dd45448a32525",
	"forkbench/baseline/full/mlp=true":           "eebf3e59883ca2cbf16818440f5c8ba935becbd03e1f5e4a3562bfaf6d7b3484",
	"forkbench/baseline/timing/mlp=false":        "de54b744d551ddc09a45a99358c12e8747dd4083661a4e2dd96dd45448a32525",
	"forkbench/baseline/timing/mlp=true":         "eebf3e59883ca2cbf16818440f5c8ba935becbd03e1f5e4a3562bfaf6d7b3484",
	"forkbench/silent-shredder/full/mlp=false":   "69a47a930cc9ddea4b34269a2dbb62fdc3c4c6795d9313dcde53a0af90357071",
	"forkbench/silent-shredder/full/mlp=true":    "449e1bf5625e656216bd792ae3a7583af63d56756eee4c90df23a4db0a176e2e",
	"forkbench/silent-shredder/timing/mlp=false": "69a47a930cc9ddea4b34269a2dbb62fdc3c4c6795d9313dcde53a0af90357071",
	"forkbench/silent-shredder/timing/mlp=true":  "449e1bf5625e656216bd792ae3a7583af63d56756eee4c90df23a4db0a176e2e",
	"forkbench/lelantus/full/mlp=false":          "42e45688132fc14bb28ec1f0bda982d945d5d41910dfae003a01afcd3d5a924a",
	"forkbench/lelantus/full/mlp=true":           "129ef964a87ec9bfd55c424b6cc04f325d59d04efe24082da67c2a30db832de2",
	"forkbench/lelantus/timing/mlp=false":        "42e45688132fc14bb28ec1f0bda982d945d5d41910dfae003a01afcd3d5a924a",
	"forkbench/lelantus/timing/mlp=true":         "129ef964a87ec9bfd55c424b6cc04f325d59d04efe24082da67c2a30db832de2",
	"forkbench/lelantus-cow/full/mlp=false":      "cd8acc025605534e58f6ee5359974e0d0fdebe01505a8c7631f130f2b130c40b",
	"forkbench/lelantus-cow/full/mlp=true":       "43de99ce77ff1b45eb7dfb9e9b49ee36328fb36549741a07ad8f4f5b5c7c264f",
	"forkbench/lelantus-cow/timing/mlp=false":    "cd8acc025605534e58f6ee5359974e0d0fdebe01505a8c7631f130f2b130c40b",
	"forkbench/lelantus-cow/timing/mlp=true":     "43de99ce77ff1b45eb7dfb9e9b49ee36328fb36549741a07ad8f4f5b5c7c264f",

	// Non-secure mode: plaintext at rest, no pads (paper Section III-G).
	"rand1/baseline/nonsecure/mlp=false":            "f98069ed43f7969d7cc06909cfcad1b8fea02eb634e96f2b4ee55d89017968ab",
	"rand1/baseline/nonsecure/mlp=true":             "a2e60b0faf9c3c0b218920111d60f5aabe862f1ab6b3e262fb3cfac4ca8ec99c",
	"rand1/silent-shredder/nonsecure/mlp=false":     "0fc29268434881568cf0e17d234bee31968da26a6880ee347b6a8d9ad8bce2ae",
	"rand1/silent-shredder/nonsecure/mlp=true":      "1874314fba94576f59c4af7f4b4edb1fda1d22badb4a20207e237e3c541b7422",
	"rand1/lelantus/nonsecure/mlp=false":            "485c63ccfc26a9663d423af7a71c34f5b685e648a51eaaaeac2650818991d2af",
	"rand1/lelantus/nonsecure/mlp=true":             "55f9836704cfd87b3f58d194cb11511d8fc2b049a545afcedc81fe1ad8b113bd",
	"rand1/lelantus-cow/nonsecure/mlp=false":        "3e0c3f8d1a0a66f6717caf1c8535e2a1c7b33a486d4324114f25d68014ed4351",
	"rand1/lelantus-cow/nonsecure/mlp=true":         "275aca1f444151764be8e3aa28f5855a8ee213c2dbc0fdf6bb8a78dde522f843",
	"overflow/baseline/nonsecure/mlp=false":         "3fd5b78c92a1346cc4a1a39666c22bb3d60bf0f18bbea493d85c575b33e24f92",
	"overflow/baseline/nonsecure/mlp=true":          "d5bcf3120952fa2f942b983e48f9712eba7a3fbeaec4a7a19080d14660fa6fcc",
	"overflow/silent-shredder/nonsecure/mlp=false":  "ceeced1d2e7f2d322f99c4c2d5fa0db2ffc0ca459cc41ef56b7dbfddcc6bcde8",
	"overflow/silent-shredder/nonsecure/mlp=true":   "f19afab381ab6ac6791551c0613336b9f365ded1a41c05e5328669672f6d257d",
	"overflow/lelantus/nonsecure/mlp=false":         "3ec929b50009852c932bb072793443468c0220ebf7ab4a2a676494d9a2fde055",
	"overflow/lelantus/nonsecure/mlp=true":          "5d34dff095de23b5eb5bb4f45835e965550de591bef5587aab4204e091317a36",
	"overflow/lelantus-cow/nonsecure/mlp=false":     "f966459976d6c4f1a59e7396642bb290d647f20c6225f83d079e85dfacd43d0a",
	"overflow/lelantus-cow/nonsecure/mlp=true":      "8aaa6375a7237ed64f83f08f04d61e8c78de1ec372226028c2e040cfb2e04bc6",
	"forkbench/baseline/nonsecure/mlp=false":        "e0b548d952ee6911746baaa44dc5fdc7ee5578e5ceb54122d174d0ce2d082138",
	"forkbench/baseline/nonsecure/mlp=true":         "33ab599a34cfb4e85839ebf8f10c90594f7d46c72d853c8eeffd7e18098a7749",
	"forkbench/silent-shredder/nonsecure/mlp=false": "682e9e22211ff3876482b3c5b0d874d31a9c77ad8b236ace94bda4bdbf2e8d97",
	"forkbench/silent-shredder/nonsecure/mlp=true":  "0c0618e0bd73ce84e0ad8fd4b6694d1e2ed7afea8cb64e31038ff5aea717c239",
	"forkbench/lelantus/nonsecure/mlp=false":        "f5426b90229b6fad6050947f9e270ceb22183c6bbc14b60840902ec1a7b403c7",
	"forkbench/lelantus/nonsecure/mlp=true":         "a1ae5bbb3d4c103c1a1933a78d5e7e23f9a40bddf71fe5a99a26dbcca594d32e",
	"forkbench/lelantus-cow/nonsecure/mlp=false":    "b9af9ba31cc9bbb9d610423b4f609e006f4ef94355bbc5228d4b8e4c574f68d9",
	"forkbench/lelantus-cow/nonsecure/mlp=true":     "b313857a126e8d225b2b2571465a62b74ebaf69aeed87ea2f91ca04cf660cb82",
}

var goldenCrashCells = map[string]string{
	"crash/baseline/strict/mlp=false/100":          "74fa1fcf0113d07df685d15d9d972de504434bce4314797e564c23453f3ab265",
	"crash/baseline/strict/mlp=false/1000":         "7ec84f503fcae5443a2ed583e116fb61638960fedc3cf2913132e2740938b55a",
	"crash/baseline/strict/mlp=true/100":           "e4c65cd508628843a6c043a9f8d770788bbfb8cdc2420ad0c1c38932ad5510f6",
	"crash/baseline/strict/mlp=true/1000":          "e8757beb82b229e96aee7e345a142cd55c74b05901d6dc277ef45dd0f68d8874",
	"crash/baseline/phoenix/mlp=false/100":         "7c335b1397630c5f4a420a1c8231245e42838b81b31da099124139262084c8c9",
	"crash/baseline/phoenix/mlp=false/1000":        "96740b253da6765d63a04739220599d32b5186aae95d3543190e05a7f1de1fd2",
	"crash/baseline/phoenix/mlp=true/100":          "29124a3b38a6b8eb1c0352c050f5f05e7cf25f4edbaf13709f1cd5a15d9cb98a",
	"crash/baseline/phoenix/mlp=true/1000":         "54b365eee7ac1ba34b94102003a3e9f4ee8b5dd8571c4f03b44a72e9e64faaf9",
	"crash/silent-shredder/strict/mlp=false/100":   "65739ce9582aa2d40729571005d482565cfdddb506e3aac4d4baff5545d80846",
	"crash/silent-shredder/strict/mlp=false/1000":  "d85d410ca12f4cf50baae768469dedcb10878a1eafbeedf84894247350f46019",
	"crash/silent-shredder/strict/mlp=true/100":    "dee6e56755125d233476c7a608ab4aab0c9c6b47eacda29d90a2fbc416c5b427",
	"crash/silent-shredder/strict/mlp=true/1000":   "9df1bd6804e9afcd4db449d75d98ff924348a035628aba9b9784af96676f2ffe",
	"crash/silent-shredder/phoenix/mlp=false/100":  "85820b448e9a6cc7e8295176ad8aa8d02a3891c6fc5b9f9396403a9a52119d13",
	"crash/silent-shredder/phoenix/mlp=false/1000": "b5049a0f73a6d08bb0b1e77faa6fd1ee088651856ff52f70d3f71b562a54e47c",
	"crash/silent-shredder/phoenix/mlp=true/100":   "57ec70f9694d3d617557a744e824b218911295c2fc0111a20c5450c967eee33b",
	"crash/silent-shredder/phoenix/mlp=true/1000":  "c29943d720810437b3f9dd26d9efdb2ed92ac5218fa786812b3dfc2ce562217a",
	"crash/lelantus/strict/mlp=false/100":          "b629c1cbccf0b9b4fe9355642c4690bb3bbc6fe67fc0a7144bbed77aa537be0f",
	"crash/lelantus/strict/mlp=false/1000":         "dcb435870a3b8774ee558097e170a060dc2b241288bab94ad916b99b3d893fc3",
	"crash/lelantus/strict/mlp=true/100":           "66a80b9ed3345492ba49b98b2cb4f684c2f6d192253d47e79a45ff541595beed",
	"crash/lelantus/strict/mlp=true/1000":          "47eb24032ca782fdfdaa0eb1f48d4097a8a94747436fe4aca6bf4b1d8a7cc78c",
	"crash/lelantus/phoenix/mlp=false/100":         "e9b17c968bafa25d398eeef297dd0d3864e104833ba69aa463d4bc2884f2574d",
	"crash/lelantus/phoenix/mlp=false/1000":        "c17747d378a5b5259114cc029cda071ec240714c16e38ffa6348d4667c89476b",
	"crash/lelantus/phoenix/mlp=true/100":          "dc5394211cf6ac30ff04c768124d21d0bfed3d9f81fe30cf91c865711dca7606",
	"crash/lelantus/phoenix/mlp=true/1000":         "bc8b19dfde9fc4681bef61047c48a280766966b8ac512399b0d24544b7f423a6",
	"crash/lelantus-cow/strict/mlp=false/100":      "ccfdc3a03e4db0b1915d1bfe8e5d9f1d22566d5a8b9ad58a37ff104fad42089c",
	"crash/lelantus-cow/strict/mlp=false/1000":     "8bda0096daea40d1136314e0e7bd99354f4e454c90722bc0b4547b043cb00507",
	"crash/lelantus-cow/strict/mlp=true/100":       "29648d672cdc88628679df5f49fe05d764c8eeccbde3dd1b3c36bcb37d78c735",
	"crash/lelantus-cow/strict/mlp=true/1000":      "cee2d3dd4a72147d33e66719492f22e749135eb09dc8c0e0aad086c1e04843ec",
	"crash/lelantus-cow/phoenix/mlp=false/100":     "367c179de2c6975b2f3bf66e4118f73b58369a0e05c3d438d3cb05bc51166dc8",
	"crash/lelantus-cow/phoenix/mlp=false/1000":    "b73a9219341a07a4ba4a41aaf75b7cfff2e525799778dd58fecf38d1202a8c1e",
	"crash/lelantus-cow/phoenix/mlp=true/100":      "acdec7d3716043a50435b3ccc6c3088180c87ff333363433d96cf759c522ca48",
	"crash/lelantus-cow/phoenix/mlp=true/1000":     "63634f689e6c8f5bcb9ba4fb18391d1353d927f882abcc6b22b3604a9df397d9",

	// Detecting cells: a torn counter block (66) and a lost data line.
	"crash/overflow/baseline/mlp=false/66":        "cf1634fb6528fc1077f0b1874cef45e6dd9c5f6b3f00135b8315cd59e1cd9eee",
	"crash/overflow/baseline/mlp=false/70":        "9c51dcb345fb4b7b04c6d9b921769497fed7f491205552eafa90d414528eec7b",
	"crash/overflow/baseline/mlp=true/66":         "37d71e047ae3cdd7ad5c9e1f5abfe1563c7a9ed8bd7d0fbd2e99eecc5c431972",
	"crash/overflow/baseline/mlp=true/70":         "f12a9f763304ddfd1cd98eb2c21d24413bee95b9f56278d425b4bd8fbd28ede8",
	"crash/overflow/silent-shredder/mlp=false/66": "83199ff968d8fed51f427d4caff207fa32383461a6789202f0839ce8f900039a",
	"crash/overflow/silent-shredder/mlp=false/70": "c725551bd0e43bc885df4d88dd2b68a476b3ddfde5841ad61e2bba5b89838802",
	"crash/overflow/silent-shredder/mlp=true/66":  "45b5524013a681454239d64b6fd11482b46f6f68fcc62d8557635426421597e1",
	"crash/overflow/silent-shredder/mlp=true/70":  "cf221080debb1753e2240bac57c84745f86019513655d231be3f765315c08580",
	"crash/overflow/lelantus/mlp=false/66":        "44d250558edcb11fe8df7f9b739d4b33d97f2460acf017b8ea2187d845e6af66",
	"crash/overflow/lelantus/mlp=false/196":       "11c0d26d870656a800d476ebb529897daf400e17c7c1f6e7d6878c038edf269b",
	"crash/overflow/lelantus/mlp=true/66":         "02926809e9ddff3adac5ea03f4a5358a25ec06c5b667de3248880a2e73419f1e",
	"crash/overflow/lelantus/mlp=true/196":        "d049e8eeb183bb7812b5d410c2a6f379262a784eb17cd8bf30df7314daa16a14",
	"crash/overflow/lelantus-cow/mlp=false/66":    "6d4ab391d7d93b0a54db6fb392b281bdd18464921a17e8cdb5ffb64404df071b",
	"crash/overflow/lelantus-cow/mlp=false/200":   "7375cea1b5e5402bdcdfcbdcd8547548cb2c94f94a160787c89df58485fac27f",
	"crash/overflow/lelantus-cow/mlp=true/66":     "390910ee92703f82af55d2851d5dabe671a598b841091e10202f3de506896274",
	"crash/overflow/lelantus-cow/mlp=true/200":    "d1d3578449a1d0c2bcf4eae1d11a0999a4bc2aa0673fd253fb79aa8ed4f2c74e",
}
