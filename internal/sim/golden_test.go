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
// both fidelities and both MLP settings, and the crash-and-recover cells
// of the quick forkbench under two persistence strategies. A refactor that
// claims to keep reports byte-identical must leave every digest unchanged;
// a deliberate model change updates the literals and says why.
func TestGoldenResults(t *testing.T) {
	type script struct {
		name  string
		seed  int64
		build func() workload.Script
	}
	scripts := []script{
		{"rand1", 1, func() workload.Script { return randomScript(1) }},
		{"rand2", 2, func() workload.Script { return randomScript(2) }},
		{"rand3", 3, func() workload.Script { return randomScript(3) }},
		{"overflow", 2, overflowScript},
		{"forkbench", 1, quickForkbench},
	}
	fidelities := []core.Fidelity{core.FidelityFull, core.FidelityTiming}
	if testing.Short() {
		scripts = []script{scripts[0], scripts[3]}
	}
	for _, sc := range scripts {
		s := sc.build()
		for _, scheme := range core.Schemes() {
			for _, f := range fidelities {
				for _, mlp := range []bool{false, true} {
					name := fmt.Sprintf("%s/%v/%v/mlp=%v", sc.name, scheme, f, mlp)
					cfg := fidelityConfig(scheme, f, sc.seed)
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

	points := []uint64{100, 1000}
	if testing.Short() {
		points = points[:1]
	}
	fb := quickForkbench()
	for _, scheme := range core.Schemes() {
		for _, strat := range []core.PersistStrategy{core.StrictPersist(), core.PhoenixPersist()} {
			for _, mlp := range []bool{false, true} {
				for _, n := range points {
					name := fmt.Sprintf("crash/%v/%s/mlp=%v/%d", scheme, strat.Name(), mlp, n)
					cfg := fidelityConfig(scheme, core.FidelityFull, 1)
					cfg.Mem.Core.Persist = strat
					cfg.Mem.Core.MLP.Enabled = mlp
					cell, err := CrashAt(cfg, fb, 1, n)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					checkGolden(t, goldenCrashCells, name, goldenDigest(t, cell))
				}
			}
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
}

var goldenCrashCells = map[string]string{
	"crash/baseline/strict/mlp=false/100":          "99151c7b0aea67d856ce26c5e0dbf26e05aa94d4e7b2eca440b206589674cc08",
	"crash/baseline/strict/mlp=false/1000":         "5c32e8a3c7e689989478e2735774633ffd64962120cc9283a381b65592bab0c9",
	"crash/baseline/strict/mlp=true/100":           "fbd78edae05efca7bd14c03db4743dbff1917850493c2cebd28305e8224ce950",
	"crash/baseline/strict/mlp=true/1000":          "4174a3e31b64421296c0ebd0a22e6a4f1a94c8ec3378de103f8a12fad69f1cb6",
	"crash/baseline/phoenix/mlp=false/100":         "eb1a3429fd535dceb67ba859b29cdbe7cd40e6ee824ec20e940d2333ab8b6ae6",
	"crash/baseline/phoenix/mlp=false/1000":        "589c87e4e03b77899b1aeb196f9eeb8a9add3ccad3ed45ed62addb8377164b7f",
	"crash/baseline/phoenix/mlp=true/100":          "59c8d23d2d184ba842283403b36250d583c57234e4dfb9c10d670d7acc5a5a33",
	"crash/baseline/phoenix/mlp=true/1000":         "046975bd32d1fca3a33faa06671dff82108019972b9b6fc0a563f15718bb0bd3",
	"crash/silent-shredder/strict/mlp=false/100":   "c7bf48e51fafdd069b4c0873aa764ef35c013211485d519fb3d4a4997e9beaf2",
	"crash/silent-shredder/strict/mlp=false/1000":  "62e9168675429c01a03b043abcbb41b766377b0a27e8d4e1460cd027ff1b18d6",
	"crash/silent-shredder/strict/mlp=true/100":    "9702b0b68c937e318ac180e51015159ffeae3f75465365721ca7e8afba5a83c9",
	"crash/silent-shredder/strict/mlp=true/1000":   "a995bf7ef8ee4cdfa962792e0935492db449472db27cd2d049bc4e3379b97043",
	"crash/silent-shredder/phoenix/mlp=false/100":  "f64f1f54747a8fce2ff9534d8058f340f59fd37e9ffed588256f55d06f6dda6d",
	"crash/silent-shredder/phoenix/mlp=false/1000": "1de7f300af8de50dfb6a84b12b0c3d52f677569dfa83580a96b10139a780e70d",
	"crash/silent-shredder/phoenix/mlp=true/100":   "854cdd221c7d18eb718afcb0d5a9b699536b7e5d8b776532a5907cce4d120186",
	"crash/silent-shredder/phoenix/mlp=true/1000":  "c526a6ca05d6061757216f8e4d36d89e2529e773a77e9d255845de1fd78c1e11",
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
}
