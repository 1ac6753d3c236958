package grid

import "testing"

// goldenPresets pins every preset's spec hash and the ID of every cell it
// enumerates, in enumeration order, as literals. A grid directory on disk is
// keyed by these values: a change to CellSpec, Spec, their JSON encoding or
// the defaults withDefaults fills in would orphan every existing run (resume
// refuses a different spec hash and recomputes cells whose IDs moved), so any
// such change must show up here first.
var goldenPresets = []struct {
	name, hash string
	ids        []string
}{
	{"quick", "b5046f603e0f06c7", []string{
		"d7d2d9bb60511004", // forkbench/baseline
		"03ffeb0e8a3a9711", // forkbench/silent-shredder
		"6f6d8d995417f83d", // forkbench/lelantus
		"1ede4f6a5f4068f6", // forkbench/lelantus-cow
	}},
	{"schemes-matrix", "f8190227c0e1a0ef", []string{
		"65a720376fc0b6b9", // boot/baseline
		"748cc79bc0c9a801", // boot/silent-shredder
		"5b281ad267908154", // boot/lelantus
		"82caa87621e2dcb1", // boot/lelantus-cow
		"ed9a43940cb71920", // boot/2MB/baseline
		"c8b5e10add4986f2", // boot/2MB/silent-shredder
		"2c801e86c86cd69b", // boot/2MB/lelantus
		"1d41ea3940374715", // boot/2MB/lelantus-cow
		"72294b3ec63618e9", // compile/baseline
		"b2f18d05f55e90c3", // compile/silent-shredder
		"d1f5246ca1439eb6", // compile/lelantus
		"0eddf307b109b943", // compile/lelantus-cow
		"eef91f74cea93b77", // compile/2MB/baseline
		"b9cab18194e9d150", // compile/2MB/silent-shredder
		"624c2ffd9bb659ca", // compile/2MB/lelantus
		"81daee0f4610bb94", // compile/2MB/lelantus-cow
		"626f9c4fe7cac32c", // forkbench/baseline
		"43ea0c28b51e8b78", // forkbench/silent-shredder
		"a2c985f3d9e05e05", // forkbench/lelantus
		"c417931ca344bf10", // forkbench/lelantus-cow
		"ddd1834384a2e948", // forkbench/2MB/baseline
		"60928e7cdff9c480", // forkbench/2MB/silent-shredder
		"1dfddd98716e3ad4", // forkbench/2MB/lelantus
		"ea38a1d55b222c6c", // forkbench/2MB/lelantus-cow
		"b826bd037549a43a", // redis/baseline
		"8914a82d9b76c29e", // redis/silent-shredder
		"91dd1eb908c59ff8", // redis/lelantus
		"4eae0ef4422ad434", // redis/lelantus-cow
		"5fea412420ebad42", // redis/2MB/baseline
		"ca9638284f34e9f1", // redis/2MB/silent-shredder
		"511d97cf32a58582", // redis/2MB/lelantus
		"1654b241393f0862", // redis/2MB/lelantus-cow
		"adcad73a5444510b", // mariadb/baseline
		"291f7d3087abfb21", // mariadb/silent-shredder
		"e3555552a4c31b14", // mariadb/lelantus
		"e901c5bf3254a300", // mariadb/lelantus-cow
		"817b3e38d4c16c0d", // mariadb/2MB/baseline
		"3e8f26f0df5071b2", // mariadb/2MB/silent-shredder
		"ed69944b08d4940e", // mariadb/2MB/lelantus
		"5e111a902bf6959c", // mariadb/2MB/lelantus-cow
		"d3243e4891795a1e", // shell/baseline
		"7506b9ea53ae8329", // shell/silent-shredder
		"277b0c534c60ef3c", // shell/lelantus
		"f268911e101ca322", // shell/lelantus-cow
		"961363b90905d190", // shell/2MB/baseline
		"4a534d88e4c212c4", // shell/2MB/silent-shredder
		"29ccf71204d9619e", // shell/2MB/lelantus
		"56445bcd7809ad29", // shell/2MB/lelantus-cow
	}},
	{"persist-matrix", "cc0ae9a13526dda3", []string{
		"d7d2d9bb60511004", // forkbench/baseline
		"96e8432821698324", // forkbench/baseline/persist=phoenix
		"379a8e70f609ef7d", // forkbench/baseline/persist=triad:1
		"985047e7b764d67f", // forkbench/baseline/persist=triad:2
		"03ffeb0e8a3a9711", // forkbench/silent-shredder
		"fd016aecb5e1b47d", // forkbench/silent-shredder/persist=phoenix
		"815de34d76032f83", // forkbench/silent-shredder/persist=triad:1
		"c63e859164d28ae5", // forkbench/silent-shredder/persist=triad:2
		"6f6d8d995417f83d", // forkbench/lelantus
		"fd018e89ecd78b26", // forkbench/lelantus/persist=phoenix
		"f8aad04e64fd4342", // forkbench/lelantus/persist=triad:1
		"e81a6320e27afdef", // forkbench/lelantus/persist=triad:2
		"1ede4f6a5f4068f6", // forkbench/lelantus-cow
		"3c75e2a6b693dbf1", // forkbench/lelantus-cow/persist=phoenix
		"051a2fbda388ad45", // forkbench/lelantus-cow/persist=triad:1
		"dce00021a271a685", // forkbench/lelantus-cow/persist=triad:2
	}},
	{"mlp-matrix", "ab726cd6111f3868", []string{
		"d7d2d9bb60511004", // forkbench/baseline
		"e0346228c05be44f", // forkbench/baseline/mlp
		"03ffeb0e8a3a9711", // forkbench/silent-shredder
		"80b6ceca92a95b39", // forkbench/silent-shredder/mlp
		"6f6d8d995417f83d", // forkbench/lelantus
		"ba8cb287349b0a39", // forkbench/lelantus/mlp
		"1ede4f6a5f4068f6", // forkbench/lelantus-cow
		"2b1d49e087eda42a", // forkbench/lelantus-cow/mlp
	}},
	{"prefetch-matrix", "c03abc3cb6e02c64", []string{
		"e0346228c05be44f", // forkbench/baseline/mlp
		"94501f24125f27c8", // forkbench/baseline/mlp/prefetch=delta
		"a3b3cf970bda2004", // forkbench/baseline/mlp/prefetch=chain
		"04a4efe02a902d85", // forkbench/baseline/mlp/prefetch=both
		"80b6ceca92a95b39", // forkbench/silent-shredder/mlp
		"45bda618a6070122", // forkbench/silent-shredder/mlp/prefetch=delta
		"9ec1028a1e73a8c2", // forkbench/silent-shredder/mlp/prefetch=chain
		"4160e5dff5c27f4a", // forkbench/silent-shredder/mlp/prefetch=both
		"ba8cb287349b0a39", // forkbench/lelantus/mlp
		"3fadb22b3210e803", // forkbench/lelantus/mlp/prefetch=delta
		"23fbad3e80484a38", // forkbench/lelantus/mlp/prefetch=chain
		"55c75f51dcc09383", // forkbench/lelantus/mlp/prefetch=both
		"2b1d49e087eda42a", // forkbench/lelantus-cow/mlp
		"c5ef2d9df7bb4bad", // forkbench/lelantus-cow/mlp/prefetch=delta
		"5a87245b5fffb217", // forkbench/lelantus-cow/mlp/prefetch=chain
		"927b9cf7c3ca38ea", // forkbench/lelantus-cow/mlp/prefetch=both
		"e1238aaa534bc34d", // shell/baseline/mlp
		"fd8d9f9fcbf9ac24", // shell/baseline/mlp/prefetch=delta
		"52727d65a35e96a3", // shell/baseline/mlp/prefetch=chain
		"00ec61bfbd844578", // shell/baseline/mlp/prefetch=both
		"b370b90a7105a51d", // shell/silent-shredder/mlp
		"d3b479f330d8e30f", // shell/silent-shredder/mlp/prefetch=delta
		"fe0f1b18e1c4d29f", // shell/silent-shredder/mlp/prefetch=chain
		"74f3ee824f0a2c2c", // shell/silent-shredder/mlp/prefetch=both
		"32b2798bd8bcaf03", // shell/lelantus/mlp
		"1c95b65265869af9", // shell/lelantus/mlp/prefetch=delta
		"605550f7e0e4e7ed", // shell/lelantus/mlp/prefetch=chain
		"a8d2bcb34fe8c7b8", // shell/lelantus/mlp/prefetch=both
		"b1e90dd2f874ac8a", // shell/lelantus-cow/mlp
		"a9d3b03b5d880ee2", // shell/lelantus-cow/mlp/prefetch=delta
		"8ee19e61bd56805f", // shell/lelantus-cow/mlp/prefetch=chain
		"394d775c00ab015b", // shell/lelantus-cow/mlp/prefetch=both
	}},
	{"crash-matrix", "094ad25916bfb2e2", []string{
		"f40644bc969bb115", // forkbench/baseline/crash@100
		"6ebf65ac9676dbcb", // forkbench/baseline/crash@100
		"212de4f0f23949ef", // forkbench/baseline/crash@1000
		"304b8c2c49a1b684", // forkbench/baseline/crash@1000
		"7661f3fe85772e7b", // forkbench/silent-shredder/crash@100
		"0f8d0c3a24c78881", // forkbench/silent-shredder/crash@100
		"baf646c47b33893f", // forkbench/silent-shredder/crash@1000
		"7a399b806b0656d4", // forkbench/silent-shredder/crash@1000
		"8076fa06570ea191", // forkbench/lelantus/crash@100
		"624d1134937af37d", // forkbench/lelantus/crash@100
		"520ec16db8692b7b", // forkbench/lelantus/crash@1000
		"a1c275f8b7723065", // forkbench/lelantus/crash@1000
		"4bc4ec7b15d72cd6", // forkbench/lelantus-cow/crash@100
		"4363f6cfbf32e99f", // forkbench/lelantus-cow/crash@100
		"cf4fe0d83afd6951", // forkbench/lelantus-cow/crash@1000
		"66428e85f233b599", // forkbench/lelantus-cow/crash@1000
	}},
}

func TestGoldenCellIDs(t *testing.T) {
	presets := Presets()
	if len(presets) != len(goldenPresets) {
		t.Fatalf("%d presets, %d pinned: pin the new preset's IDs here", len(presets), len(goldenPresets))
	}
	for i, p := range presets {
		want := goldenPresets[i]
		if p.Name != want.name {
			t.Fatalf("preset %d is %q, pinned %q", i, p.Name, want.name)
		}
		if got := p.Hash(); got != want.hash {
			t.Errorf("preset %s: spec hash %s, pinned %s", p.Name, got, want.hash)
		}
		cells := p.Cells()
		if len(cells) != len(want.ids) {
			t.Errorf("preset %s: %d cells, pinned %d", p.Name, len(cells), len(want.ids))
			continue
		}
		for j, c := range cells {
			if got := c.ID(); got != want.ids[j] {
				t.Errorf("preset %s cell %d (%s): ID %s, pinned %s", p.Name, j, c.Tag(), got, want.ids[j])
			}
		}
	}
}
