package main

import (
	"bytes"
	"reflect"
	"testing"

	"lelantus/internal/grid"
)

// logLine encodes one results-log record for a forkbench cell of the given
// scheme; corrupt flips its checksum so the decoder rejects it.
func logLine(t *testing.T, scheme string, corrupt bool) (string, []byte) {
	t.Helper()
	spec := grid.CellSpec{Workload: "forkbench", Seed: 1, Scheme: scheme}
	var buf bytes.Buffer
	if err := grid.AppendRecord(&buf, grid.Record{Cell: grid.CellResult{ID: spec.ID(), Spec: spec}, Attempts: 1}); err != nil {
		t.Fatal(err)
	}
	line := buf.Bytes()
	if corrupt {
		line[0] ^= 1
	}
	return spec.ID(), line
}

func TestSplitLogIndependentOfOrder(t *testing.T) {
	a, lineA := logLine(t, "baseline", false)
	b, lineB := logLine(t, "lelantus", true)
	c, lineC := logLine(t, "lelantus-cow", false)
	for _, tc := range []struct {
		name     string
		lines    [][]byte
		shadowed map[string]bool
	}{
		{"rejected first", [][]byte{lineB, lineA, lineC}, map[string]bool{a: true, c: true}},
		{"rejected between", [][]byte{lineA, lineB, lineC}, map[string]bool{c: true}},
		{"rejected last", [][]byte{lineA, lineC, lineB}, map[string]bool{}},
	} {
		rejected, shadowed := splitLog(bytes.Join(tc.lines, nil))
		if want := map[string]bool{b: true}; !reflect.DeepEqual(rejected, want) {
			t.Errorf("%s: rejected = %v, want %v", tc.name, rejected, want)
		}
		if !reflect.DeepEqual(shadowed, tc.shadowed) {
			t.Errorf("%s: shadowed = %v, want %v", tc.name, shadowed, tc.shadowed)
		}
	}
	if rejected, shadowed := splitLog(append(lineA, lineC...)); len(rejected) != 0 || len(shadowed) != 0 {
		t.Errorf("clean log: rejected %v, shadowed %v; want none", rejected, shadowed)
	}
}
