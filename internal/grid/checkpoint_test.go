package grid

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func testState() *State {
	spec := Spec{Name: "t", Workloads: []string{"forkbench"}, Schemes: []string{"lelantus"}, RegionKB: 64}.withDefaults()
	return &State{Version: stateVersion, SpecHash: spec.Hash(), Spec: spec}
}

func TestStateRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := testState()
	if err := SaveState(dir, st); err != nil {
		t.Fatalf("SaveState: %v", err)
	}
	got, err := LoadState(dir)
	if err != nil {
		t.Fatalf("LoadState: %v", err)
	}
	if !reflect.DeepEqual(got, st) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, st)
	}
	// A second save atomically replaces the first.
	st.Spec.Name = "t2"
	st.SpecHash = st.Spec.Hash()
	if err := SaveState(dir, st); err != nil {
		t.Fatalf("second SaveState: %v", err)
	}
	if got, err = LoadState(dir); err != nil || !reflect.DeepEqual(got, st) {
		t.Fatalf("after rewrite: state %+v, err %v", got, err)
	}
	// No temp files may survive a successful save.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
}

func TestLoadStateRejectsMissingAndCorrupt(t *testing.T) {
	if _, err := LoadState(t.TempDir()); err == nil {
		t.Fatal("LoadState on an empty directory succeeded")
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, stateFile), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadState(dir); err == nil {
		t.Fatal("LoadState accepted corrupt JSON")
	}

	dir = t.TempDir()
	st := testState()
	st.Version = stateVersion + 1
	if err := SaveState(dir, st); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadState(dir); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("unknown version: err = %v, want a version error", err)
	}
}

func TestLoadStateRejectsTamperedSpec(t *testing.T) {
	dir := t.TempDir()
	st := testState()
	if err := SaveState(dir, st); err != nil {
		t.Fatal(err)
	}
	// Edit the spec but keep the recorded hash: resume must refuse.
	st.Spec.RegionKB = 128
	if err := SaveState(dir, st); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadState(dir); err == nil || !strings.Contains(err.Error(), "hash") {
		t.Fatalf("tampered checkpoint: err = %v, want a spec-hash error", err)
	}
}

// statusLines runs `status` on dir and returns its cells, log and report
// lines with the directory spelled DIR, so two directories compare.
func statusLines(t *testing.T, dir string) []string {
	t.Helper()
	code, out, errb := runCLI(t, "status", "-dir", dir)
	if code != 0 {
		t.Fatalf("status -dir %s: exit %d, stderr %q", dir, code, errb)
	}
	var lines []string
	for _, l := range strings.Split(strings.ReplaceAll(out, dir, "DIR"), "\n") {
		if strings.HasPrefix(l, "cells ") || strings.HasPrefix(l, "log ") || strings.HasPrefix(l, "report ") {
			lines = append(lines, l)
		}
	}
	return lines
}

// TestResumeParentFormatState resumes a directory written before state.json
// lost its progress counters: the old total/done/failed fields must be
// ignored, and the resumed report and status must match an uninterrupted
// run's.
func TestResumeParentFormatState(t *testing.T) {
	spec := fastSpec("baseline", "silent-shredder", "lelantus", "lelantus-cow")
	full := t.TempDir()
	mustRun(t, full, spec, Options{Workers: 2})
	logData, err := os.ReadFile(filepath.Join(full, logFile))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(logData), "\n")
	if len(lines) < 4 {
		t.Fatalf("uninterrupted run logged %d lines, want 4", len(lines))
	}

	dir := t.TempDir()
	resolved := spec.withDefaults()
	old := struct {
		Version  int    `json:"version"`
		SpecHash string `json:"specHash"`
		Spec     Spec   `json:"spec"`
		Total    int    `json:"total"`
		Done     int    `json:"done"`
		Failed   int    `json:"failed"`
	}{1, resolved.Hash(), resolved, 4, 2, 0}
	payload, err := json.MarshalIndent(old, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, stateFile), append(payload, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, logFile), []byte(lines[0]+lines[1]), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := statusLines(t, dir); len(got) == 0 || got[0] != "cells    2/4 done, 0 failed, 2 pending" {
		t.Fatalf("status before resume: %q", got)
	}

	coord, err := Open(dir, Options{Workers: 2})
	if err != nil {
		t.Fatalf("Open of a parent-format directory: %v", err)
	}
	if _, err := coord.Run(); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !bytes.Equal(readReport(t, full), readReport(t, dir)) {
		t.Fatal("resumed report differs from the uninterrupted run's")
	}
	if got, want := statusLines(t, dir), statusLines(t, full); !reflect.DeepEqual(got, want) {
		t.Fatalf("status after resume:\n%q\nwant the uninterrupted run's:\n%q", got, want)
	}
}
