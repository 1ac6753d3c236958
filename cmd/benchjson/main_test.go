package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeDoc marshals a Document to a temp file and returns its path.
func writeDoc(t *testing.T, name string, doc Document) string {
	t.Helper()
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// tailDocs builds an old/new pair covering the BenchmarkTailLatency
// percentile columns: the new document's lelantus cell halves read-p99-ns
// (2x speedup), the cow cell keeps it flat, ChainHeavy lacks the metric
// entirely, and OnlyOld exists on one side only.
func tailDocs(t *testing.T) (string, string) {
	t.Helper()
	old := Document{Benchmarks: map[string]Result{
		"TailLatency/lelantus": {Iterations: 1, NsPerOp: 100,
			Metrics: map[string]float64{"read-p99-ns": 400, "read-p999-ns": 800}},
		"TailLatency/lelantus-cow": {Iterations: 1, NsPerOp: 100,
			Metrics: map[string]float64{"read-p99-ns": 300, "read-p999-ns": 600}},
		"ChainHeavy/forkbench/lelantus": {Iterations: 1, NsPerOp: 50,
			Metrics: map[string]float64{"sim-ns": 1000}},
		"OnlyOld": {Iterations: 1, NsPerOp: 10,
			Metrics: map[string]float64{"read-p99-ns": 5}},
	}}
	nw := Document{Benchmarks: map[string]Result{
		"TailLatency/lelantus": {Iterations: 1, NsPerOp: 90,
			Metrics: map[string]float64{"read-p99-ns": 200, "read-p999-ns": 400}},
		"TailLatency/lelantus-cow": {Iterations: 1, NsPerOp: 95,
			Metrics: map[string]float64{"read-p99-ns": 300, "read-p999-ns": 600}},
		"ChainHeavy/forkbench/lelantus": {Iterations: 1, NsPerOp: 45,
			Metrics: map[string]float64{"sim-ns": 900}},
	}}
	return writeDoc(t, "old.json", old), writeDoc(t, "new.json", nw)
}

func TestComparePercentileMetric(t *testing.T) {
	oldPath, newPath := tailDocs(t)
	var out, errb bytes.Buffer
	if err := compareDocs(&out, &errb, oldPath, newPath, "read-p99-ns", ""); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "read-p99-ns |") {
		t.Fatalf("table header does not name the metric unit:\n%s", got)
	}
	if !strings.Contains(got, "| TailLatency/lelantus | 400 | 200 | 2.00x |") {
		t.Fatalf("missing 2x tail-latency row:\n%s", got)
	}
	if !strings.Contains(got, "| TailLatency/lelantus-cow | 300 | 300 | 1.00x |") {
		t.Fatalf("missing flat tail-latency row:\n%s", got)
	}
	// geomean over the two counted rows: sqrt(2.0 * 1.0) = 1.41x.
	if !strings.Contains(got, "geomean speedup: 1.41x over 2 benchmarks") {
		t.Fatalf("wrong geomean:\n%s", got)
	}
	// ChainHeavy reports sim-ns but not read-p99-ns: warned and skipped.
	if strings.Contains(got, "ChainHeavy") {
		t.Fatalf("metric-less benchmark leaked into the table:\n%s", got)
	}
	warn := errb.String()
	if !strings.Contains(warn, "ChainHeavy/forkbench/lelantus does not report read-p99-ns") {
		t.Fatalf("missing skip warning for metric-less benchmark:\n%s", warn)
	}
	if !strings.Contains(warn, "OnlyOld only in "+oldPath) {
		t.Fatalf("missing unmatched-name warning:\n%s", warn)
	}
}

func TestCompareFilterRestrictsEverything(t *testing.T) {
	oldPath, newPath := tailDocs(t)
	var out, errb bytes.Buffer
	if err := compareDocs(&out, &errb, oldPath, newPath, "read-p99-ns", "TailLatency"); err != nil {
		t.Fatal(err)
	}
	got, warn := out.String(), errb.String()
	if !strings.Contains(got, "geomean speedup: 1.41x over 2 benchmarks") {
		t.Fatalf("filtered geomean wrong:\n%s", got)
	}
	// The filter drops ChainHeavy and OnlyOld before warnings fire, so the
	// run is warning-free.
	if warn != "" {
		t.Fatalf("filtered comparison still warned:\n%s", warn)
	}
}

func TestCompareDefaultNsPerOp(t *testing.T) {
	oldPath, newPath := tailDocs(t)
	var out, errb bytes.Buffer
	if err := compareDocs(&out, &errb, oldPath, newPath, "", "ChainHeavy"); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "ns/op |") {
		t.Fatalf("default comparison should be ns/op:\n%s", got)
	}
	if !strings.Contains(got, "| ChainHeavy/forkbench/lelantus | 50 | 45 | 1.11x |") {
		t.Fatalf("missing ns/op row:\n%s", got)
	}
}

func TestCompareErrors(t *testing.T) {
	oldPath, newPath := tailDocs(t)
	var out, errb bytes.Buffer
	if err := compareDocs(&out, &errb, oldPath, newPath, "", "(unclosed"); err == nil ||
		!strings.Contains(err.Error(), "-filter") {
		t.Fatalf("bad filter regexp: got %v, want a -filter error", err)
	}
	if err := compareDocs(&out, &errb, filepath.Join(t.TempDir(), "missing.json"),
		newPath, "", ""); err == nil {
		t.Fatal("missing old document: want an error")
	}
}

// benchOutput is a `go test -bench` transcript: the environment header,
// then result lines whose -4 suffix is GOMAXPROCS.
const benchOutput = `goos: linux
goarch: amd64
pkg: lelantus
cpu: Example CPU @ 2.00GHz
BenchmarkReadLine/lelantus-4   	 1000	      1234 ns/op	  88.0 sim-ns	       0 B/op	       0 allocs/op
BenchmarkFig9-4   	       1	 5000000 ns/op
PASS
ok  	lelantus	1.0s
`

func TestParseBenchEnv(t *testing.T) {
	var echo bytes.Buffer
	doc, err := parseBench(strings.NewReader(benchOutput), &echo)
	if err != nil {
		t.Fatal(err)
	}
	want := Env{GOOS: "linux", GOARCH: "amd64", Pkg: "lelantus", CPU: "Example CPU @ 2.00GHz", GOMAXPROCS: 4}
	if doc.Env == nil || *doc.Env != want {
		t.Fatalf("env = %+v, want %+v", doc.Env, want)
	}
	r, ok := doc.Benchmarks["ReadLine/lelantus"]
	if !ok || r.NsPerOp != 1234 || r.Metrics["sim-ns"] != 88 {
		t.Fatalf("ReadLine/lelantus = %+v (found %v)", r, ok)
	}
	if _, ok := doc.Benchmarks["Fig9"]; !ok {
		t.Fatalf("suffix not stripped: %v", doc.Benchmarks)
	}
	if echo.String() != benchOutput {
		t.Fatal("raw output not echoed verbatim")
	}
	// go test prints no suffix at GOMAXPROCS 1.
	doc, err = parseBench(strings.NewReader("BenchmarkX 1 2 ns/op\n"), io.Discard)
	if err != nil || doc.Env.GOMAXPROCS != 1 {
		t.Fatalf("unsuffixed run: env %+v, err %v", doc.Env, err)
	}
}

func TestCompareWarnsOnEnvDiff(t *testing.T) {
	bench := map[string]Result{"X": {Iterations: 1, NsPerOp: 10}}
	a := &Env{GOOS: "linux", GOARCH: "amd64", CPU: "A", GOMAXPROCS: 2}
	b := &Env{GOOS: "linux", GOARCH: "amd64", CPU: "B", GOMAXPROCS: 2}
	for _, tc := range []struct {
		name     string
		old, new *Env
		warns    int
	}{
		{"same", a, a, 0},
		{"cpu differs", a, b, 1},
		{"unrecorded", nil, a, 1},
		{"both unrecorded", nil, nil, 0},
	} {
		oldPath := writeDoc(t, "old.json", Document{Env: tc.old, Benchmarks: bench})
		newPath := writeDoc(t, "new.json", Document{Env: tc.new, Benchmarks: bench})
		var out, errb bytes.Buffer
		if err := compareDocs(&out, &errb, oldPath, newPath, "", ""); err != nil {
			t.Fatal(err)
		}
		if got := strings.Count(errb.String(), "environments differ"); got != tc.warns {
			t.Errorf("%s: %d environment warnings, want %d:\n%s", tc.name, got, tc.warns, errb.String())
		}
	}
}

// TestParseBenchNameClash feeds two packages' output: distinct names from
// both are kept, and a name both packages report is an error naming the
// benchmark and both packages rather than a silent overwrite.
func TestParseBenchNameClash(t *testing.T) {
	const twoPkgs = `pkg: lelantus
BenchmarkReadLine 10 100 ns/op
pkg: lelantus/internal/cache
BenchmarkCacheFlushPage 10 200 ns/op
`
	doc, err := parseBench(strings.NewReader(twoPkgs), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 2 || doc.Env.Pkg != "lelantus" {
		t.Fatalf("benchmarks %v, env pkg %q", doc.Benchmarks, doc.Env.Pkg)
	}
	// The same name twice within one package (e.g. -count 2) keeps the last.
	if _, err := parseBench(strings.NewReader(twoPkgs+"BenchmarkCacheFlushPage 10 300 ns/op\n"), io.Discard); err != nil {
		t.Fatalf("repeat within one package: %v", err)
	}
	_, err = parseBench(strings.NewReader(twoPkgs+"pkg: lelantus/internal/sim\nBenchmarkReadLine-2 10 100 ns/op\n"), io.Discard)
	want := "benchmark ReadLine is reported by both lelantus and lelantus/internal/sim"
	if err == nil || err.Error() != want {
		t.Fatalf("clash error = %v, want %q", err, want)
	}
}

// TestEnvGoVersionAndCommit pins the two host fields benchjson stamps
// itself: -compare warns on differing Go versions only when both files
// record one, and never on differing commits; both fields are omitted
// from the JSON when unset; commit resolves a branch ref, a packed ref
// and a detached HEAD.
func TestEnvGoVersionAndCommit(t *testing.T) {
	bench := map[string]Result{"X": {Iterations: 1, NsPerOp: 10}}
	env := func(goVer, commit string) *Env {
		return &Env{GOOS: "linux", GOARCH: "amd64", CPU: "A", GOMAXPROCS: 2, Go: goVer, Commit: commit}
	}
	for _, tc := range []struct {
		name     string
		old, new *Env
		warns    int
	}{
		{"go differs", env("go1.23.0", ""), env("go1.24.0", ""), 1},
		{"go recorded on one side", env("", ""), env("go1.24.0", ""), 0},
		{"commit differs", env("go1.24.0", "aaa"), env("go1.24.0", "bbb"), 0},
		{"commit recorded on one side", env("go1.24.0", ""), env("go1.24.0", "bbb"), 0},
	} {
		oldPath := writeDoc(t, "old.json", Document{Env: tc.old, Benchmarks: bench})
		newPath := writeDoc(t, "new.json", Document{Env: tc.new, Benchmarks: bench})
		var out, errb bytes.Buffer
		if err := compareDocs(&out, &errb, oldPath, newPath, "", ""); err != nil {
			t.Fatal(err)
		}
		if got := strings.Count(errb.String(), "environments differ"); got != tc.warns {
			t.Errorf("%s: %d environment warnings, want %d:\n%s", tc.name, got, tc.warns, errb.String())
		}
	}

	raw, err := json.Marshal(env("", ""))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), `"go"`) || strings.Contains(string(raw), `"commit"`) {
		t.Errorf("unset go/commit serialised: %s", raw)
	}

	const id = "0123456789abcdef0123456789abcdef01234567"
	write := func(dir, name, body string) {
		t.Helper()
		p := filepath.Join(dir, ".git", filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	loose, packed, detached := t.TempDir(), t.TempDir(), t.TempDir()
	write(loose, "HEAD", "ref: refs/heads/main\n")
	write(loose, "refs/heads/main", id+"\n")
	write(packed, "HEAD", "ref: refs/heads/main\n")
	write(packed, "packed-refs", "# pack-refs with: peeled\n"+id+" refs/heads/main\n")
	write(detached, "HEAD", id+"\n")
	for name, dir := range map[string]string{"loose": loose, "packed": packed, "detached": detached} {
		if got := commit(dir); got != id {
			t.Errorf("%s ref: commit = %q, want %q", name, got, id)
		}
	}
	if got := commit(t.TempDir()); got != "" {
		t.Errorf("no .git: commit = %q, want empty", got)
	}
}
