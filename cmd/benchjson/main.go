// Command benchjson converts `go test -bench` output (read from stdin) into
// a stable JSON document, so benchmark baselines can be committed and future
// PRs can diff the performance trajectory (see `make bench-json`).
//
// Every `BenchmarkX ...` result line becomes one entry keyed by the
// benchmark name with the trailing GOMAXPROCS suffix stripped. The standard
// ns/op, B/op and allocs/op columns get dedicated fields; custom
// b.ReportMetric units (e.g. the simulator's sim-ns and nvm-writes) land in
// a metrics map.
//
// A second mode compares two committed documents:
//
//	benchjson -compare BENCH_old.json BENCH_new.json
//
// prints a markdown table of per-benchmark wall-clock speedups
// (old ns/op divided by new) plus the geometric mean over the common set.
// With -metric UNIT the table compares a custom b.ReportMetric column
// instead — e.g. `-metric sim-ns` diffs the simulated wall-clock the
// timing plane charges, the quantity the MLP model moves — skipping
// benchmarks that do not report it. With -filter REGEX only benchmark
// names matching the pattern enter the comparison (table, warnings and
// geomean alike) — e.g. `-filter ChainHeavy` restricts the table to the
// redirect-chain-heavy cells the metadata prefetcher targets.
//
// The document also keeps the environment header `go test -bench` prints
// (goos, goarch, pkg, cpu) plus the GOMAXPROCS the name suffix shows, the
// Go version benchjson was built with and the commit checked out in the
// working directory, as env. -compare warns, in one line, when the two
// files' environments differ: host ns/op from different machines or
// toolchains do not compare. A Go version recorded on one side only is not
// a difference, and the commit never is (comparing commits is the point).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark line.
type Result struct {
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_op"`
	BytesPerOp  *float64           `json:"b_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Env is the environment a document was measured in. GOMAXPROCS comes
// from the benchmark names' -N suffix, which go test omits at 1.
type Env struct {
	GOOS       string `json:"goos,omitempty"`
	GOARCH     string `json:"goarch,omitempty"`
	Pkg        string `json:"pkg,omitempty"`
	CPU        string `json:"cpu,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go,omitempty"`
	Commit     string `json:"commit,omitempty"`
}

// Document is the emitted file. Env is nil in documents written before it
// existed.
type Document struct {
	Note       string            `json:"note"`
	Env        *Env              `json:"env,omitempty"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

var procSuffix = regexp.MustCompile(`-(\d+)$`)

func main() {
	compare := flag.Bool("compare", false, "compare two benchmark JSON files (args: old.json new.json) instead of reading bench output from stdin")
	metric := flag.String("metric", "", "with -compare, diff this custom metric unit (e.g. sim-ns) instead of ns/op")
	filter := flag.String("filter", "", "with -compare, restrict the table to benchmark names matching this regexp")
	flag.Parse()
	if *metric != "" && !*compare {
		fmt.Fprintln(os.Stderr, "benchjson: -metric only applies with -compare")
		os.Exit(2)
	}
	if *filter != "" && !*compare {
		fmt.Fprintln(os.Stderr, "benchjson: -filter only applies with -compare")
		os.Exit(2)
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare needs exactly two arguments: old.json new.json")
			os.Exit(2)
		}
		if err := compareDocs(os.Stdout, os.Stderr, flag.Arg(0), flag.Arg(1), *metric, *filter); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}
	doc, err := parseBench(os.Stdin, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	doc.Env.Go, doc.Env.Commit = runtime.Version(), commit(".")
	// json.Marshal sorts map keys, so the output is diff-stable; indent for
	// reviewable commits.
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: captured %d benchmarks\n", len(doc.Benchmarks))
	os.Stdout.Write(append(out, '\n'))
}

// parseBench reads `go test -bench` output, echoing every line to echo so
// the raw output stays visible, and returns the document it describes.
// Output may span several packages (env keeps the first pkg header); a
// benchmark name reported under two packages is an error, since the
// document keys results by bare name.
func parseBench(r io.Reader, echo io.Writer) (Document, error) {
	doc := Document{
		Note:       "generated by `make bench-json`; compare against BENCH_seed.json",
		Env:        &Env{GOMAXPROCS: 1},
		Benchmarks: map[string]Result{},
	}
	header := map[string]*string{"goos": &doc.Env.GOOS, "goarch": &doc.Env.GOARCH, "pkg": &doc.Env.Pkg, "cpu": &doc.Env.CPU}
	// pkg is the package of the result lines being read; pkgOf maps each
	// benchmark name to the package that reported it.
	pkg, pkgOf := "", map[string]string{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(echo, line)
		if key, value, ok := strings.Cut(line, ": "); ok && header[key] != nil {
			if key == "pkg" {
				pkg = value
			}
			if *header[key] == "" {
				*header[key] = value
			}
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// name, iterations, then (value, unit) pairs.
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		if m := procSuffix.FindStringSubmatch(name); m != nil {
			doc.Env.GOMAXPROCS, _ = strconv.Atoi(m[1])
			name = strings.TrimSuffix(name, m[0])
		}
		r := Result{Iterations: iters}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				r.NsPerOp = v
			case "B/op":
				b := v
				r.BytesPerOp = &b
			case "allocs/op":
				a := v
				r.AllocsPerOp = &a
			default:
				if r.Metrics == nil {
					r.Metrics = map[string]float64{}
				}
				r.Metrics[unit] = v
			}
		}
		if prev, seen := pkgOf[name]; seen && prev != pkg {
			return doc, fmt.Errorf("benchmark %s is reported by both %s and %s", name, prev, pkg)
		}
		pkgOf[name] = pkg
		doc.Benchmarks[name] = r
	}
	if err := sc.Err(); err != nil {
		return doc, err
	}
	if len(doc.Benchmarks) == 0 {
		return doc, fmt.Errorf("no benchmark lines on stdin")
	}
	return doc, nil
}

// String renders an environment for the -compare warning.
func (e *Env) String() string {
	if e == nil {
		return "unrecorded"
	}
	s := fmt.Sprintf("%s/%s %s, cpu %q, GOMAXPROCS %d", e.GOOS, e.GOARCH, e.Pkg, e.CPU, e.GOMAXPROCS)
	if e.Go != "" {
		s += ", " + e.Go
	}
	if e.Commit != "" {
		s += ", commit " + e.Commit
	}
	return s
}

// differs reports whether host numbers measured in e and o do not
// compare: a recorded field differs, other than the commit, and other than
// a Go version only one side recorded.
func (e *Env) differs(o *Env) bool {
	if e == nil || o == nil {
		return e != o
	}
	a, b := *e, *o
	a.Commit, b.Commit = "", ""
	if a.Go == "" || b.Go == "" {
		a.Go, b.Go = "", ""
	}
	return a != b
}

// commit reads the revision checked out in dir from its .git, without
// running git; "" outside a git checkout.
func commit(dir string) string {
	git := filepath.Join(dir, ".git")
	head, _ := os.ReadFile(filepath.Join(git, "HEAD")) // none: ref is ""
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(git, filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, _ := os.ReadFile(filepath.Join(git, "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return ""
}

// loadDoc reads one committed benchmark document.
func loadDoc(path string) (Document, error) {
	var doc Document
	raw, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return doc, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// compareDocs prints a markdown speedup table over the benchmarks present
// in both files, sorted by name, plus the geometric-mean speedup. Names
// present in only one file are warned about and skipped — the two documents
// may legitimately cover different benchmark sets (e.g. a probe-enabled run
// compared against the committed probe-free baseline), so a partial overlap
// is not an error. A non-empty metric compares that b.ReportMetric unit
// instead of ns/op; benchmarks missing it on either side are skipped the
// same way. A non-empty filter regexp drops non-matching names from both
// documents before anything else, so the table, the unmatched-name warnings
// and the geomean all describe the same restricted set. The table goes to
// stdout and warnings to stderr (main passes os.Stdout/os.Stderr; tests pass
// buffers).
func compareDocs(stdout, stderr io.Writer, oldPath, newPath, metric, filter string) error {
	oldDoc, err := loadDoc(oldPath)
	if err != nil {
		return err
	}
	newDoc, err := loadDoc(newPath)
	if err != nil {
		return err
	}
	if filter != "" {
		re, err := regexp.Compile(filter)
		if err != nil {
			return fmt.Errorf("-filter: %w", err)
		}
		for _, doc := range []Document{oldDoc, newDoc} {
			for n := range doc.Benchmarks {
				if !re.MatchString(n) {
					delete(doc.Benchmarks, n)
				}
			}
		}
	}
	var names []string
	for n := range oldDoc.Benchmarks {
		if _, ok := newDoc.Benchmarks[n]; ok {
			names = append(names, n)
		}
	}
	if oldDoc.Env.differs(newDoc.Env) {
		fmt.Fprintf(stderr, "benchjson: warning: environments differ (%s: %v; %s: %v); host ns/op do not compare\n",
			oldPath, oldDoc.Env, newPath, newDoc.Env)
	}
	warnUnmatched(stderr, oldDoc, newDoc, oldPath, newPath)
	if len(names) == 0 {
		fmt.Fprintf(stderr, "benchjson: warning: no common benchmarks between %s and %s; nothing to compare\n", oldPath, newPath)
		return nil
	}
	sort.Strings(names)

	unit := "ns/op"
	if metric != "" {
		unit = metric
	}
	// value extracts the compared column; the ok result distinguishes a
	// missing custom metric from a present-but-zero one.
	value := func(r Result) (float64, bool) {
		if metric == "" {
			return r.NsPerOp, true
		}
		v, ok := r.Metrics[metric]
		return v, ok
	}
	fmt.Fprintf(stdout, "| benchmark | %s %s | %s %s | speedup |\n", oldPath, unit, newPath, unit)
	fmt.Fprintln(stdout, "|---|---:|---:|---:|")
	logSum, counted := 0.0, 0
	for _, n := range names {
		o, nw := oldDoc.Benchmarks[n], newDoc.Benchmarks[n]
		ov, oOK := value(o)
		nv, nOK := value(nw)
		if !oOK || !nOK {
			fmt.Fprintf(stderr, "benchjson: warning: %s does not report %s on both sides; skipped\n", n, metric)
			continue
		}
		row := fmt.Sprintf("| %s | %.0f | %.0f |", n, ov, nv)
		if ov > 0 && nv > 0 {
			ratio := ov / nv
			logSum += math.Log(ratio)
			counted++
			fmt.Fprintf(stdout, "%s %.2fx |\n", row, ratio)
		} else {
			fmt.Fprintf(stdout, "%s - |\n", row)
		}
	}
	if counted > 0 {
		fmt.Fprintf(stdout, "\ngeomean speedup: %.2fx over %d benchmarks\n",
			math.Exp(logSum/float64(counted)), counted)
	}
	return nil
}

// warnUnmatched lists (to stderr, sorted, before the table) every benchmark
// name that appears in only one of the two documents and is therefore
// skipped by the comparison.
func warnUnmatched(stderr io.Writer, oldDoc, newDoc Document, oldPath, newPath string) {
	var onlyOld, onlyNew []string
	for n := range oldDoc.Benchmarks {
		if _, ok := newDoc.Benchmarks[n]; !ok {
			onlyOld = append(onlyOld, n)
		}
	}
	for n := range newDoc.Benchmarks {
		if _, ok := oldDoc.Benchmarks[n]; !ok {
			onlyNew = append(onlyNew, n)
		}
	}
	sort.Strings(onlyOld)
	sort.Strings(onlyNew)
	for _, n := range onlyOld {
		fmt.Fprintf(stderr, "benchjson: warning: %s only in %s; skipped\n", n, oldPath)
	}
	for _, n := range onlyNew {
		fmt.Fprintf(stderr, "benchjson: warning: %s only in %s; skipped\n", n, newPath)
	}
}
