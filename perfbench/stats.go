package main

import (
	"fmt"
	"math"
	"sort"

	"lelantus/internal/sim"
)

// geomean returns the geometric mean of xs, or 0 when xs is empty or holds
// a non-positive value (a ratio with a zero side has no meaningful mean).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var logSum float64
	for _, x := range xs {
		if !(x > 0) {
			return 0
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

// median returns the middle value of xs (mean of the two middle values for
// an even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// pair is one Baseline/Lelantus comparison: the same inputs run on both
// schemes with every other machine parameter equal.
type pair struct {
	group     string
	base, lel sim.Result
}

// lelantusSpeedup is the geometric mean of Baseline over Lelantus simulated
// execution time across the pairs (above 1 means Lelantus is faster).
func lelantusSpeedup(pairs []pair) float64 {
	xs := make([]float64, 0, len(pairs))
	for _, p := range pairs {
		xs = append(xs, p.lel.SpeedupVs(p.base))
	}
	return geomean(xs)
}

// lelantusWriteRatio is the geometric mean of Lelantus over Baseline NVM
// writes across the pairs (below 1 means Lelantus writes less).
func lelantusWriteRatio(pairs []pair) float64 {
	xs := make([]float64, 0, len(pairs))
	for _, p := range pairs {
		xs = append(xs, p.lel.WriteReductionVs(p.base))
	}
	return geomean(xs)
}

// paperFig9 is the paper's Fig. 9 Lelantus speedup over Baseline per
// application and page size, as tabulated in EXPERIMENTS.md ("paper 4KB"
// and "paper 2MB" columns). The non-copy control is left out: it has no
// CoW activity, so both sides read 1.00 by construction.
var paperFig9 = map[string]float64{
	"boot/4KB": 1.20, "boot/2MB": 1.57,
	"compile/4KB": 1.58, "compile/2MB": 5.39,
	"forkbench/4KB": 2.24, "forkbench/2MB": 30.57,
	"redis/4KB": 3.43, "redis/2MB": 23.28,
	"mariadb/4KB": 1.15, "mariadb/2MB": 1.47,
	"shell/4KB": 2.99, "shell/2MB": 9.27,
}

// paperSpeedupErr is the geometric mean, over the paper's Fig. 9 cells, of
// the factor by which our Lelantus speedup differs from the paper's in
// either direction: 1 is exact agreement, 2 means off by 2x on (geometric)
// average. ours is keyed like paperFig9 and must cover every paper cell.
func paperSpeedupErr(ours map[string]float64) (float64, error) {
	factors := make([]float64, 0, len(paperFig9))
	for key, paper := range paperFig9 {
		got, ok := ours[key]
		if !ok || !(got > 0) {
			return 0, fmt.Errorf("no measured speedup for paper cell %s", key)
		}
		f := got / paper
		if f < 1 {
			f = 1 / f
		}
		factors = append(factors, f)
	}
	return geomean(factors), nil
}

// tailRank applies the tail rule: the reported tail is the highest
// percentile that still has at least ten samples beyond it. For n samples
// sorted ascending that is the value at 0-based index n-11, the
// 100*(n-10)/n-th percentile. ok is false when n <= 10: no percentile has
// ten samples beyond it.
func tailRank(n int) (idx int, pct float64, ok bool) {
	if n <= 10 {
		return 0, 0, false
	}
	return n - 11, 100 * float64(n-10) / float64(n), true
}

// cellTimes summarises per-cell host times: the median and the tail-rule
// percentile with its rank, over n samples. tail is 0 when n <= 10.
type cellTimes struct {
	p50, tail, tailPct float64
	n                  int
}

func summariseCells(samples []float64) cellTimes {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	ct := cellTimes{p50: median(s), n: len(s)}
	if idx, pct, ok := tailRank(len(s)); ok {
		ct.tail, ct.tailPct = s[idx], pct
	}
	return ct
}

// cellRun is one cell's outcome as the output checks see it.
type cellRun struct {
	// group names the cells that ran the same inputs under different
	// schemes (application, page size and any other machine axis), so
	// they may be compared with each other.
	group  string
	scheme string
	res    *sim.Result // nil when the cell failed or was a crash cell
	err    string      // a returned error or a recovered panic
	// violations counts recovery-oracle violations (crash cells).
	violations int
}

// Failure reasons, in the order a cell is checked.
const (
	failError        = "error"
	failOracle       = "recovery-oracle violation"
	failWrites       = "data writes above Baseline"
	failResumeRecord = "results-log record rejected, so resume re-runs the cell"
	failResumeRerun  = "finished cell re-run by resume"
	failResumeDiff   = "report changed by resume"
)

// checkCells returns, for every failed cell index, the first reason it
// failed: a returned error or panic, a recovery-oracle violation, or (for
// Lelantus and Lelantus-CoW) more data writes than Baseline made on the
// same group (DESIGN.md §4 invariant 5: redirection never adds writes).
func checkCells(cells []cellRun) map[int]string {
	failed := make(map[int]string)
	base := make(map[string]uint64)
	for _, c := range cells {
		if c.scheme == "baseline" && c.res != nil && c.err == "" {
			base[c.group] = c.res.Engine.DataWrites
		}
	}
	for i, c := range cells {
		switch {
		case c.err != "":
			failed[i] = failError
		case c.violations > 0:
			failed[i] = failOracle
		case c.res != nil && (c.scheme == "lelantus" || c.scheme == "lelantus-cow"):
			if b, ok := base[c.group]; ok && c.res.Engine.DataWrites > b {
				failed[i] = failWrites
			}
		}
	}
	return failed
}

// bestRunS is the host seconds of one pass with each separately timed
// part at its fastest over the passes. Other load on a shared host only
// ever slows a part down, so a part slowed in one pass is timed from a
// pass in which it was not. Every pass has the same parts.
func bestRunS(passes [][]float64) float64 {
	best := append([]float64(nil), passes[0]...)
	for _, parts := range passes[1:] {
		for i, s := range parts {
			best[i] = min(best[i], s)
		}
	}
	var sum float64
	for _, s := range best {
		sum += s
	}
	return sum
}

// errorRate is failed over attempted operations (0 when nothing ran).
func errorRate(failed, attempted int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}
