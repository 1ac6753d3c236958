// Package metrics is the live telemetry plane: a nil-safe registry of
// counters, gauges and log-linear histograms with deterministic snapshots,
// Prometheus text exposition and JSON status export.
//
// Two disciplines carried over from the fault and probe planes:
//
//   - Zero cost when disabled. A nil *Registry hands out nil instruments,
//     and every instrument method on a nil receiver is a no-op — one
//     branch-predictable nil compare, zero allocations (pinned by
//     TestTelemetryDisabledAllocFree). Hot paths hold instruments
//     unconditionally.
//
//   - Strictly off the recorded-report path. Telemetry observes host time
//     and scheduling (wall clocks, worker counts, run orders) — exactly
//     the quantities the deterministic reports must never contain — so
//     nothing read from a Registry may flow into report.json or any
//     experiment report. The grid byte-identity tests pin this.
//
// Unlike the single-threaded probe plane, Registry instruments are safe
// for concurrent use: the grid coordinator updates them from every worker
// goroutine. Counters and gauges are single atomics; histograms take one
// uncontended mutex per observation (cell completions are orders of
// magnitude rarer than the counter updates).
package metrics

import (
	"math"
	"math/bits"
)

// The log-linear ("HDR-style") bucket layout: values below 2^HistSubBits
// get one exact bucket each; above that, every power-of-two range [2^e,
// 2^(e+1)) is split into 2^HistSubBits linear sub-buckets, so any recorded
// value is bucketed within a relative error of 2^-HistSubBits (~3%).
// Values of 2^HistMaxExp and beyond clamp into the last bucket — at
// nanosecond resolution that is ~18 simulated minutes, far past any
// latency this simulator charges.
const (
	// HistSubBits selects 2^HistSubBits linear sub-buckets per octave.
	HistSubBits = 5
	histSub     = 1 << HistSubBits
	// HistMaxExp bounds the value range: 2^HistMaxExp and above clamp.
	HistMaxExp = 40
	// HistBuckets is the fixed bucket count of a Hist.
	HistBuckets = (HistMaxExp - HistSubBits + 1) * histSub
)

// bucketIndex maps a value to its bucket. The layout is continuous: bucket
// v for v < 32, then 32 sub-buckets per octave.
func bucketIndex(v uint64) int {
	if v < histSub {
		return int(v)
	}
	e := bits.Len64(v) - 1
	if e >= HistMaxExp {
		return HistBuckets - 1
	}
	return (e-HistSubBits)*histSub + int(v>>(uint(e)-HistSubBits))
}

// BucketBounds returns the closed value range [lo, hi] bucket i counts.
// The final bucket is open-ended; its hi is the largest representable
// value so cumulative exposition stays monotone.
func BucketBounds(i int) (lo, hi uint64) {
	if i < histSub {
		return uint64(i), uint64(i)
	}
	g := i / histSub // octaves above the exact region, 1-based
	s := uint64(i % histSub)
	shift := uint(g - 1)
	lo = (histSub + s) << shift
	if i == HistBuckets-1 {
		return lo, ^uint64(0)
	}
	return lo, lo + (1 << shift) - 1
}

// Hist is a fixed-size log-linear histogram. It is a plain value — no
// pointers, no allocation to embed one — shared by the probe plane's
// per-event-class latency histograms and the telemetry registry's
// Histogram instrument. A Hist is NOT safe for concurrent use; Histogram
// wraps one in a mutex for the registry.
type Hist struct {
	Buckets [HistBuckets]uint64
	Count   uint64
	Sum     uint64
	Max     uint64
}

// Observe records one value.
func (h *Hist) Observe(v uint64) {
	h.Buckets[bucketIndex(v)]++
	h.Count++
	h.Sum += v
	if v > h.Max {
		h.Max = v
	}
}

// Merge adds another histogram's observations into h.
func (h *Hist) Merge(o *Hist) {
	for i, n := range o.Buckets {
		h.Buckets[i] += n
	}
	h.Count += o.Count
	h.Sum += o.Sum
	if o.Max > h.Max {
		h.Max = o.Max
	}
}

// Percentile returns the q-th percentile (0 < q <= 100): the upper bound
// of the bucket holding the ceil(q/100*Count)-th smallest observation,
// clamped to the observed maximum. The result is exact for values in the
// sub-HistSubBits region and within 2^-HistSubBits relative error above
// it, and — being a pure function of the bucket counts — deterministic
// across runs. A histogram with no observations reports 0.
func (h *Hist) Percentile(q float64) uint64 {
	if h.Count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(float64(h.Count) * q / 100))
	if rank < 1 {
		rank = 1
	}
	if rank > h.Count {
		rank = h.Count
	}
	var cum uint64
	for i, n := range h.Buckets {
		cum += n
		if cum >= rank {
			_, hi := BucketBounds(i)
			if hi > h.Max {
				hi = h.Max
			}
			return hi
		}
	}
	return h.Max
}

// Percentiles returns the given percentiles in order (the conventional
// call is Percentiles(50, 90, 99, 99.9)).
func (h *Hist) Percentiles(qs ...float64) []uint64 {
	out := make([]uint64, len(qs))
	for i, q := range qs {
		out[i] = h.Percentile(q)
	}
	return out
}

// Each invokes fn over every non-empty bucket in ascending value order.
func (h *Hist) Each(fn func(lo, hi, n uint64)) {
	for i, n := range h.Buckets {
		if n == 0 {
			continue
		}
		lo, hi := BucketBounds(i)
		fn(lo, hi, n)
	}
}
