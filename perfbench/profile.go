package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The per-layer host-time breakdown comes from a runtime/pprof CPU profile.
// go.mod has no requirements, so this file decodes the profile's gzipped
// protocol buffer (github.com/google/pprof/proto/profile.proto) itself,
// reading only the fields attribution needs:
//
//	Profile  { 2: Sample sample; 4: Location location; 5: Function function;
//	           6: string string_table; 12: int64 period }
//	Sample   { 1: uint64 location_id (leaf first); 2: int64 value }
//	Location { 1: uint64 id; 4: Line line (innermost inlined frame first) }
//	Line     { 1: uint64 function_id }
//	Function { 1: uint64 id; 2: int64 name (string_table index) }

// repoPrefix marks a repository frame; the path element after it names the
// frame's layer.
const repoPrefix = "lelantus/internal/"

// runtimeLayer collects samples with no repository frame: garbage
// collection, the scheduler, and standard-library work the benchmark
// harness itself does.
const runtimeLayer = "runtime"

// cpuProfile is a decoded CPU profile: one entry per sample.
type cpuProfile struct {
	stacks [][]string // function names, innermost first
	nanos  []int64    // CPU nanoseconds per sample
}

// layerOf attributes one stack to the innermost frame inside
// lelantus/internal/<layer>: SHA-256 work called from the Merkle tree
// counts for bmt, AES work called from the encryption engine for enc. A
// stack with no such frame counts as runtime.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, repoPrefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
		}
	}
	return runtimeLayer
}

// selfSeconds sums CPU seconds per layer.
func (p *cpuProfile) selfSeconds() map[string]float64 {
	out := make(map[string]float64)
	for i, st := range p.stacks {
		out[layerOf(st)] += float64(p.nanos[i]) / 1e9
	}
	return out
}

// inclusiveSeconds sums CPU seconds of samples with fn anywhere on the
// stack (fn and everything it calls).
func (p *cpuProfile) inclusiveSeconds(fn string) float64 {
	var ns int64
	for i, st := range p.stacks {
		for _, f := range st {
			if f == fn {
				ns += p.nanos[i]
				break
			}
		}
	}
	return float64(ns) / 1e9
}

// parseCPUProfile decodes a profile as runtime/pprof writes it (gzipped
// or raw protocol buffer).
func parseCPUProfile(data []byte) (*cpuProfile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []rawSample
		locFns  = map[uint64][]uint64{}
		fnNames = map[uint64]int64{}
		strs    []string
		period  int64
	)
	err := eachField(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s rawSample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendPacked(&s.locs, v, b)
				case 2:
					var u []uint64
					if err := appendPacked(&u, v, b); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnNames[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		case 12:
			period = int64(v)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &cpuProfile{}
	for _, s := range samples {
		var stack []string
		for _, loc := range s.locs {
			for _, fid := range locFns[loc] {
				idx, ok := fnNames[fid]
				if !ok || idx < 0 || idx >= int64(len(strs)) {
					return nil, fmt.Errorf("profile: location %d names unknown function %d", loc, fid)
				}
				stack = append(stack, strs[idx])
			}
		}
		// A CPU profile's values are {samples, cpu nanoseconds}.
		var ns int64
		switch {
		case len(s.values) >= 2:
			ns = s.values[1]
		case len(s.values) == 1:
			ns = s.values[0] * period
		}
		p.stacks = append(p.stacks, stack)
		p.nanos = append(p.nanos, ns)
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated protocol buffer")

// eachField walks one protocol-buffer message, calling fn with each field's
// number and either its varint value or its length-delimited bytes. Fixed
// 32- and 64-bit fields are skipped; pprof uses none of them.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := readVarint(b)
		if n == 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			if v, n = readVarint(b); n == 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := readVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field in either encoding: one
// value per field (data nil) or a packed run of varints.
func appendPacked(dst *[]uint64, v uint64, data []byte) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := readVarint(data)
		if n == 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}

// readVarint decodes one base-128 varint; n is 0 when b ends mid-varint.
func readVarint(b []byte) (v uint64, n int) {
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}
