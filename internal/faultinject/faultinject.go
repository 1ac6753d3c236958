// Package faultinject is the deterministic, seeded fault-injection plane
// threaded through the secure-NVM stack. The engine reports every durable
// metadata/data persist to the plane as a named injection point; the plane
// decides — deterministically for a given seed and arming — whether that
// persist lands in full, lands as a torn 8-byte-granular prefix, is lost
// outright (dropped in a volatile queue), or is the instant the power
// fails (an injected crash, surfaced as an error wrapping ErrCrash).
//
// The simulation is single-threaded and deterministic, so the sequence of
// Hit calls is reproducible run to run: "crash at persist point N" names
// one exact machine state, which is what lets the crash-sweep harness in
// internal/sim enumerate every point and prove recovery at each of them.
//
// The plane also carries the sweep's silent-corruption oracle: with the
// shadow enabled, the engine reports the plaintext of every data-line
// write that actually became durable, and the harness checks post-recovery
// reads against that history.
package faultinject

import (
	"errors"
	"fmt"

	"lelantus/internal/mem"
)

// WordsPerLine is the number of 8-byte atomic NVM write units in one 64 B
// line. A torn write lands a prefix of these words over the old suffix —
// the 8-byte write atomicity real NVM (and the crash literature) assumes.
const WordsPerLine = mem.LineBytes / 8

// Point names one class of injection site in the stack.
type Point uint8

const (
	// DataWrite is a 64 B line write in the data region (store write-back,
	// page_phyc materialisation, re-encryption sweep).
	DataWrite Point = iota
	// QueueLoss is the same site when a volatile merging write queue fronts
	// the device: a drop there models write-queue loss at power failure.
	QueueLoss
	// CtrWrite is a counter-block persist to the NVM metadata region.
	CtrWrite
	// BMTUpdate is the leaf-digest update window immediately after a
	// counter-block persist: a fault here loses the Merkle leaf refresh, a
	// crash lands mid leaf-to-root update.
	BMTUpdate
	// CoWMetaWrite is an update of one 8-byte supplementary CoW-table entry
	// (Lelantus-CoW), performed as a read-modify-write of its 64 B line.
	CoWMetaWrite
	// PageCopySeam is the window inside page_copy between the srcAddr
	// record and the destination counter-block write (the Lelantus-CoW
	// two-step commit; Lelantus proper commits both in one block write).
	PageCopySeam
	// PagePhycLine fires after each of page_phyc's per-line copies: a crash
	// here leaves k of 64 lines materialised.
	PagePhycLine
	// ReencryptLine fires after each line of a minor-overflow re-encryption
	// sweep: a crash here leaves the page in two encryption epochs.
	ReencryptLine

	// NumPoints bounds the Point space.
	NumPoints
)

var pointNames = [NumPoints]string{
	"data-write", "queue-loss", "ctr-write", "bmt-update",
	"cow-meta-write", "page-copy-seam", "page-phyc-line", "reencrypt-line",
}

func (p Point) String() string {
	if p < NumPoints {
		return pointNames[p]
	}
	return fmt.Sprintf("Point(%d)", uint8(p))
}

// MarshalText renders the point name in JSON encodings (the crash-sweep
// cells are compared byte-for-byte across runs).
func (p Point) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

// UnmarshalText parses a point name, so a crash cell written to a grid
// results log decodes back to the same value. Unknown names are an error.
func (p *Point) UnmarshalText(b []byte) error {
	for i, n := range pointNames {
		if n == string(b) {
			*p = Point(i)
			return nil
		}
	}
	return fmt.Errorf("faultinject: unknown persist point %q", b)
}

// tearable reports whether the point has a 64 B line write in flight that a
// crash can tear; seam points are pure control-flow windows.
func tearable(p Point) bool {
	switch p {
	case DataWrite, QueueLoss, CtrWrite, CoWMetaWrite:
		return true
	}
	return false
}

// Action is what the plane does to one persist.
type Action uint8

const (
	// ActNone lets the persist land in full.
	ActNone Action = iota
	// ActDrop loses the persist entirely (volatile queue loss): neither the
	// NVM bytes nor any dependent digest changes.
	ActDrop
	// ActTear lands only the first KeepWords 8-byte words of the line.
	ActTear
	// ActCrash is a power failure at this persist: KeepWords words land
	// (0 = nothing, WordsPerLine = everything) and Err must be propagated
	// up, aborting the run.
	ActCrash
)

// Decision is the plane's verdict for one Hit. The zero value means
// "proceed normally".
type Decision struct {
	Action    Action
	KeepWords int
	// Err is the crash error to propagate (non-nil only for ActCrash).
	Err error
}

// Landed reports whether the full intended image became durable.
func (d Decision) Landed() bool {
	switch d.Action {
	case ActNone:
		return true
	case ActTear, ActCrash:
		return d.KeepWords >= WordsPerLine
	}
	return false
}

// ErrCrash is the sentinel every injected-crash error wraps; the sweep
// harness distinguishes it from genuine simulator failures with errors.Is.
var ErrCrash = errors.New("faultinject: injected crash")

// target addresses the nth Hit of one point (1-based) for directed faults.
type target struct {
	point Point
	nth   uint64
}

// Plane is the per-machine fault plane. The zero Plane is not usable; a
// nil *Plane is (every method no-ops), so the engine can hold one
// unconditionally. Not safe for concurrent use, like the machine it rides.
type Plane struct {
	seed     int64
	hits     uint64
	perPoint [NumPoints]uint64

	crashAt    uint64 // 1-based global hit index; 0 = disarmed
	crashed    bool
	crashPoint Point
	crashHit   uint64

	drops map[target]struct{}
	tears map[target]struct{}

	shadowOn bool
	shadow   map[uint64][][mem.LineBytes]byte

	// torn holds the data lines whose last persist did not land in full:
	// dropped, torn, or cut short by the crash. The full data path detects
	// such a line by its MAC, which describes the intended image; timing
	// fidelity computes no MACs and asks the plane instead.
	torn map[uint64]struct{}
}

// New creates a disarmed plane. The seed determines tear widths (how many
// 8-byte words of a torn write land), so a fixed seed reproduces the exact
// same post-crash NVM image.
func New(seed int64) *Plane {
	return &Plane{
		seed:  seed,
		drops: make(map[target]struct{}),
		tears: make(map[target]struct{}),
		torn:  make(map[uint64]struct{}),
	}
}

// Seed returns the plane's seed.
func (p *Plane) Seed() int64 {
	if p == nil {
		return 0
	}
	return p.seed
}

// Hits returns the number of persist points passed so far. A full run with
// a disarmed plane enumerates the points a crash sweep can target.
func (p *Plane) Hits() uint64 {
	if p == nil {
		return 0
	}
	return p.hits
}

// PointHits returns how many times one point class was passed.
func (p *Plane) PointHits(pt Point) uint64 {
	if p == nil {
		return 0
	}
	return p.perPoint[pt]
}

// ArmCrashAt schedules a crash at the nth global persist point (1-based).
func (p *Plane) ArmCrashAt(n uint64) { p.crashAt = n }

// ArmDrop makes the nth Hit (1-based) of the given point a lost write.
func (p *Plane) ArmDrop(pt Point, nth uint64) { p.drops[target{pt, nth}] = struct{}{} }

// ArmTear makes the nth Hit (1-based) of the given point a torn write.
func (p *Plane) ArmTear(pt Point, nth uint64) { p.tears[target{pt, nth}] = struct{}{} }

// Crashed reports whether the armed crash fired, and where.
func (p *Plane) Crashed() (Point, uint64, bool) {
	if p == nil || !p.crashed {
		return 0, 0, false
	}
	return p.crashPoint, p.crashHit, true
}

// mix is a splitmix64-style hash of (seed, n): tear widths depend only on
// the seed and the hit index, never on call history, so directed tears and
// sweep crashes are independently reproducible.
func mix(seed int64, n uint64) uint64 {
	z := uint64(seed) + n*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4B009
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Hit reports one persist point and returns the plane's decision. After a
// crash has fired the plane goes inert (the machine is being recovered;
// scrub-time reads and writes must not fault again).
func (p *Plane) Hit(pt Point) Decision {
	if p == nil || p.crashed {
		return Decision{}
	}
	p.hits++
	p.perPoint[pt]++
	n := p.hits
	if p.crashAt != 0 && n >= p.crashAt {
		p.crashed = true
		p.crashPoint = pt
		p.crashHit = n
		d := Decision{
			Action: ActCrash,
			Err:    fmt.Errorf("%w at %v (persist point %d)", ErrCrash, pt, n),
		}
		if tearable(pt) {
			// 0..WordsPerLine: nothing, a torn prefix, or the full line may
			// have landed before the power died.
			d.KeepWords = int(mix(p.seed, n) % (WordsPerLine + 1))
		}
		return d
	}
	tgt := target{pt, p.perPoint[pt]}
	if _, ok := p.drops[tgt]; ok {
		return Decision{Action: ActDrop}
	}
	if _, ok := p.tears[tgt]; ok {
		// 1..WordsPerLine-1: a directed tear always leaves a real tear.
		return Decision{Action: ActTear, KeepWords: 1 + int(mix(p.seed, n)%(WordsPerLine-1))}
	}
	return Decision{}
}

// EnableShadow starts recording, per data-line address, the history of
// plaintext images that actually became durable there (consecutive
// duplicates collapsed). The crash-sweep harness reads the history back as
// its silent-corruption oracle: after recovery, a line must read as a
// detected error, as zeros, or as some value that was durable at its
// resolved location — anything else is silent corruption.
func (p *Plane) EnableShadow() {
	p.shadowOn = true
	p.shadow = make(map[uint64][][mem.LineBytes]byte)
}

// ObserveData records plaintext that became durable at a data-line address.
// The engine calls it only for writes the plane let land in full.
func (p *Plane) ObserveData(addr uint64, plain *[mem.LineBytes]byte) {
	if p == nil || !p.shadowOn {
		return
	}
	h := p.shadow[addr]
	if n := len(h); n > 0 && h[n-1] == *plain {
		return
	}
	p.shadow[addr] = append(h, *plain)
}

// ShadowHistory returns the durable plaintext history of a line address.
func (p *Plane) ShadowHistory(addr uint64) [][mem.LineBytes]byte {
	if p == nil {
		return nil
	}
	return p.shadow[addr]
}

// NoteDataPersist records whether a data-line persist landed in full.
func (p *Plane) NoteDataPersist(addr uint64, landed bool) {
	switch {
	case !landed:
		p.torn[addr] = struct{}{}
	case len(p.torn) > 0:
		delete(p.torn, addr)
	}
}

// Torn reports whether a data line's last persist did not land in full, so
// a MAC check of the line would fail.
func (p *Plane) Torn(addr uint64) bool {
	_, ok := p.torn[addr]
	return ok
}
