// Package bmt implements a Bonsai Merkle Tree (Rogers et al. [29]) over the
// encryption-counter blocks, plus the per-line data MACs that, together
// with the tree, give the integrity guarantees the paper's threat model
// assumes: tampering with NVM-resident counters or data — including the CoW
// metadata Lelantus embeds in counter blocks — is detected.
//
// Following the Bonsai construction, only counter blocks are covered by the
// tree (the root is kept on chip); data blocks are protected by a MAC
// computed over (ciphertext, address, counter), which the counter's
// freshness guarantee makes replay-proof.
//
// The implementation is built for the simulator's hot path:
//
//   - One HMAC state per Tree/MACStore, reused via Reset(): crypto/hmac
//     caches the padded-key states after the first Sum, so a reset is a
//     small fixed-size restore instead of a fresh key schedule, and no
//     per-operation allocation happens. Scratch buffers live in the struct
//     so nothing passed to the hash interface escapes to the heap. The
//     price is that a Tree or MACStore must not be used concurrently —
//     which the per-machine simulator never does.
//   - Root maintenance is lazy: Update computes the new leaf hash
//     immediately (the raw block is not retained) and only marks the
//     leaf-to-root path dirty; inner nodes and the root are recomputed on
//     the next Verify or Root call. Back-to-back updates under a shared
//     subtree collapse into one recomputation of that subtree, which is
//     exactly the scheduling win tree-update streamlining papers (Freij et
//     al.) report for hardware — here it removes the dominant metadata
//     cost of counter-block drains.
//
// The lazy tree is observationally identical to an eager one: Updates and
// Verifies still count logical operations, and Root()/Verify() always see
// the fully propagated state (a differential test checks byte-identical
// roots against an eager reference).
package bmt

import (
	"crypto/hmac"
	"crypto/sha256"
	"fmt"
	"hash"
)

// Arity is the tree fan-out. An 8-ary tree over 64 B counter blocks keeps
// the tree shallow: 16 GB of data / 4 KB pages = 4 M counter blocks, which
// an 8-ary tree covers in 8 levels.
const Arity = 8

const hashSize = sha256.Size

// Domain-separation tags. Package-level so writing them to the hash never
// materialises a fresh slice.
var (
	leafTag = []byte("leaf")
	nodeTag = []byte("node")
)

// Tree is a sparse Bonsai Merkle Tree over counter-block indices.
// Level 0 holds leaf hashes (one per counter block); the single node at
// the top level is the on-chip root. Not safe for concurrent use.
type Tree struct {
	levels int
	// nodes[l] maps node index at level l to its hash. Absent nodes have
	// the precomputed default hash for that level (all-absent subtree).
	nodes    []map[uint64][hashSize]byte
	defaults [][hashSize]byte
	root     [hashSize]byte

	// dirty[l] (l >= 1) holds inner nodes whose children changed since the
	// last flush. Invariant: a dirty node's ancestors are all dirty, so
	// Update can stop climbing at the first already-dirty node.
	dirty   []map[uint64]struct{}
	pending bool

	// mac is the reusable keyed HMAC state; childBuf/sumBuf are the
	// scratch buffers handed to it (struct fields, so the interface call
	// does not force a heap allocation per operation). key is retained so
	// NewLeafVerifier can derive independent states for concurrent readers.
	// The embedded LeafVerifier is the tree's own leaf hasher, sharing mac.
	key      []byte
	mac      hash.Hash
	childBuf [hashSize]byte
	sumBuf   [hashSize]byte
	LeafVerifier

	Updates  uint64
	verifies uint64

	// accountingOnly elides all hashing (timing-only fidelity): operation
	// counters and the dirty-path bookkeeping stay exact, nodes are never
	// computed or stored, and Verify always succeeds.
	accountingOnly bool
}

// New creates a tree able to cover nBlocks counter blocks, keyed for HMAC.
func New(key []byte, nBlocks uint64) *Tree {
	levels := 1
	for span := uint64(1); span < nBlocks; span *= Arity {
		levels++
	}
	t := &Tree{levels: levels, mac: hmac.New(sha256.New, key), key: append([]byte(nil), key...)}
	t.LeafVerifier = LeafVerifier{t: t, mac: t.mac}
	t.nodes = make([]map[uint64][hashSize]byte, levels)
	t.dirty = make([]map[uint64]struct{}, levels)
	for i := range t.nodes {
		t.nodes[i] = make(map[uint64][hashSize]byte)
		t.dirty[i] = make(map[uint64]struct{})
	}
	// Default (empty) hashes, bottom-up.
	t.defaults = make([][hashSize]byte, levels)
	t.defaults[0] = t.digest(^uint64(0), nil)
	for l := 1; l < levels; l++ {
		t.defaults[l] = t.innerHash(t.defaults[l-1])
	}
	t.root = t.defaults[levels-1]
	return t
}

// DisableHashing switches the tree to accounting-only mode, used by the
// timing-only fidelity (core.FidelityTiming): Update and Verify keep
// their operation counters and the leaf-to-root dirty-path bookkeeping —
// the propagation work a flush would schedule is byte-identically
// accounted — but no HMAC is ever computed and no inner node is stored.
// Leaf *presence* is still recorded (a zero digest per updated leaf), so
// the recovery rebuild reports byte-identical per-level node counts under
// both fidelities. Verification always succeeds, so this must never be
// used where integrity results matter (the machine-wide fidelity knob
// guarantees security-invariant tests run with hashing enabled).
func (t *Tree) DisableHashing() { t.accountingOnly = true }

// finish finalises the running MAC into the scratch buffer and returns it.
func (t *Tree) finish() [hashSize]byte {
	t.mac.Sum(t.sumBuf[:0])
	return t.sumBuf
}

// innerHash of a node whose children are all default at the level below.
func (t *Tree) innerHash(childDefault [hashSize]byte) [hashSize]byte {
	t.mac.Reset()
	t.mac.Write(nodeTag)
	t.childBuf = childDefault
	for i := 0; i < Arity; i++ {
		t.mac.Write(t.childBuf[:])
	}
	return t.finish()
}

func (t *Tree) nodeHash(level int, idx uint64) [hashSize]byte {
	if h, ok := t.nodes[level][idx]; ok {
		return h
	}
	return t.defaults[level]
}

func (t *Tree) recomputeInner(level int, idx uint64) [hashSize]byte {
	t.mac.Reset()
	t.mac.Write(nodeTag)
	base := idx * Arity
	for i := uint64(0); i < Arity; i++ {
		t.childBuf = t.nodeHash(level-1, base+i)
		t.mac.Write(t.childBuf[:])
	}
	return t.finish()
}

// Update installs the new content of counter block idx. Only the leaf hash
// is computed now; the path to the root is marked dirty and recomputed
// lazily on the next Verify or Root call, so bursts of updates (a counter
// drain, neighbouring pages) share one propagation pass.
func (t *Tree) Update(idx uint64, raw []byte) {
	t.Updates++
	if t.accountingOnly {
		t.nodes[0][idx] = [hashSize]byte{} // presence only: drives the rebuild counts
	} else {
		t.nodes[0][idx] = t.digest(idx, raw)
	}
	t.pending = true
	node := idx
	for l := 1; l < t.levels; l++ {
		node /= Arity
		if _, ok := t.dirty[l][node]; ok {
			// Its ancestors are already dirty too (invariant): this update
			// collapses into a previously marked path.
			return
		}
		t.dirty[l][node] = struct{}{}
	}
}

// flush propagates all dirty paths and re-derives the on-chip root. Levels
// are processed bottom-up, so every recompute reads fully refreshed
// children.
func (t *Tree) flush() {
	if !t.pending {
		return
	}
	for l := 1; l < t.levels; l++ {
		if !t.accountingOnly {
			for node := range t.dirty[l] {
				t.nodes[l][node] = t.recomputeInner(l, node)
			}
		}
		clear(t.dirty[l])
	}
	if !t.accountingOnly {
		t.root = t.nodeHash(t.levels-1, 0)
	}
	t.pending = false
}

// Verify checks that the given counter-block content is authentic: the leaf
// recomputed from raw, combined with its stored siblings, must reproduce
// the on-chip root.
func (t *Tree) Verify(idx uint64, raw []byte) error {
	t.verifies++
	t.flush()
	if t.accountingOnly {
		return nil
	}
	h := t.digest(idx, raw)
	node := idx
	for l := 1; l < t.levels; l++ {
		parent := node / Arity
		t.mac.Reset()
		t.mac.Write(nodeTag)
		base := parent * Arity
		for i := uint64(0); i < Arity; i++ {
			if child := base + i; child == node {
				t.childBuf = h
			} else {
				t.childBuf = t.nodeHash(l-1, child)
			}
			t.mac.Write(t.childBuf[:])
		}
		h = t.finish()
		node = parent
	}
	if h != t.root {
		return fmt.Errorf("bmt: integrity violation at counter block %d", idx)
	}
	return nil
}

// Verifies returns the number of verification operations performed.
func (t *Tree) Verifies() uint64 { return t.verifies }

// Root returns the current on-chip root, propagating any pending updates
// first (tests and crash-drain use it as the quiesce point).
func (t *Tree) Root() [hashSize]byte {
	t.flush()
	return t.root
}

// RootRegister returns the root as last propagated — the battery-held
// on-chip register a crash preserves — without flushing pending updates.
// Root() is the quiesce point; this is the crash-time view the recovery
// scrub compares its rebuilt root against.
func (t *Tree) RootRegister() [hashSize]byte { return t.root }

// RebuildFromLeaves reconstructs every inner node and the root from the
// persisted leaf digests — Phoenix-style selective persistence: leaves are
// durable alongside their counter blocks while the tree interior is
// volatile on-chip state, so recovery recomputes it bottom-up instead of
// persisting every inner-node update during normal operation. Any pending
// lazy propagation is superseded. Returns the number of inner nodes
// rebuilt.
func (t *Tree) RebuildFromLeaves() uint64 {
	var rebuilt uint64
	for _, n := range t.RebuildFromLeavesByLevel() {
		rebuilt += n
	}
	return rebuilt
}

// RebuildFromLeavesByLevel is RebuildFromLeaves with per-level accounting:
// element i counts the nodes rebuilt at inner level i+1 (level 0 being the
// leaf digests). Leveled persistence strategies (Triad-NVM) charge durable
// and rebuilt levels differently, so recovery needs the breakdown. In
// accounting-only mode no hash is computed, but the counts (driven by leaf
// presence, which Update records in both modes) are byte-identical.
func (t *Tree) RebuildFromLeavesByLevel() []uint64 {
	for l := 1; l < t.levels; l++ {
		clear(t.dirty[l])
	}
	t.pending = false
	counts := make([]uint64, t.levels-1)
	for l := 1; l < t.levels; l++ {
		fresh := make(map[uint64][hashSize]byte, len(t.nodes[l-1])/Arity+1)
		for child := range t.nodes[l-1] {
			parent := child / Arity
			if _, done := fresh[parent]; done {
				continue
			}
			if t.accountingOnly {
				fresh[parent] = [hashSize]byte{}
			} else {
				fresh[parent] = t.recomputeInner(l, parent)
			}
			counts[l-1]++
		}
		t.nodes[l] = fresh
	}
	if !t.accountingOnly {
		t.root = t.nodeHash(t.levels-1, 0)
	}
	return counts
}

// ResetLeaf overwrites counter block idx's stored leaf digest with one
// recomputed from raw — the recovery path for persistence levels that do
// not persist leaf digests (Triad-NVM counters-only): whatever bytes the
// NVM image holds are adopted as ground truth, and a torn counter write is
// left for the data-MAC scrub or a later read to flag. Dirty-path
// bookkeeping is untouched: callers follow up with RebuildFromLeaves,
// which supersedes any pending propagation. Accounting-only trees record
// presence without hashing.
func (t *Tree) ResetLeaf(idx uint64, raw []byte) {
	if t.accountingOnly {
		t.nodes[0][idx] = [hashSize]byte{}
		return
	}
	t.nodes[0][idx] = t.digest(idx, raw)
}

// Levels returns the tree's level count, including the leaf-digest level
// (level 0) and the root's level.
func (t *Tree) Levels() int { return t.levels }

// macPageLines groups per-line MACs into fixed 64-line pages (one 4 KB data
// page's worth), so the store is a dense two-level table instead of a map:
// page lookup is an array index, presence is one bit, and the Drop-heavy
// CoW command stream (64 drops per page_copy/free/init) never churns hash
// buckets.
const macPageLines = 64

// macPage holds one data page's MACs plus a presence bitmask.
type macPage struct {
	present uint64
	sums    [macPageLines][hashSize]byte
}

// MACStore holds the per-line data MACs. A line's MAC binds the ciphertext
// to its address and encryption counter, so stale or relocated ciphertext
// fails verification. Not safe for concurrent use (single reusable HMAC
// state, like Tree).
//
// The embedded MACVerifier is the store's own MAC computer: Verify and Sum
// are its methods, Update is Sum plus StoreSum.
type MACStore struct {
	key   []byte // retained for NewVerifier's independent HMAC states
	pages []*macPage
	MACVerifier
}

// NewMACStore creates an empty MAC store with the given key.
func NewMACStore(key []byte) *MACStore {
	s := &MACStore{key: append([]byte(nil), key...)}
	s.MACVerifier = MACVerifier{s: s, mac: hmac.New(sha256.New, key)}
	return s
}

// page returns the MAC page for a line number, materialising it if create
// is set; otherwise absent pages return nil.
func (s *MACStore) page(lineNo uint64, create bool) *macPage {
	idx := lineNo / macPageLines
	if idx >= uint64(len(s.pages)) {
		if !create {
			return nil
		}
		grown := make([]*macPage, idx+1+idx/2)
		copy(grown, s.pages)
		s.pages = grown
	}
	p := s.pages[idx]
	if p == nil && create {
		p = new(macPage)
		s.pages[idx] = p
	}
	return p
}

// Update records the MAC for a freshly written line.
func (s *MACStore) Update(lineNo uint64, ciph []byte, major uint64, minor uint8) {
	s.StoreSum(lineNo, s.Sum(lineNo, ciph, major, minor))
}

// MACMismatch is the error a data line that fails its MAC check reads as.
func MACMismatch(lineNo uint64) error {
	return fmt.Errorf("bmt: data MAC mismatch at line %#x", lineNo)
}

// Drop removes the MAC of a line (page freed and its metadata reset).
func (s *MACStore) Drop(lineNo uint64) {
	if p := s.page(lineNo, false); p != nil {
		p.present &^= 1 << (lineNo % macPageLines)
	}
}
