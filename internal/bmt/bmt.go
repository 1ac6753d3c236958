// Package bmt implements a Bonsai Merkle Tree (Rogers et al. [29]) over the
// encryption-counter blocks, plus the per-line data MACs that, together
// with the tree, give the integrity guarantees the paper's threat model
// assumes: tampering with NVM-resident counters or data — including the CoW
// metadata Lelantus embeds in counter blocks — is detected.
//
// Following the Bonsai construction, only counter blocks are covered by the
// tree; data blocks are protected by a MAC computed over (ciphertext,
// address, counter), which the counter's freshness guarantee makes
// replay-proof. The data MAC is a Carter-Wegman tag, AES-GCM used as a MAC
// (GMAC) over the pad's nonce, as in Intel's SGX memory encryption engine
// (Gueron, 2016): tag = GHASH_H(ciphertext ‖ line) ⊕ AES_K(J0(line, major,
// minor)). The tree keeps HMAC-SHA256, since a Merkle tree needs a
// collision-resistant hash, not a nonce-based MAC.
//
// Leaf digests are durable beside their counter blocks, while the tree
// interior and the root register are on-chip state, and on chip means
// trusted. Verify therefore stops at the first on-chip node, as
// hardware does: it recomputes the block's level-1 parent from the
// candidate digest and the seven stored sibling digests, and compares it
// with the stored level-1 node. A tampered block or a tampered stored leaf
// digest changes that parent, so both are caught.
//
// The implementation is built for the simulator's hot path:
//
//   - One HMAC state per Tree, reused via Reset(): crypto/hmac caches the
//     padded-key states after the first Sum, so a reset is a small
//     fixed-size restore instead of a fresh key schedule, and no
//     per-operation allocation happens. A MACStore likewise keeps one GCM
//     state. Scratch buffers live in the struct so nothing passed to the
//     hash or AEAD interface escapes to the heap. The price is that a Tree
//     or MACStore must not be used concurrently — which the per-machine
//     simulator never does.
//   - Siblings are stored together: every level keeps its hashes in groups
//     of Arity keyed by the parent's index, laid out as the parent's hash
//     input, so hashing a parent is one map lookup and one 256-byte write.
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
// the fully propagated state. Differential tests check byte-identical roots
// against an eager reference and identical verdicts against the full
// leaf-to-root walk.
package bmt

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"fmt"
	"hash"
	"slices"
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

// siblings holds the Arity children of one parent node, contiguous in the
// order the parent's hash reads them. An absent child holds its level's
// default hash; bit i of present is set once child i has been stored.
type siblings struct {
	h       [Arity * hashSize]byte
	present uint8
}

// get returns child i's hash in place.
func (g *siblings) get(i uint64) *[hashSize]byte {
	return (*[hashSize]byte)(g.h[i*hashSize:])
}

// Tree is a sparse Bonsai Merkle Tree over counter-block indices.
// Level 0 holds leaf hashes (one per counter block); the single node at
// the top level is the on-chip root. Not safe for concurrent use.
type Tree struct {
	levels int
	// span is Arity^(levels-1), the number of leaves under the root. A
	// larger index hangs under another top-level node, so it never verifies.
	span uint64
	// nodes[l] holds level l's hashes in sibling groups keyed by the
	// parent's index: node i is child i%Arity of group i/Arity. blank[l] is
	// the read-only group of all-absent level-l nodes, each holding the
	// level's default hash (the hash of an all-absent subtree).
	nodes []map[uint64]*siblings
	blank []*siblings
	root  [hashSize]byte

	// dirty[l] (l >= 1) holds inner nodes whose children changed since the
	// last flush. Invariant: a dirty node's ancestors are all dirty, so
	// Update can stop climbing at the first already-dirty node.
	dirty   []map[uint64]struct{}
	pending bool

	// mac is the reusable keyed HMAC state; sumBuf/idxBuf/verifyBuf are the
	// scratch buffers handed to it (struct fields, so the interface call
	// does not force a heap allocation per operation), and rawBuf a
	// reusable copy of leaf content, so the caller's buffer never escapes
	// through the hash interface.
	mac       hash.Hash
	sumBuf    [hashSize]byte
	idxBuf    [8]byte
	verifyBuf siblings
	rawBuf    []byte

	Updates  uint64
	verifies uint64

	// accountingOnly elides all hashing (timing-only fidelity): operation
	// counters stay exact, leaf presence is kept in marks (one presence
	// byte per sibling group, keyed like nodes[0]), no path is marked dirty
	// (no flush would read it), inner nodes are never computed or stored,
	// and Verify always succeeds.
	accountingOnly bool
	marks          map[uint64]uint8
}

// New creates a tree able to cover nBlocks counter blocks, keyed for HMAC.
func New(key []byte, nBlocks uint64) *Tree {
	levels, span := 1, uint64(1)
	for ; span < nBlocks; span *= Arity {
		levels++
	}
	t := &Tree{levels: levels, span: span, mac: hmac.New(sha256.New, key)}
	t.nodes = make([]map[uint64]*siblings, levels)
	t.dirty = make([]map[uint64]struct{}, levels)
	t.blank = make([]*siblings, levels)
	var def [hashSize]byte
	for l := range levels {
		t.nodes[l] = make(map[uint64]*siblings)
		t.dirty[l] = make(map[uint64]struct{})
		// Default (empty) hashes, bottom-up.
		if l == 0 {
			def = t.digest(^uint64(0), nil)
		} else {
			def = t.hashGroup(t.blank[l-1])
		}
		t.blank[l] = new(siblings)
		for i := uint64(0); i < Arity; i++ {
			*t.blank[l].get(i) = def
		}
	}
	t.root = def
	return t
}

// DisableHashing switches the tree to accounting-only mode, used by the
// timing-only fidelity (core.FidelityTiming): Update and Verify keep
// their operation counters, but no HMAC is ever computed, no inner node
// is stored and no path is marked dirty, since no flush reads one.
// Leaf *presence* is still recorded (one bit per updated leaf), so the
// recovery rebuild reports byte-identical per-level node counts under
// both fidelities. Verification always succeeds, so this must never be
// used where integrity results matter (the machine-wide fidelity knob
// guarantees security-invariant tests run with hashing enabled).
func (t *Tree) DisableHashing() {
	t.accountingOnly = true
	t.marks = make(map[uint64]uint8)
}

// finish finalises the running MAC into the scratch buffer and returns it.
func (t *Tree) finish() [hashSize]byte {
	t.mac.Sum(t.sumBuf[:0])
	return t.sumBuf
}

// hashGroup is the hash of the parent node whose children are g.
func (t *Tree) hashGroup(g *siblings) [hashSize]byte {
	t.mac.Reset()
	t.mac.Write(nodeTag)
	t.mac.Write(g.h[:])
	return t.finish()
}

// group returns the sibling group under parent at level l, or the level's
// blank group when none is stored.
func (t *Tree) group(l int, parent uint64) *siblings {
	if g, ok := t.nodes[l][parent]; ok {
		return g
	}
	return t.blank[l]
}

func (t *Tree) nodeHash(l int, idx uint64) [hashSize]byte {
	return *t.group(l, idx/Arity).get(idx % Arity)
}

// store sets node idx of level l to h, creating its sibling group from the
// level's blank group when absent.
func (t *Tree) store(l int, idx uint64, h *[hashSize]byte) {
	g, ok := t.nodes[l][idx/Arity]
	if !ok {
		g = new(siblings)
		*g = *t.blank[l]
		t.nodes[l][idx/Arity] = g
	}
	*g.get(idx % Arity) = *h
	g.present |= 1 << (idx % Arity)
}

// setLeaf stores counter block idx's leaf digest of raw; an accounting-only
// tree records only the leaf's presence.
func (t *Tree) setLeaf(idx uint64, raw []byte) {
	if t.accountingOnly {
		t.marks[idx/Arity] |= 1 << (idx % Arity)
		return
	}
	h := t.digest(idx, raw)
	t.store(0, idx, &h)
}

// Update installs the new content of counter block idx. Only the leaf hash
// is computed now; the path to the root is marked dirty and recomputed
// lazily on the next Verify or Root call, so bursts of updates (a counter
// drain, neighbouring pages) share one propagation pass.
func (t *Tree) Update(idx uint64, raw []byte) {
	t.Updates++
	t.setLeaf(idx, raw)
	if t.accountingOnly {
		return
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
		for node := range t.dirty[l] {
			h := t.hashGroup(t.group(l-1, node))
			t.store(l, node, &h)
		}
		clear(t.dirty[l])
	}
	t.root = t.nodeHash(t.levels-1, 0)
	t.pending = false
}

// Verify checks that raw is the authentic content of counter block idx.
// The tree interior is on-chip, trusted state (only the leaf digests and
// the root register are durable; see RebuildFromLeavesByLevel), so the
// check stops at the first on-chip node: idx's level-1 parent, recomputed
// from the digest of raw in idx's slot and the seven stored sibling
// digests, must equal the stored level-1 node. Every level above it was
// derived from the level below, so the full leaf-to-root walk would reach
// the root exactly when this check passes. Two cases keep that walk's
// verdict by rule: an index at or beyond the root's span fails, since its
// path never reaches the root, and a one-level tree, whose only node is
// the root, compares the digest with the root register. Pending updates
// are propagated first, so the root register is current after every
// Verify (crash recovery compares against it).
func (t *Tree) Verify(idx uint64, raw []byte) error {
	t.verifies++
	t.flush()
	if t.accountingOnly {
		return nil
	}
	if idx < t.span {
		h, want := t.digest(idx, raw), t.root
		if t.levels > 1 {
			parent := idx / Arity
			t.verifyBuf = *t.group(0, parent)
			*t.verifyBuf.get(idx % Arity) = h
			h, want = t.hashGroup(&t.verifyBuf), t.nodeHash(1, parent)
		}
		if h == want {
			return nil
		}
	}
	return fmt.Errorf("bmt: integrity violation at counter block %d", idx)
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

// RebuildFromLeavesByLevel reconstructs every inner node and the root from
// the persisted leaf digests — Phoenix-style selective persistence: leaves
// are durable alongside their counter blocks while the tree interior is
// volatile on-chip state, so recovery recomputes it bottom-up instead of
// persisting every inner-node update during normal operation. Any pending
// lazy propagation is superseded. Element i of the result counts the
// nodes rebuilt at inner level i+1 (level 0 being the leaf digests), which
// is the number of sibling groups at level i.
// Leveled persistence strategies (Triad-NVM) charge durable and rebuilt
// levels differently, so recovery needs the breakdown. In accounting-only
// mode no hash is computed, but the counts (driven by leaf
// presence, which Update records in both modes) are byte-identical.
func (t *Tree) RebuildFromLeavesByLevel() []uint64 {
	for l := 1; l < t.levels; l++ {
		clear(t.dirty[l])
	}
	t.pending = false
	counts := make([]uint64, t.levels-1)
	if t.accountingOnly {
		// The groups at level l are the distinct leaf-group keys divided
		// by Arity^l; division keeps sorted keys sorted.
		keys := make([]uint64, 0, len(t.marks))
		for k := range t.marks {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for l := range counts {
			keys = slices.Compact(keys)
			counts[l] = uint64(len(keys))
			for i := range keys {
				keys[i] /= Arity
			}
		}
		return counts
	}
	for l := 1; l < t.levels; l++ {
		below := t.nodes[l-1]
		t.nodes[l] = make(map[uint64]*siblings, len(below)/Arity+1)
		for parent, g := range below {
			h := t.hashGroup(g)
			t.store(l, parent, &h)
		}
		counts[l-1] = uint64(len(below))
	}
	t.root = t.nodeHash(t.levels-1, 0)
	return counts
}

// ResetLeaf overwrites counter block idx's stored leaf digest with one
// recomputed from raw — the recovery path for persistence levels that do
// not persist leaf digests (Triad-NVM counters-only): whatever bytes the
// NVM image holds are adopted as ground truth, and a torn counter write is
// left for the data-MAC scrub or a later read to flag. Dirty-path
// bookkeeping is untouched: callers follow up with RebuildFromLeavesByLevel,
// which supersedes any pending propagation. Accounting-only trees record
// presence without hashing.
func (t *Tree) ResetLeaf(idx uint64, raw []byte) { t.setLeaf(idx, raw) }

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
	tags    [macPageLines]Tag
}

// MACStore holds the per-line data MACs. A line's MAC binds the ciphertext
// to its address and encryption counter, so stale or relocated ciphertext
// fails verification. Not safe for concurrent use (single reusable GCM
// state, like Tree's HMAC).
//
// The tag is GMAC: AES-128-GCM sealing no plaintext, with the 64
// ciphertext bytes ‖ the line number as additional data and the pad's
// input tuple line ‖ major ‖ minor as a 17-byte nonce, which is injective
// over every (line, major, minor). DESIGN §4 invariant 3 (no pad reuse) is
// the nonce uniqueness a Carter-Wegman tag needs. GHASH is linear in its
// input, so while the hash key H = AES_K(0^128) is non-zero any change
// confined to one 16-byte block of the ciphertext changes the tag;
// NewMACStore refuses a zero H.
//
// Verify and Sum compute with the store's own GCM state; a write installs
// a line's Sum with StoreSum. The store covers the lines it was built for:
// a line beyond them is a *LineRangeError, and the page table never grows
// past them.
type MACStore struct {
	pages []*macPage
	lines uint64 // lines 0..lines-1 have a MAC slot

	// gcm is the keyed GCM state; nonce, ad and tag are the buffers handed
	// to it (struct fields, so the caller's often stack-resident ciphertext
	// does not escape through the AEAD interface). ad is a reusable copy of
	// the ciphertext ‖ line.
	gcm   cipher.AEAD
	nonce [macNonceBytes]byte
	ad    []byte
	tag   Tag
}

// macNonceBytes is the nonce: line (8) ‖ major (8) ‖ minor (1).
const macNonceBytes = 17

// NewMACStore creates an empty MAC store for data lines 0..lines-1. The
// AES-128 key is the first 16 bytes of SHA-256(key), so any key string
// works. It fails when the GHASH key H = AES_K(0^128) is zero, under which
// GHASH would ignore its input.
func NewMACStore(key []byte, lines uint64) (*MACStore, error) {
	k := sha256.Sum256(key)
	block, err := aes.NewCipher(k[:16])
	if err != nil {
		return nil, fmt.Errorf("bmt: MAC key: %w", err)
	}
	var h [aes.BlockSize]byte
	block.Encrypt(h[:], h[:])
	if err := checkHashKey(h); err != nil {
		return nil, err
	}
	g, err := cipher.NewGCMWithNonceSize(block, macNonceBytes)
	if err != nil {
		return nil, fmt.Errorf("bmt: MAC key: %w", err)
	}
	return &MACStore{gcm: g, lines: lines}, nil
}

// checkHashKey refuses the all-zero GHASH key.
func checkHashKey(h [aes.BlockSize]byte) error {
	if h == [aes.BlockSize]byte{} {
		return fmt.Errorf("bmt: MAC key gives a zero GHASH key")
	}
	return nil
}

// LineRangeError reports a line beyond the lines a MACStore covers.
type LineRangeError struct {
	Line, Lines uint64
}

func (e *LineRangeError) Error() string {
	return fmt.Sprintf("bmt: data line %#x beyond the MAC store's %d lines", e.Line, e.Lines)
}

// page returns the MAC page for a line number within the store's lines,
// materialising it if create is set; otherwise absent pages return nil.
// The table grows by half again, capped at the pages the lines fill.
func (s *MACStore) page(lineNo uint64, create bool) *macPage {
	idx := lineNo / macPageLines
	if idx >= uint64(len(s.pages)) {
		if !create {
			return nil
		}
		grown := make([]*macPage, min(idx+1+idx/2, (s.lines+macPageLines-1)/macPageLines))
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
