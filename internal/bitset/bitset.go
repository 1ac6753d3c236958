// Package bitset provides a dense, fixed-stride bit set for the engine's
// per-line and per-page occupancy tracking. The secure-memory hot path
// consults these sets on every access (written marks, boot-time counter
// installation, footprint tracking); a map[uint64]bool there costs a hash,
// a bucket probe and heap churn per access, while a dense set sized from
// the memory capacity costs one word operation and never allocates in
// steady state.
package bitset

import "math/bits"

// Set is a growable dense bit set. The zero value is an empty set; New
// pre-sizes the backing words so steady-state Set/Clear/Test never
// allocate.
type Set struct {
	words []uint64
	count int
}

// New creates a set pre-sized to hold bits [0, n).
func New(n uint64) *Set {
	return &Set{words: make([]uint64, (n+63)/64)}
}

// grow extends the backing storage to cover bit i. Only indexes beyond the
// current capacity pay this: a set pre-sized from the memory layout never
// grows, and a set started empty grows to its highest bit once.
func (s *Set) grow(word int) {
	for len(s.words) <= word {
		s.words = append(s.words, 0)
	}
}

// Set inserts bit i.
func (s *Set) Set(i uint64) {
	w, m := int(i>>6), uint64(1)<<(i&63)
	if w >= len(s.words) {
		s.grow(w)
	}
	if s.words[w]&m == 0 {
		s.words[w] |= m
		s.count++
	}
}

// Clear removes bit i.
func (s *Set) Clear(i uint64) {
	w, m := int(i>>6), uint64(1)<<(i&63)
	if w >= len(s.words) {
		return
	}
	if s.words[w]&m != 0 {
		s.words[w] &^= m
		s.count--
	}
}

// Test reports whether bit i is set.
func (s *Set) Test(i uint64) bool {
	w := int(i >> 6)
	if w >= len(s.words) {
		return false
	}
	return s.words[w]&(1<<(i&63)) != 0
}

// Next returns the lowest set bit at or above i, and false when there is
// none. It skips empty words whole, so walking a set in ascending order,
//
//	for i, ok := s.Next(0); ok; i, ok = s.Next(i + 1) { ... }
//
// costs one step per word plus one per set bit, not one per bit.
func (s *Set) Next(i uint64) (uint64, bool) {
	w := i >> 6
	if w >= uint64(len(s.words)) {
		return 0, false
	}
	word := s.words[w] &^ (1<<(i&63) - 1)
	for word == 0 {
		w++
		if w == uint64(len(s.words)) {
			return 0, false
		}
		word = s.words[w]
	}
	return w<<6 | uint64(bits.TrailingZeros64(word)), true
}

// Count returns the number of set bits. O(1): the count is maintained on
// mutation, so introspection fingerprints stay cheap.
func (s *Set) Count() int { return s.count }
