package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

// VSet is an adaptive-width value bitset. Bits 0–63 live in an inline
// word; bits 64 and above live in a canonical packed string of
// little-endian 8-byte words with trailing zero words trimmed. The
// canonical packing makes == content equality, so VSet keys maps and
// compares like Set64 while holding arbitrarily large universes. The
// zero value is the empty set, and sets that fit 64 bits never allocate.
//
// VSet is the lingua franca of the non-enumeration layers (query, plan,
// cost, fd, ordering, engine): they hold one code path regardless of the
// set representation the DP enumerator runs on, which is what keeps the
// fast and wide optimizer paths structurally bit-identical.
type VSet struct {
	lo uint64
	hi string
}

// NewV returns the set containing exactly the given elements.
func NewV(elems ...int) VSet {
	var s VSet
	for _, e := range elems {
		s = s.Add(e)
	}
	return s
}

// SingleV returns the singleton set {e}.
func SingleV(e int) VSet {
	return VSet{}.Add(e)
}

// packWords trims trailing zero words and packs the rest little-endian.
func packWords(ws []uint64) string {
	n := len(ws)
	for n > 0 && ws[n-1] == 0 {
		n--
	}
	if n == 0 {
		return ""
	}
	b := make([]byte, n*8)
	for i := 0; i < n; i++ {
		for j := 0; j < 8; j++ {
			b[i*8+j] = byte(ws[i] >> (8 * j))
		}
	}
	return string(b)
}

// unpackWord decodes word i (bits 64·(i+1)…) of a packed hi string.
func unpackWord(hi string, i int) uint64 {
	var w uint64
	for j := 0; j < 8; j++ {
		w |= uint64(hi[i*8+j]) << (8 * j)
	}
	return w
}

// hiWords returns the number of packed high words.
func (s VSet) hiWords() int { return len(s.hi) / 8 }

// Lo returns the inline low word and whether the set fits entirely in it
// (no elements ≥ 64). Hot set-keyed caches use it to key the common
// small-universe case by a plain uint64, which hashes much faster than
// the struct form.
func (s VSet) Lo() (uint64, bool) { return s.lo, s.hi == "" }

// NumWords returns the number of 64-bit words the set spans (≥ 1; word 0
// is the inline low word). With Word it supports allocation-free,
// closure-free iteration in hot paths:
//
//	for w, nw := 0, s.NumWords(); w < nw; w++ {
//		for t := s.Word(w); t != 0; t &= t - 1 {
//			e := w*64 + bits.TrailingZeros64(t)
//			...
//		}
//	}
func (s VSet) NumWords() int { return 1 + s.hiWords() }

// Word returns the w-th 64-bit word of the set (word 0 holds elements
// 0–63, word 1 elements 64–127, …).
func (s VSet) Word(w int) uint64 {
	if w == 0 {
		return s.lo
	}
	return unpackWord(s.hi, w-1)
}

// words flattens the set into a word slice [lo, hi…].
func (s VSet) words() []uint64 {
	ws := make([]uint64, 1+s.hiWords())
	ws[0] = s.lo
	for i := 0; i < s.hiWords(); i++ {
		ws[i+1] = unpackWord(s.hi, i)
	}
	return ws
}

// OrInto ors s into the word slice ws (word 0 holds elements 0–63), growing
// it as needed, and returns it. With FromWords it accumulates a union of
// many sets without rebuilding the packed form at every step.
func (s VSet) OrInto(ws []uint64) []uint64 {
	for len(ws) < s.NumWords() {
		ws = append(ws, 0)
	}
	ws[0] |= s.lo
	for i := 0; i < s.hiWords(); i++ {
		ws[i+1] |= unpackWord(s.hi, i)
	}
	return ws
}

// FromWords rebuilds a canonical VSet from a word slice.
func FromWords(ws []uint64) VSet {
	if len(ws) == 0 {
		return VSet{}
	}
	return VSet{lo: ws[0], hi: packWords(ws[1:])}
}

// The small predicates and constructors below are split into an
// inlinable single-word fast path and an out-of-line multi-word helper:
// the optimizer's hot loops hammer Contains/SubsetOf/Union/… on sets
// that overwhelmingly fit the inline low word, and keeping the fast path
// under the compiler's inlining budget is worth measurable optimizer
// time (the monolithic versions showed up as top profile entries).

// Add returns s ∪ {e}.
func (s VSet) Add(e int) VSet {
	if e < 64 {
		s.lo |= 1 << uint(e)
		return s
	}
	return s.addHi(e)
}

func (s VSet) addHi(e int) VSet {
	w := e/64 - 1
	ws := make([]uint64, maxInt(s.hiWords(), w+1))
	for i := 0; i < s.hiWords(); i++ {
		ws[i] = unpackWord(s.hi, i)
	}
	ws[w] |= 1 << uint(e%64)
	s.hi = packWords(ws)
	return s
}

// Remove returns s \ {e}.
func (s VSet) Remove(e int) VSet {
	if e < 64 {
		s.lo &^= 1 << uint(e)
		return s
	}
	w := e/64 - 1
	if w >= s.hiWords() {
		return s
	}
	ws := s.words()
	ws[w+1] &^= 1 << uint(e%64)
	return FromWords(ws)
}

// Contains reports whether e ∈ s.
func (s VSet) Contains(e int) bool {
	if e < 64 {
		return s.lo&(1<<uint(e)) != 0
	}
	return s.containsHi(e)
}

//go:noinline
func (s VSet) containsHi(e int) bool {
	w := e/64 - 1
	if w >= s.hiWords() {
		return false
	}
	return unpackWord(s.hi, w)&(1<<uint(e%64)) != 0
}

// Union returns s ∪ t.
func (s VSet) Union(t VSet) VSet {
	if s.hi == "" && t.hi == "" {
		return VSet{lo: s.lo | t.lo}
	}
	return s.unionHi(t)
}

func (s VSet) unionHi(t VSet) VSet {
	// Accumulations start from the empty set; returning the other operand
	// spares them the five allocations of a rebuilt copy.
	if s.IsEmpty() {
		return t
	}
	if t.IsEmpty() {
		return s
	}
	a, b := s.words(), t.words()
	if len(a) < len(b) {
		a, b = b, a
	}
	out := make([]uint64, len(a))
	copy(out, a)
	for i := range b {
		out[i] |= b[i]
	}
	return FromWords(out)
}

// Intersect returns s ∩ t.
func (s VSet) Intersect(t VSet) VSet {
	if s.hi == "" || t.hi == "" {
		return VSet{lo: s.lo & t.lo}
	}
	return s.intersectHi(t)
}

func (s VSet) intersectHi(t VSet) VSet {
	a, b := s.words(), t.words()
	n := minInt(len(a), len(b))
	out := make([]uint64, n)
	for i := 0; i < n; i++ {
		out[i] = a[i] & b[i]
	}
	return FromWords(out)
}

// Diff returns s \ t.
func (s VSet) Diff(t VSet) VSet {
	if s.hi == "" {
		return VSet{lo: s.lo &^ t.lo}
	}
	return s.diffHi(t)
}

func (s VSet) diffHi(t VSet) VSet {
	out := s.words()
	b := t.words()
	for i := 0; i < minInt(len(out), len(b)); i++ {
		out[i] &^= b[i]
	}
	return FromWords(out)
}

// IsEmpty reports whether s = ∅.
func (s VSet) IsEmpty() bool {
	return s.lo == 0 && s.hi == ""
}

// IsSingleton reports whether |s| = 1.
func (s VSet) IsSingleton() bool {
	if s.hi == "" {
		return s.lo != 0 && s.lo&(s.lo-1) == 0
	}
	return s.Len() == 1
}

// Intersects reports whether s ∩ t ≠ ∅.
func (s VSet) Intersects(t VSet) bool {
	if s.hi == "" || t.hi == "" {
		return s.lo&t.lo != 0
	}
	return s.intersectsHi(t)
}

//go:noinline
func (s VSet) intersectsHi(t VSet) bool {
	if s.lo&t.lo != 0 {
		return true
	}
	n := minInt(s.hiWords(), t.hiWords())
	for i := 0; i < n; i++ {
		if unpackWord(s.hi, i)&unpackWord(t.hi, i) != 0 {
			return true
		}
	}
	return false
}

// SubsetOf reports whether s ⊆ t.
func (s VSet) SubsetOf(t VSet) bool {
	if s.lo&^t.lo != 0 {
		return false
	}
	if s.hi == "" {
		return true
	}
	return s.subsetHi(t)
}

func (s VSet) subsetHi(t VSet) bool {
	if s.hiWords() > t.hiWords() {
		return false // canonical trimming: extra words are non-zero
	}
	for i := 0; i < s.hiWords(); i++ {
		if unpackWord(s.hi, i)&^unpackWord(t.hi, i) != 0 {
			return false
		}
	}
	return true
}

// Disjoint reports whether s ∩ t = ∅.
func (s VSet) Disjoint(t VSet) bool { return !s.Intersects(t) }

// Len returns |s|.
func (s VSet) Len() int {
	n := bits.OnesCount64(s.lo)
	for i := 0; i < s.hiWords(); i++ {
		n += bits.OnesCount64(unpackWord(s.hi, i))
	}
	return n
}

// Rank returns |{x ∈ s : x < e}|, the rank of e within s — the index of
// e's entry in a per-element array kept in ascending element order.
func (s VSet) Rank(e int) int {
	if e < 64 {
		return bits.OnesCount64(s.lo & (1<<uint(e) - 1))
	}
	n := bits.OnesCount64(s.lo)
	for i := 0; i < s.hiWords() && i < e/64; i++ {
		w := unpackWord(s.hi, i)
		if i == e/64-1 {
			w &= 1<<uint(e%64) - 1
		}
		n += bits.OnesCount64(w)
	}
	return n
}

// Min returns the smallest element of s. It panics on the empty set.
func (s VSet) Min() int {
	if s.lo != 0 {
		return bits.TrailingZeros64(s.lo)
	}
	for i := 0; i < s.hiWords(); i++ {
		if w := unpackWord(s.hi, i); w != 0 {
			return (i+1)*64 + bits.TrailingZeros64(w)
		}
	}
	panic("bitset: Min of empty VSet")
}

// Max returns the largest element of s. It panics on the empty set.
func (s VSet) Max() int {
	if n := s.hiWords(); n > 0 {
		// trailing zero words are trimmed, so the last word is non-zero
		return n*64 + 63 - bits.LeadingZeros64(unpackWord(s.hi, n-1))
	}
	if s.lo != 0 {
		return 63 - bits.LeadingZeros64(s.lo)
	}
	panic("bitset: Max of empty VSet")
}

// Elems returns the elements of s in ascending order.
func (s VSet) Elems() []int {
	out := make([]int, 0, s.Len())
	s.ForEach(func(e int) { out = append(out, e) })
	return out
}

// ForEach calls f for each element of s in ascending order.
func (s VSet) ForEach(f func(e int)) {
	for t := s.lo; t != 0; t &= t - 1 {
		f(bits.TrailingZeros64(t))
	}
	for i := 0; i < s.hiWords(); i++ {
		for t := unpackWord(s.hi, i); t != 0; t &= t - 1 {
			f((i+1)*64 + bits.TrailingZeros64(t))
		}
	}
}

// Less orders sets numerically (reading the words as one little-endian
// integer) — a total deterministic order for sorting CardKeys and other
// set-keyed records.
func (s VSet) Less(t VSet) bool {
	if s.hiWords() != t.hiWords() {
		return s.hiWords() < t.hiWords()
	}
	for i := s.hiWords() - 1; i >= 0; i-- {
		a, b := unpackWord(s.hi, i), unpackWord(t.hi, i)
		if a != b {
			return a < b
		}
	}
	return s.lo < t.lo
}

// ToSet64 converts the set to a Set64. It panics when the set holds
// elements ≥ 64; callers guard with the fast-path invariant.
func (s VSet) ToSet64() Set64 {
	if s.hi != "" {
		panic("bitset: VSet does not fit Set64")
	}
	return Set64(s.lo)
}

// String renders the set like "{0, 3, 170}".
func (s VSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(e int) {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d", e)
	})
	b.WriteByte('}')
	return b.String()
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
