package bitset

import (
	"encoding/binary"
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
// cost, fd, ordering, engine), and it is also the enumeration layers'
// wide RelSet for queries beyond Set64's 63 relations: the DP runs on it
// directly, so its relation sets reach the plan layer without conversion.
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

// rangeV returns {lo, …, hi-1}, one word mask at a time.
func rangeV(lo, hi int) VSet {
	var buf [8]uint64
	ws := words(&buf, (hi+63)/64)
	for e := lo; e < hi; {
		for len(ws) <= e/64 {
			ws = append(ws, 0)
		}
		n := min(hi-e, 64-e%64)
		ws[e/64] |= (1<<uint(n) - 1) << uint(e%64)
		e += n
	}
	return FromWords(ws)
}

// packWords trims trailing zero words and packs the rest little-endian.
// Up to eight words are assembled on the stack, so the string is the only
// allocation — and there is none when the packing equals a or b, which is
// returned instead: an operation whose result is one of its operands
// hands that operand's words back.
func packWords(ws []uint64, a, b string) string {
	n := len(ws)
	for n > 0 && ws[n-1] == 0 {
		n--
	}
	var buf [64]byte
	p := buf[:0]
	if n > 8 {
		p = make([]byte, 0, 8*n)
	}
	for _, w := range ws[:n] {
		p = binary.LittleEndian.AppendUint64(p, w)
	}
	if string(p) == a {
		return a
	}
	if string(p) == b {
		return b
	}
	return string(p)
}

// words returns an empty slice with room for n words: buf's when they
// fit, one allocation otherwise.
func words(buf *[8]uint64, n int) []uint64 {
	if n <= len(buf) {
		return buf[:0]
	}
	return make([]uint64, 0, n)
}

// unpackWord decodes word i (bits 64·(i+1)…) of a packed hi string.
func unpackWord(hi string, i int) uint64 {
	b := hi[i*8 : i*8+8]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// hiWords returns the number of packed high words.
func (s VSet) hiWords() int { return len(s.hi) / 8 }

// appendHi appends the high words to dst.
func (s VSet) appendHi(dst []uint64) []uint64 {
	for i := 0; i < s.hiWords(); i++ {
		dst = append(dst, unpackWord(s.hi, i))
	}
	return dst
}

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
	return s.wordHi(w)
}

//go:noinline
func (s VSet) wordHi(w int) uint64 { return unpackWord(s.hi, w-1) }

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
	return VSet{lo: ws[0], hi: packWords(ws[1:], "", "")}
}

// The small predicates and constructors below are split into an
// inlinable single-word fast path and an out-of-line multi-word helper:
// the optimizer's hot loops hammer Contains/SubsetOf/Union/… on sets
// that overwhelmingly fit the inline low word, and keeping the fast path
// under the compiler's inlining budget is worth measurable optimizer
// time (the monolithic versions showed up as top profile entries). Up to
// 512 elements, the multi-word helpers compute into a stack buffer and
// allocate at most the result's packed string.

// Add returns s ∪ {e}.
func (s VSet) Add(e int) VSet {
	if e < 64 {
		s.lo |= 1 << uint(e)
		return s
	}
	return s.addHi(e)
}

//go:noinline
func (s VSet) addHi(e int) VSet {
	if s.containsHi(e) {
		return s
	}
	return s.flipHi(e)
}

// flipHi toggles the element e ≥ 64.
func (s VSet) flipHi(e int) VSet {
	var buf [8]uint64
	ws := s.appendHi(words(&buf, max(s.hiWords(), e/64)))
	for len(ws) < e/64 {
		ws = append(ws, 0)
	}
	ws[e/64-1] ^= 1 << uint(e%64)
	s.hi = packWords(ws, "", "")
	return s
}

// Remove returns s \ {e}.
func (s VSet) Remove(e int) VSet {
	if e < 64 {
		s.lo &^= 1 << uint(e)
		return s
	}
	if !s.containsHi(e) {
		return s
	}
	return s.flipHi(e)
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
	return w < s.hiWords() && unpackWord(s.hi, w)&(1<<uint(e%64)) != 0
}

// Union returns s ∪ t.
func (s VSet) Union(t VSet) VSet {
	if s.hi == "" && t.hi == "" {
		return VSet{lo: s.lo | t.lo}
	}
	return s.unionHi(t)
}

//go:noinline
func (s VSet) unionHi(t VSet) VSet {
	if t.hi == "" {
		return VSet{lo: s.lo | t.lo, hi: s.hi}
	}
	if s.hi == "" {
		return VSet{lo: s.lo | t.lo, hi: t.hi}
	}
	var buf [8]uint64
	ws := s.appendHi(words(&buf, max(s.hiWords(), t.hiWords())))
	for i := 0; i < t.hiWords(); i++ {
		if w := unpackWord(t.hi, i); i < len(ws) {
			ws[i] |= w
		} else {
			ws = append(ws, w)
		}
	}
	return VSet{lo: s.lo | t.lo, hi: packWords(ws, s.hi, t.hi)}
}

// Intersect returns s ∩ t.
func (s VSet) Intersect(t VSet) VSet {
	if s.hi == "" || t.hi == "" {
		return VSet{lo: s.lo & t.lo}
	}
	return s.intersectHi(t)
}

//go:noinline
func (s VSet) intersectHi(t VSet) VSet {
	n := min(s.hiWords(), t.hiWords())
	var buf [8]uint64
	ws := words(&buf, n)
	for i := 0; i < n; i++ {
		ws = append(ws, unpackWord(s.hi, i)&unpackWord(t.hi, i))
	}
	return VSet{lo: s.lo & t.lo, hi: packWords(ws, s.hi, t.hi)}
}

// Diff returns s \ t.
func (s VSet) Diff(t VSet) VSet {
	if s.hi == "" {
		return VSet{lo: s.lo &^ t.lo}
	}
	return s.diffHi(t)
}

//go:noinline
func (s VSet) diffHi(t VSet) VSet {
	if t.hi == "" {
		return VSet{lo: s.lo &^ t.lo, hi: s.hi}
	}
	var buf [8]uint64
	ws := s.appendHi(words(&buf, s.hiWords()))
	for i := 0; i < min(len(ws), t.hiWords()); i++ {
		ws[i] &^= unpackWord(t.hi, i)
	}
	return VSet{lo: s.lo &^ t.lo, hi: packWords(ws, s.hi, "")}
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
	n := min(s.hiWords(), t.hiWords())
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

//go:noinline
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

// MinSet returns the singleton set containing the smallest element of s,
// or the empty set if s is empty — the "lowest bit" idiom of DPhyp.
func (s VSet) MinSet() VSet {
	if s.lo != 0 || s.hi == "" {
		return VSet{lo: s.lo & -s.lo}
	}
	// Canonical trimming makes the last high word non-zero, so the scan
	// ends inside hi.
	var buf [8]uint64
	ws := words(&buf, s.hiWords())
	for i := 0; ; i++ {
		w := unpackWord(s.hi, i)
		if ws = append(ws, w&-w); w != 0 {
			return VSet{hi: packWords(ws, s.hi, "")}
		}
	}
}

// SubsetsAsc calls f for every non-empty subset of s in the canonical
// ascending enumeration order (numerically increasing when the words are
// read as one big little-endian integer) — the same order Set64
// enumerates, which the enumeration-determinism contract relies on. If f
// returns false the enumeration stops.
func (s VSet) SubsetsAsc(f func(sub VSet) bool) {
	for sub := s.MinSet(); !sub.IsEmpty() && f(sub); sub = s.NextSubset(sub) {
	}
}

// NextSubset returns the subset of s that follows sub in SubsetsAsc's
// order, or the empty set after the last one (sub = s): the multi-word
// form of s & (sub - s), the subtraction carrying its borrow across words.
func (s VSet) NextSubset(sub VSet) VSet {
	if s.hi == "" {
		return VSet{lo: s.lo & (sub.lo - s.lo)}
	}
	lo, borrow := bits.Sub64(sub.lo, s.lo, 0)
	var buf [8]uint64
	ws := s.appendHi(words(&buf, s.hiWords()))
	for i, w := range ws {
		var d, x uint64
		if i < sub.hiWords() { // sub ⊆ s spans no more words than s
			x = unpackWord(sub.hi, i)
		}
		d, borrow = bits.Sub64(x, w, borrow)
		ws[i] = w & d
	}
	return VSet{lo: s.lo & lo, hi: packWords(ws, sub.hi, s.hi)}
}

// Cap returns the relation capacity the enumeration layers accept on this
// representation (the set itself holds any universe).
func (VSet) Cap() int { return 512 }

// ToV returns s: VSet is its own VSet form.
func (s VSet) ToV() VSet { return s }

// FromV returns v; the receiver is ignored (see RelSet).
func (VSet) FromV(v VSet) VSet { return v }

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
