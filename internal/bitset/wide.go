package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

// WideWords is the word width of Wide; WideBits its universe size.
const (
	WideWords = 8
	WideBits  = WideWords * 64
)

// Wide is a fixed-width value bitset over the universe {0,…,WideBits-1}.
// It is the wide-path counterpart of Set64: a plain comparable array, so
// it keys DP tables and dedup maps exactly like Set64 does, is passed by
// value, and never mutates its receiver. The zero value is the empty set.
type Wide [WideWords]uint64

// NewWide returns the set containing exactly the given elements.
func NewWide(elems ...int) Wide {
	var s Wide
	for _, e := range elems {
		s = s.Add(e)
	}
	return s
}

// Add returns s ∪ {e}.
func (s Wide) Add(e int) Wide {
	s[e/64] |= 1 << uint(e%64)
	return s
}

// Remove returns s \ {e}.
func (s Wide) Remove(e int) Wide {
	s[e/64] &^= 1 << uint(e%64)
	return s
}

// Contains reports whether e ∈ s.
func (s Wide) Contains(e int) bool {
	return s[e/64]&(1<<uint(e%64)) != 0
}

// Union returns s ∪ t.
func (s Wide) Union(t Wide) Wide {
	for i := range s {
		s[i] |= t[i]
	}
	return s
}

// Intersect returns s ∩ t.
func (s Wide) Intersect(t Wide) Wide {
	for i := range s {
		s[i] &= t[i]
	}
	return s
}

// Diff returns s \ t.
func (s Wide) Diff(t Wide) Wide {
	for i := range s {
		s[i] &^= t[i]
	}
	return s
}

// IsEmpty reports whether s = ∅.
func (s Wide) IsEmpty() bool {
	return s[0]|s[1]|s[2]|s[3]|s[4]|s[5]|s[6]|s[7] == 0
}

// IsSingleton reports whether |s| = 1.
func (s Wide) IsSingleton() bool {
	seen := false
	for _, w := range s {
		if w == 0 {
			continue
		}
		if seen || w&(w-1) != 0 {
			return false
		}
		seen = true
	}
	return seen
}

// Intersects reports whether s ∩ t ≠ ∅.
func (s Wide) Intersects(t Wide) bool {
	for i := range s {
		if s[i]&t[i] != 0 {
			return true
		}
	}
	return false
}

// SubsetOf reports whether s ⊆ t.
func (s Wide) SubsetOf(t Wide) bool {
	for i := range s {
		if s[i]&^t[i] != 0 {
			return false
		}
	}
	return true
}

// Len returns |s|.
func (s Wide) Len() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// Min returns the smallest element of s. It panics on the empty set.
func (s Wide) Min() int {
	for i, w := range s {
		if w != 0 {
			return i*64 + bits.TrailingZeros64(w)
		}
	}
	panic("bitset: Min of empty Wide")
}

// Max returns the largest element of s. It panics on the empty set.
func (s Wide) Max() int {
	for i := WideWords - 1; i >= 0; i-- {
		if w := s[i]; w != 0 {
			return i*64 + 63 - bits.LeadingZeros64(w)
		}
	}
	panic("bitset: Max of empty Wide")
}

// MinSet returns the singleton set containing the smallest element of s,
// or the empty set if s is empty — the "lowest bit" idiom of DPhyp.
func (s Wide) MinSet() Wide {
	var out Wide
	for i, w := range s {
		if w != 0 {
			out[i] = w & (-w)
			return out
		}
	}
	return out
}

// Elems returns the elements of s in ascending order.
func (s Wide) Elems() []int {
	out := make([]int, 0, s.Len())
	s.ForEach(func(e int) { out = append(out, e) })
	return out
}

// ForEach calls f for each element of s in ascending order.
func (s Wide) ForEach(f func(e int)) {
	for i, w := range s {
		for t := w; t != 0; t &= t - 1 {
			f(i*64 + bits.TrailingZeros64(t))
		}
	}
}

// sub returns the multi-word difference s - t (wrapping), the arithmetic
// backbone of the ascending-subset enumeration.
func (s Wide) sub(t Wide) Wide {
	var out Wide
	var borrow uint64
	for i := range s {
		out[i], borrow = bits.Sub64(s[i], t[i], borrow)
	}
	return out
}

// SubsetsAsc calls f for every non-empty subset of s in the canonical
// ascending enumeration order (numerically increasing when the words are
// read as one big little-endian integer) — the same order Set64
// enumerates, which the enumeration-determinism contract relies on. If f
// returns false the enumeration stops.
func (s Wide) SubsetsAsc(f func(sub Wide) bool) {
	for sub := s.MinSet(); !sub.IsEmpty() && f(sub); sub = s.NextSubset(sub) {
	}
}

// NextSubset returns the subset of s that follows sub in SubsetsAsc's
// order, or the empty set after the last one (sub = s): the multi-word
// form of s & (sub - s), the subtraction carrying its borrow across words.
func (s Wide) NextSubset(sub Wide) Wide { return s.Intersect(sub.sub(s)) }

// Cap returns the universe capacity of the representation.
func (Wide) Cap() int { return WideBits }

// ToV converts the set to its VSet form.
func (s Wide) ToV() VSet {
	return VSet{lo: s[0], hi: packWords(s[1:])}
}

// FromV converts a VSet into a Wide; the receiver is ignored (it exists
// so the conversion is reachable through the RelSet constraint). It
// panics when the VSet holds elements ≥ WideBits.
func (Wide) FromV(v VSet) Wide {
	var s Wide
	s[0] = v.lo
	for i := 0; i*8 < len(v.hi); i++ {
		if i+1 >= WideWords {
			panic("bitset: VSet does not fit Wide")
		}
		s[i+1] = unpackWord(v.hi, i)
	}
	return s
}

// String renders the set like "{0, 3, 170}".
func (s Wide) String() string {
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
