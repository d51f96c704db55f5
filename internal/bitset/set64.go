// Package bitset provides the small-set machinery the plan generator is
// built on, three value types: Set64, a bitset over the universe {0,…,63};
// Wide, its fixed-width multi-word counterpart for the enumeration layers
// beyond 63 relations (both satisfy RelSet); and VSet, the adaptive-width
// set of the query, plan and cost layers.
//
// The dynamic-programming plan generator identifies every subset of
// relations, every set of attributes, every key, and every grouping set with
// a bitset, so subset tests, unions and subset enumeration must all be
// single-instruction cheap. Set64 is a plain uint64 and is passed by value
// everywhere.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

// Set64 is a bitset over the universe {0,…,63}. The zero value is the empty
// set. Set64 is a value type: all operations return new sets and never
// mutate the receiver.
type Set64 uint64

// Empty64 is the empty set.
const Empty64 Set64 = 0

// New64 returns the set containing exactly the given elements.
func New64(elems ...int) Set64 {
	var s Set64
	for _, e := range elems {
		s = s.Add(e)
	}
	return s
}

// Range64 returns the set {lo, lo+1, …, hi-1}.
func Range64(lo, hi int) Set64 {
	var s Set64
	for i := lo; i < hi; i++ {
		s = s.Add(i)
	}
	return s
}

// Single64 returns the singleton set {e}.
func Single64(e int) Set64 {
	return Set64(1) << uint(e)
}

// Add returns s ∪ {e}.
func (s Set64) Add(e int) Set64 {
	return s | Set64(1)<<uint(e)
}

// Remove returns s \ {e}.
func (s Set64) Remove(e int) Set64 {
	return s &^ (Set64(1) << uint(e))
}

// Contains reports whether e ∈ s.
func (s Set64) Contains(e int) bool {
	return s&(Set64(1)<<uint(e)) != 0
}

// Union returns s ∪ t.
func (s Set64) Union(t Set64) Set64 { return s | t }

// Intersect returns s ∩ t.
func (s Set64) Intersect(t Set64) Set64 { return s & t }

// Diff returns s \ t.
func (s Set64) Diff(t Set64) Set64 { return s &^ t }

// SymDiff returns the symmetric difference s △ t.
func (s Set64) SymDiff(t Set64) Set64 { return s ^ t }

// IsEmpty reports whether s = ∅.
func (s Set64) IsEmpty() bool { return s == 0 }

// Intersects reports whether s ∩ t ≠ ∅.
func (s Set64) Intersects(t Set64) bool { return s&t != 0 }

// SubsetOf reports whether s ⊆ t.
func (s Set64) SubsetOf(t Set64) bool { return s&^t == 0 }

// ProperSubsetOf reports whether s ⊂ t.
func (s Set64) ProperSubsetOf(t Set64) bool { return s != t && s&^t == 0 }

// Disjoint reports whether s ∩ t = ∅.
func (s Set64) Disjoint(t Set64) bool { return s&t == 0 }

// Len returns |s|.
func (s Set64) Len() int { return bits.OnesCount64(uint64(s)) }

// IsSingleton reports whether |s| = 1.
func (s Set64) IsSingleton() bool { return s != 0 && s&(s-1) == 0 }

// Min returns the smallest element of s. It panics on the empty set.
func (s Set64) Min() int {
	if s == 0 {
		panic("bitset: Min of empty Set64")
	}
	return bits.TrailingZeros64(uint64(s))
}

// Max returns the largest element of s. It panics on the empty set.
func (s Set64) Max() int {
	if s == 0 {
		panic("bitset: Max of empty Set64")
	}
	return 63 - bits.LeadingZeros64(uint64(s))
}

// MinSet returns the singleton set containing the smallest element of s, or
// the empty set if s is empty. This is the "lowest bit" idiom used by DPhyp.
func (s Set64) MinSet() Set64 {
	return s & (-s)
}

// Below returns the set of all elements strictly smaller than the smallest
// element of s, i.e. B(min(s)) in DPhyp notation. For the empty set it
// returns the full universe.
func (s Set64) Below() Set64 {
	if s == 0 {
		return ^Set64(0)
	}
	return s.MinSet() - 1
}

// BelowEq returns Below(s) ∪ MinSet(s): all elements ≤ min(s).
func (s Set64) BelowEq() Set64 {
	if s == 0 {
		return ^Set64(0)
	}
	m := s.MinSet()
	return m | (m - 1)
}

// Elems returns the elements of s in ascending order.
func (s Set64) Elems() []int {
	out := make([]int, 0, s.Len())
	for t := s; t != 0; t &= t - 1 {
		out = append(out, bits.TrailingZeros64(uint64(t)))
	}
	return out
}

// ForEach calls f for each element of s in ascending order.
func (s Set64) ForEach(f func(e int)) {
	for t := s; t != 0; t &= t - 1 {
		f(bits.TrailingZeros64(uint64(t)))
	}
}

// NextAfter returns the smallest element of s that is > e, or -1 if there is
// none.
func (s Set64) NextAfter(e int) int {
	t := s & ^(Set64(1)<<uint(e+1) - 1)
	if e >= 63 {
		t = 0
	}
	if t == 0 {
		return -1
	}
	return bits.TrailingZeros64(uint64(t))
}

// Rank returns |{x ∈ s : x < e}|, the rank of e within s.
func (s Set64) Rank(e int) int {
	mask := Set64(1)<<uint(e) - 1
	return (s & mask).Len()
}

// Select returns the i-th smallest element of s (0-based). It panics if
// i ≥ |s|.
func (s Set64) Select(i int) int {
	for t := s; t != 0; t &= t - 1 {
		if i == 0 {
			return bits.TrailingZeros64(uint64(t))
		}
		i--
	}
	panic(fmt.Sprintf("bitset: Select(%d) out of range", i))
}

// SubsetsAsc calls f for every non-empty subset of s in the canonical
// ascending enumeration order (numerically increasing as uint64). If f
// returns false the enumeration stops.
func (s Set64) SubsetsAsc(f func(sub Set64) bool) {
	for sub := s.MinSet(); sub != 0 && f(sub); sub = s.NextSubset(sub) {
	}
}

// NextSubset returns the subset of s that follows sub in SubsetsAsc's
// order, or the empty set after the last one (sub = s): the classic
// "increasing subsets" step s & (sub - s), started from s.MinSet().
func (s Set64) NextSubset(sub Set64) Set64 { return s & (sub - s) }

// SubsetsDesc calls f for every non-empty subset of s in numerically
// decreasing order. If f returns false the enumeration stops.
func (s Set64) SubsetsDesc(f func(sub Set64) bool) {
	if s == 0 {
		return
	}
	sub := s
	for {
		if !f(sub) {
			return
		}
		sub = (sub - 1) & s
		if sub == 0 {
			return
		}
	}
}

// ProperSubsetsAsc enumerates the non-empty proper subsets of s in ascending
// order. DPhyp's EnumerateCsgCmp pairs each connected subset S1 with
// complements drawn from these.
func (s Set64) ProperSubsetsAsc(f func(sub Set64) bool) {
	s.SubsetsAsc(func(sub Set64) bool {
		if sub == s {
			return true
		}
		return f(sub)
	})
}

// String renders the set like "{0, 3, 17}".
func (s Set64) String() string {
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
