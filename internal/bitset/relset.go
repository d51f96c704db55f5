package bitset

// RelSet is the constraint of the generic enumeration layer (hypergraph,
// conflict detection, the DP core): a comparable value bitset with the
// Set64 method surface the enumerator needs. Two representations satisfy
// it — Set64 (the zero-overhead fast path for ≤63 relations) and Wide
// (the multi-word path up to WideBits-1 relations). All methods are
// value-receiver and non-mutating, so S keys maps directly.
//
// FromV is a conversion hook: it ignores its receiver (call it on the
// zero value) and rebuilds a VSet in the S representation. It is how the
// generic layer imports relation sets computed by the VSet-typed query
// front-end.
type RelSet[S comparable] interface {
	comparable
	Add(e int) S
	Remove(e int) S
	Contains(e int) bool
	Union(t S) S
	Intersect(t S) S
	Diff(t S) S
	IsEmpty() bool
	IsSingleton() bool
	Intersects(t S) bool
	SubsetOf(t S) bool
	Len() int
	Min() int
	Max() int
	MinSet() S
	ForEach(f func(e int))
	Elems() []int
	SubsetsAsc(f func(sub S) bool)
	NextSubset(sub S) S
	Cap() int
	ToV() VSet
	FromV(v VSet) S
	String() string
}

// SingleIn returns the singleton {e} in the representation S.
func SingleIn[S RelSet[S]](e int) S {
	var z S
	return z.Add(e)
}

// RangeIn returns {lo, …, hi-1} in the representation S.
func RangeIn[S RelSet[S]](lo, hi int) S {
	var z S
	for e := lo; e < hi; e++ {
		z = z.Add(e)
	}
	return z
}

// FromVIn converts a VSet into the representation S.
func FromVIn[S RelSet[S]](v VSet) S {
	var z S
	return z.FromV(v)
}

// Cap returns the universe capacity of the representation.
func (Set64) Cap() int { return 64 }

// ToV converts the set to its VSet form.
func (s Set64) ToV() VSet { return VSet{lo: uint64(s)} }

// FromV converts a VSet into a Set64; the receiver is ignored (it exists
// so the conversion is reachable through the RelSet constraint). It
// panics when the VSet holds elements ≥ 64.
func (Set64) FromV(v VSet) Set64 {
	if v.hi != "" {
		panic("bitset: VSet does not fit Set64")
	}
	return Set64(v.lo)
}
