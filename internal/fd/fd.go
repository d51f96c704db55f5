// Package fd implements functional dependencies over the query's attribute
// universe. The paper's dominance criterion (Def. 4) and top-grouping
// elimination (Sec. 3.2) are stated in terms of FD closures. Local is the
// one analysis the plan generator draws them from: the dependencies that
// hold in every plan over a relation set S, whatever its shape (Eich,
// Fender & Moerkotte, PVLDB 2016):
//
//   - key → attributes for every candidate key of a relation in S, and
//   - a ↔ b for every *inner* equi-join predicate a = b over relations of
//     S (a DP plan over S applies every predicate internal to S).
//
// At S = every relation they are the query-level dependencies of a
// complete plan. Both families survive outer-join padding under the
// null-equality convention of Sec. 2.3 (a padded key is NULL and so are
// the attributes it determines; an inner predicate below an outer join
// holds with both sides NULL on padded rows), and a grouping keeps them on
// the attributes it keeps. Predicates of outer joins themselves are
// excluded: a left outerjoin pads only its right side, so a = b fails with
// a non-NULL and b NULL.
package fd

import (
	"math/bits"

	"eagg/internal/bitset"
	"eagg/internal/query"
)

// FD is a functional dependency Det → Dep.
type FD struct {
	Det, Dep bitset.VSet
}

// Set is a collection of functional dependencies.
type Set struct {
	fds []FD
}

// Add appends Det → Dep.
func (s *Set) Add(det, dep bitset.VSet) {
	if dep.SubsetOf(det) || det.IsEmpty() {
		return // trivial
	}
	s.fds = append(s.fds, FD{Det: det, Dep: dep})
}

// AddEquiv records a ↔ b (both directions of an inner equi-join pair).
func (s *Set) AddEquiv(a, b int) {
	s.Add(bitset.SingleV(a), bitset.SingleV(b))
	s.Add(bitset.SingleV(b), bitset.SingleV(a))
}

// Len returns the number of stored dependencies.
func (s *Set) Len() int { return len(s.fds) }

// Closure computes the attribute closure attrs⁺ under the dependency set
// (the standard fixpoint).
func (s *Set) Closure(attrs bitset.VSet) bitset.VSet {
	out := attrs
	for changed := true; changed; {
		changed = false
		for _, f := range s.fds {
			if f.Det.SubsetOf(out) && !f.Dep.SubsetOf(out) {
				out = out.Union(f.Dep)
				changed = true
			}
		}
	}
	return out
}

// Implies reports whether attrs → a follows from the set.
func (s *Set) Implies(attrs bitset.VSet, a int) bool {
	return s.Closure(attrs).Contains(a)
}

// Reduce removes attributes that are functionally implied by the remaining
// ones — a minimal-ish cover of the attribute set (greedy, ascending, so
// the result is deterministic). Grouping by Reduce(G) produces exactly the
// groups of G, which is what the cardinality estimator exploits.
func (s *Set) Reduce(attrs bitset.VSet) bitset.VSet {
	if len(s.fds) == 0 {
		return attrs
	}
	out := attrs
	attrs.ForEach(func(a int) {
		rest := out.Remove(a)
		if !rest.IsEmpty() && s.Closure(rest).Contains(a) {
			out = rest
		}
	})
	if out.IsEmpty() {
		return attrs // never reduce to nothing
	}
	return out
}

// Local is the subplan-local dependency analysis of one query (see the
// package comment), as attribute masks of Words() words each: per
// attribute the attributes inner equi-join pairs equate with it, per
// relation its attributes, and per relation its keys. It is built once per
// optimization and only read after that, so concurrent workers share it.
type Local struct {
	q     *query.Query
	words int
	// masks holds the peer masks of the attributes, then the attribute
	// masks of the relations, then the key masks; relation r's keys are
	// keys keyAt[r] up to keyAt[r+1].
	masks []uint64
	keyAt []int32
}

// NewLocal analyses the query.
func NewLocal(q *query.Query) Local {
	nw := max(1, (len(q.AttrNames)+63)/64)
	l := Local{q: q, words: nw, keyAt: make([]int32, len(q.Relations)+1)}
	for r, rel := range q.Relations {
		l.keyAt[r+1] = l.keyAt[r] + int32(len(rel.Keys))
	}
	l.masks = make([]uint64, (len(q.AttrNames)+len(q.Relations)+int(l.keyAt[len(q.Relations)]))*nw)
	l.pairs(q.Root)
	for r, rel := range q.Relations {
		rel.Attrs.OrInto(l.rel(r))
		for i, k := range rel.Keys {
			k.OrInto(l.key(int(l.keyAt[r]) + i))
		}
	}
	return l
}

// pairs records the pairs of the inner equi-joins below n in the peer
// masks.
func (l *Local) pairs(n *query.OpNode) {
	if n == nil || n.Kind == query.KindScan {
		return
	}
	if n.Kind == query.KindJoin {
		for i, a := range n.Pred.Left {
			b := n.Pred.Right[i]
			l.peer(a)[b/64] |= 1 << (b % 64)
			l.peer(b)[a/64] |= 1 << (a % 64)
		}
	}
	l.pairs(n.Left)
	l.pairs(n.Right)
}

// mask returns the i-th mask of masks.
func (l *Local) mask(i int) []uint64 { return l.masks[i*l.words : (i+1)*l.words] }

// peer returns the mask of the attributes pairs equate with attribute a.
func (l *Local) peer(a int) []uint64 { return l.mask(a) }

// rel returns the attribute mask of relation r.
func (l *Local) rel(r int) []uint64 { return l.mask(len(l.q.AttrNames) + r) }

// key returns the mask of the i-th key, counted over all relations.
func (l *Local) key(i int) []uint64 { return l.mask(len(l.q.AttrNames) + len(l.q.Relations) + i) }

// Words returns the number of 64-bit words CloseInto writes.
func (l *Local) Words() int { return l.words }

// Equiv calls fn(a, b), a < b, for every inner equi-join pair that holds in
// the plans over rels: both attributes' relations are in rels.
func (l *Local) Equiv(rels bitset.VSet, fn func(a, b int)) {
	l.q.AttrsOf(rels).ForEach(func(a int) {
		for w, x := range l.peer(a) {
			for ; x != 0; x &= x - 1 {
				if b := w*64 + bits.TrailingZeros64(x); b > a && rels.Contains(l.q.AttrRel[b]) {
					fn(a, b)
				}
			}
		}
	})
}

// CloseInto appends closure_rels(attrs) to dst as Words() attribute words
// (word 0 holds attributes 0–63) and returns dst. It touches only what the
// closure reaches: each attribute of rels's relations in it adds its peers
// once, and only the relations of attributes just added take the key test,
// adding their attributes when a key is in. It works in dst's spare
// capacity, so it allocates nothing once dst has room for the words of
// the closure, of its expanded attributes and of the relations.
func (l *Local) CloseInto(dst []uint64, rels, attrs bitset.VSet) []uint64 {
	if l.words == 1 && rels.NumWords() == 1 {
		return append(dst, l.close1(rels.Word(0), attrs.Word(0)))
	}
	n, nw, of := len(dst), l.words, l.q.AttrRel
	for i := 0; i < 2*nw+(len(l.q.Relations)+63)/64; i++ {
		dst = append(dst, 0)
	}
	c, done, touched := dst[n:n+nw], dst[n+nw:n+2*nw], dst[n+2*nw:]
	attrs.OrInto(c)
	for w, x := range c {
		for ; x != 0; x &= x - 1 {
			r := of[w*64+bits.TrailingZeros64(x)]
			touched[r/64] |= 1 << (r % 64)
		}
	}
	for {
		for w := 0; w < nw; {
			todo := c[w] &^ done[w]
			if todo == 0 {
				w++
				continue
			}
			done[w] |= todo
			next := w
			for ; todo != 0; todo &= todo - 1 {
				a := w*64 + bits.TrailingZeros64(todo)
				if !rels.Contains(of[a]) {
					continue
				}
				for v, p := range l.peer(a) {
					for add := p &^ c[v]; add != 0; add &= add - 1 {
						if b := v*64 + bits.TrailingZeros64(add); rels.Contains(of[b]) {
							c[v] |= 1 << (b % 64)
							touched[of[b]/64] |= 1 << (of[b] % 64)
							next = min(next, v)
						}
					}
				}
			}
			w = next
		}
		grew := false
		for tw, x := range touched {
			for ; x != 0; x &= x - 1 {
				r := tw*64 + bits.TrailingZeros64(x)
				if rm := l.rel(r); rels.Contains(r) && !subset(rm, c) {
					for i := l.keyAt[r]; i < l.keyAt[r+1]; i++ {
						if subset(l.key(int(i)), c) {
							or(c, rm)
							grew = true
							break
						}
					}
				}
			}
			touched[tw] = 0
		}
		if !grew {
			return dst[:n+nw]
		}
	}
}

// close1 is CloseInto for a universe of one word and relations below 64,
// the common case, on plain words: rels and attrs are the sets' words.
// It touches only what the closure reaches: the attributes it adds expand
// once each, and only the relations they belong to take the key test.
func (l *Local) close1(rels, attrs uint64) uint64 {
	na, nr := len(l.q.AttrNames), len(l.q.Relations)
	peer, rel, key, of := l.masks[:na], l.masks[na:na+nr], l.masks[na+nr:], l.q.AttrRel
	var done, touched uint64
	for t := attrs; t != 0; t &= t - 1 {
		touched |= 1 << of[bits.TrailingZeros64(t)]
	}
	c := attrs
	for {
		for todo := c &^ done; todo != 0; todo = c &^ done {
			done |= todo
			for ; todo != 0; todo &= todo - 1 {
				a := bits.TrailingZeros64(todo)
				if rels>>of[a]&1 == 0 {
					continue
				}
				for add := peer[a] &^ c; add != 0; add &= add - 1 {
					if b := bits.TrailingZeros64(add); rels>>of[b]&1 != 0 {
						c |= 1 << b
						touched |= 1 << of[b]
					}
				}
			}
		}
		if touched &= rels; touched == 0 {
			return c
		}
		for t := touched; t != 0; t &= t - 1 {
			r := bits.TrailingZeros64(t)
			if rel[r]&^c == 0 {
				continue
			}
			for _, k := range key[l.keyAt[r]:l.keyAt[r+1]] {
				if k&^c == 0 {
					c |= rel[r]
					break
				}
			}
		}
		touched = 0
	}
}

func or(dst, src []uint64) {
	for i, x := range src {
		dst[i] |= x
	}
}

func subset(a, b []uint64) bool {
	for i, x := range a {
		if x&^b[i] != 0 {
			return false
		}
	}
	return true
}

// Closure returns closure_rels(attrs) as a set.
func (l *Local) Closure(rels, attrs bitset.VSet) bitset.VSet {
	var buf [8]uint64
	return bitset.FromWords(l.CloseInto(buf[:0], rels, attrs))
}

// Set returns the dependencies of the plans over rels as a Set.
func (l *Local) Set(rels bitset.VSet) Set {
	var s Set
	rels.ForEach(func(r int) {
		for _, k := range l.q.Relations[r].Keys {
			s.Add(k, l.q.Relations[r].Attrs)
		}
	})
	l.Equiv(rels, s.AddEquiv)
	return s
}

// SubsetWords reports whether s is contained in the attribute words ws.
func SubsetWords(s bitset.VSet, ws []uint64) bool {
	for w, nw := 0, s.NumWords(); w < nw; w++ {
		if x := s.Word(w); x != 0 && (w >= len(ws) || x&^ws[w] != 0) {
			return false
		}
	}
	return true
}
