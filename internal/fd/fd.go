// Package fd implements functional dependencies over the query's attribute
// universe. The paper's dominance criterion (Def. 4) and top-grouping
// elimination (Sec. 3.2) are stated in terms of FD closures, and the
// interesting-order rules of the sort layer in terms of value
// equivalences. Local is the only encoding of these facts in the plan
// generator — Closure and CloseInto answer the first kind of question,
// Same the second — and holds the dependencies that hold in every plan
// over a relation set S, whatever its shape (Eich, Fender & Moerkotte,
// PVLDB 2016):
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

// Same reports whether attributes a and b carry equal values in every
// plan over rels: whether a chain of inner equi-join pairs inside rels
// connects them. It walks the peer masks only — a key determines its
// relation's attributes but says nothing of their order, so no key step
// takes part. It allocates nothing for universes of up to 8 words.
func (l *Local) Same(rels bitset.VSet, a, b int) bool {
	of := l.q.AttrRel
	if a == b {
		return true
	}
	if !rels.Contains(of[a]) || !rels.Contains(of[b]) {
		return false
	}
	nw := l.words
	var buf [16]uint64
	s := buf[:]
	if 2*nw > len(buf) {
		s = make([]uint64, 2*nw)
	}
	c, done := s[:nw], s[nw:2*nw]
	c[a/64] |= 1 << (a % 64)
	for w := 0; w < nw; {
		todo := c[w] &^ done[w]
		if todo == 0 {
			w++
			continue
		}
		done[w] |= todo
		next := w
		for ; todo != 0; todo &= todo - 1 {
			for v, p := range l.peer(w*64 + bits.TrailingZeros64(todo)) {
				for add := p &^ c[v]; add != 0; add &= add - 1 {
					if x := v*64 + bits.TrailingZeros64(add); rels.Contains(of[x]) {
						if x == b {
							return true
						}
						c[v] |= 1 << (x % 64)
						next = min(next, v)
					}
				}
			}
		}
		w = next
	}
	return false
}
