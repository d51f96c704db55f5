// Package ordering implements the order property of the sort-based
// physical layer (Selinger-style interesting orders; Neumann & Moerkotte,
// ICDE 2004): a physical row order as an attribute sequence, and the
// inference rules that decide when an existing order makes a sort
// unnecessary.
//
// An Order is contractual: it describes the sequence rows are genuinely
// in, not a hint. Orders originate at base relations whose scan order was
// declared (query.SetScanOrder) and propagate only through operators that
// preserve their input sequence — which, in this runtime, is every
// sort-based operator (they emit the hash-canonical output sequence, see
// internal/algebra/sort.go) and nothing else the optimizer relies on. The
// hash layer physically happens to preserve probe order too, but the
// optimizer deliberately claims nothing for it: claiming less than
// reality is sound, and it is exactly what makes the sort-based layer
// competitive where orders matter.
//
// Two different relations between attributes feed the rules, and they
// must not be conflated:
//
//   - value equivalence (a ↔ b from an inner equi-join a = b applied
//     inside the subplan): rows carry equal values, so "sorted by a"
//     and "sorted by b" are the same physical fact. Only this relation
//     may substitute attributes in an order.
//   - functional dependency (key → attributes, plus the equivalences):
//     equal determinant implies equal dependent, with no monotonicity.
//     Sufficient for grouping ("rows with equal G are consecutive") but
//     never for sorting (sorted by o_orderkey says nothing about the
//     sequence of o_orderdate values).
package ordering

import (
	"eagg/internal/bitset"
	"eagg/internal/fd"
	"eagg/internal/query"
)

// Order is a physical row order: attribute ids in significance order,
// ascending under the runtime's value comparison. nil/empty means "no
// known order".
type Order []int

// Equal reports attribute-wise equality.
func (o Order) Equal(p Order) bool {
	if len(o) != len(p) {
		return false
	}
	for i := range o {
		if o[i] != p[i] {
			return false
		}
	}
	return true
}

// HasPrefix reports whether p is a prefix of o — the plain (equivalence-
// free) "o is at least as strong as p" test the dominance pruning uses.
func (o Order) HasPrefix(p Order) bool {
	if len(p) > len(o) {
		return false
	}
	for i := range p {
		if o[i] != p[i] {
			return false
		}
	}
	return true
}

// Info answers the order-inference questions of one query from its
// subplan-local dependency analysis (fd.Local): value equivalences through
// Local.Same, functional dependencies through Local.Closure. It keeps no
// state of its own, so it is a value any number of concurrent optimizer
// workers may build and use.
type Info struct {
	q  *query.Query
	fd *fd.Local
}

// NewInfo returns the order inference over the query's analysis fds.
func NewInfo(q *query.Query, fds *fd.Local) Info { return Info{q: q, fd: fds} }

// ScanOrder returns the declared physical order of a base relation.
func (in Info) ScanOrder(rel int) Order {
	return Order(in.q.Relations[rel].Ordered)
}

// CoversKeys reports whether an input order makes sorting by the given
// key sequence unnecessary, and if so under which permutation of the
// keys. rels is the relation set of the input subplan (its value
// equivalences may substitute attributes). keys is matched greedily
// against the order prefix: position i of the order must be value-
// equivalent to some not-yet-used key; the returned perm maps merge
// position → index into keys. ok is false when no permutation works.
func (in Info) CoversKeys(rels bitset.VSet, ord Order, keys []int) (perm []int, ok bool) {
	if len(keys) == 0 {
		return nil, true
	}
	if len(ord) < len(keys) {
		return nil, false
	}
	used := make([]bool, len(keys))
	perm = make([]int, 0, len(keys))
	for pos := 0; pos < len(keys); pos++ {
		found := -1
		for j, k := range keys {
			if !used[j] && in.fd.Same(rels, ord[pos], k) {
				found = j
				break
			}
		}
		if found < 0 {
			return nil, false
		}
		used[found] = true
		perm = append(perm, found)
	}
	return perm, true
}

// CoversKeysInOrder reports whether the order covers exactly the given
// key sequence — no permutation freedom, used for the second input of a
// merge join once the first input's match has fixed the pair order.
func (in Info) CoversKeysInOrder(rels bitset.VSet, ord Order, keys []int) bool {
	if len(keys) == 0 {
		return true
	}
	if len(ord) < len(keys) {
		return false
	}
	for i, k := range keys {
		if !in.fd.Same(rels, ord[i], k) {
			return false
		}
	}
	return true
}

// CoversGrouping reports whether an input order makes sorting for a
// grouping on groupBy unnecessary: rows with equal groupBy values are
// already consecutive. That holds iff some prefix P of the order
// satisfies, under the dependencies valid in the subplan (fd.Local: keys of
// the covered relations and the internal inner equi-join equivalences;
// grouping representatives carry the attribute combinations of real rows),
//
//	closure(P) ⊇ G  (equal P ⇒ equal G: a P-run never spans two groups)
//	P ⊆ closure(G)  (equal G ⇒ equal P: one group never splits across runs)
//
// so G-groups are exactly P-runs and a streaming aggregation over the
// existing sequence produces exactly the hash aggregation's groups.
// The covering prefix is returned so the runtime can verify the
// underlying order claim while streaming (the runs argument is only as
// good as the scan-order declaration it rests on). Grouping on ∅ (one
// global group) is trivially covered, with an empty prefix.
func (in Info) CoversGrouping(rels bitset.VSet, ord Order, groupBy bitset.VSet) (prefix Order, ok bool) {
	if groupBy.IsEmpty() {
		return nil, true
	}
	if len(ord) == 0 {
		return nil, false
	}
	gClosure := in.fd.Closure(rels, groupBy)
	var p bitset.VSet
	for i, a := range ord {
		if !gClosure.Contains(a) {
			return nil, false // prefix stops being contained in closure(G)
		}
		p = p.Add(a)
		if groupBy.SubsetOf(in.fd.Closure(rels, p)) {
			return append(Order(nil), ord[:i+1]...), true
		}
	}
	return nil, false
}

// GroupOutputOrder maps an input order through a grouping on groupBy:
// the output (one representative row per group, in first-encounter
// order) is sorted by every input-order prefix whose attributes survive
// — an attribute survives if it is value-equivalent to a grouping
// attribute (equal values, so the grouping column carries the same
// sequence). The mapped order stops at the first non-survivor.
func (in Info) GroupOutputOrder(rels bitset.VSet, ord Order, groupBy bitset.VSet) Order {
	if len(ord) == 0 {
		return nil
	}
	var out Order
	for _, a := range ord {
		mapped := -1
		if groupBy.Contains(a) {
			mapped = a
		} else {
			groupBy.ForEach(func(g int) {
				if mapped < 0 && in.fd.Same(rels, a, g) {
					mapped = g
				}
			})
		}
		if mapped < 0 {
			break
		}
		out = append(out, mapped)
	}
	return out
}
