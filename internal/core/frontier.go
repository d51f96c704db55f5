package core

import (
	"math"
	"slices"
	"sort"

	"eagg/internal/bitset"
	"eagg/internal/ordering"
	"eagg/internal/plan"
)

// entry is one DP-table cell: the plans retained for a relation set, in
// insertion order, with the set's touch set and G⁺ (see open).
//
// While EA-Prune builds the entry it also carries the dominance frontier:
// one row of floats per retained plan, ordered by C_out (ties by
// insertion), holding the plan's index in plans and the numeric dimensions
// of dominance — C_out, cardinality, two numbers that bound the key test
// from below, and the path-cardinality vector. A plan can only be
// dominated by plans costing no more and can only dominate plans costing
// no less, so either scan of Fig. 13 covers one side of a binary-searched
// bound, over contiguous floats, and touches a plan node only for the key
// test of a pair that already passed the numeric one. plans itself is
// append-only until then: a dropped plan leaves a nil behind, and seal, at
// the entry's level barrier, closes the gaps and hands the rows' buffer to
// the next frontier — which is the only state any reader sees.
type entry struct {
	plans []*plan.Plan
	rows  []float64 // retained plans × (rowVec + |S|); nil outside EA-Prune and once sealed
	// last is the row of the plan that most recently dominated a
	// candidate. Any dominator rejects, so trying it first changes no
	// outcome; consecutive candidates tend to fall to the same one.
	last  int
	touch []uint64
	gp    bitset.VSet
}

// Offsets within a frontier row. Everything from rowCard on is compared
// pointwise (rowLE): a dominates b only if a's row is ≤ b's there.
const (
	rowPlan = iota // index in entry.plans
	rowCost
	rowCard
	rowWeak   // 0 if duplicate-free, else 1: a duplicate-free plan is dominated only by another
	rowMinKey // size of the smallest key, +Inf without one: a key implying one of b's is no larger than it
	rowVec    // the path-cardinality vector, |S| entries
)

// frontierRow writes t's row (all but rowPlan) into the worker's scratch.
func (w *worker) frontierRow(t *plan.Plan) []float64 {
	w.row = append(w.row[:0], 0, t.Cost, t.Card, 1, math.Inf(1))
	if t.DupFree {
		w.row[rowWeak] = 0
	}
	for _, k := range t.Keys {
		w.row[rowMinKey] = min(w.row[rowMinKey], float64(k.Len()))
	}
	w.row = append(w.row, t.Profile...)
	return w.row
}

// pruneDominatedPlans implements Fig. 13 on the cost-ordered frontier: t is
// dropped if a retained plan dominates it; otherwise the retained plans t
// dominates are dropped and t is built and inserted at its cost. Which plans
// an entry retains does not depend on the order they are scanned in, and
// plans keeps the order they were inserted in — the order that breaks ties
// downstream — so the outcome is that of two full scans over an
// insertion-ordered list.
//
// Dominance (Def. 4) weakens the FD-closure comparison to candidate-key
// implication, as the paper suggests for implementations, and — because
// our distinct-count estimates are plan-dependent — additionally compares
// the path-cardinality vector, the quantitative counterpart of the FD
// condition: every future grouping cardinality is a monotone function of
// it. a dominates b iff a's cost, cardinality and every path cardinality
// are ≤ b's and dominatesRest(a, b).
func (g *generator[S]) pruneDominatedPlans(w *worker, e *entry, t *plan.Plan) {
	phys := g.physOn()
	c := w.frontierRow(t)
	st := len(c)
	n := len(e.rows) / st
	// [0, ub) cost no more than t, [lb, n) no less; they overlap in the
	// plans of t's own cost.
	ub := sort.Search(n, func(i int) bool { return e.rows[i*st+rowCost] > t.Cost })
	examined, dominated := e.dominated(c, t, ub, phys)
	lb := ub
	for lb > 0 && e.rows[(lb-1)*st+rowCost] == t.Cost {
		lb--
	}
	if g.examined != nil {
		if !dominated {
			examined += n - lb
		}
		g.examined(examined)
	}
	if dominated {
		return
	}
	kept, at := lb, ub // at: where t goes, behind the survivors of its own cost
	for i := lb; i < n; i++ {
		r := e.rows[i*st : i*st+st]
		if p := int(r[rowPlan]); rowLE(c, r) && dominatesRest(t, e.plans[p], phys) {
			w.free, e.plans[p] = append(w.free, e.plans[p]), nil
			if i < ub {
				at--
			}
			continue
		}
		if kept != i {
			if i == e.last {
				e.last = kept
			}
			copy(e.rows[kept*st:], r)
		}
		kept++
	}
	if e.last >= at && e.last < kept {
		e.last++
	}
	c[rowPlan] = float64(len(e.plans))
	e.plans = append(e.plans, w.keep(t))
	e.rows = append(w.growRows(e.rows, (kept+1)*st)[:kept*st], c...)
	copy(e.rows[(at+1)*st:], e.rows[at*st:kept*st])
	copy(e.rows[at*st:], c)
}

// dominated reports whether one of the first ub plans — the ones costing no
// more than t, whose row is c — dominates t, and how many of them it
// examined: the last dominator first, then the nearest cheaper plan first,
// which is where a candidate's dominator most often sits.
func (e *entry) dominated(c []float64, t *plan.Plan, ub int, phys bool) (examined int, ok bool) {
	st := len(c)
	by := func(i int) bool {
		r := e.rows[i*st : i*st+st]
		return rowLE(r, c) && dominatesRest(e.plans[int(r[rowPlan])], t, phys)
	}
	if e.last < ub {
		if by(e.last) {
			return 1, true
		}
		examined = 1
	}
	for i := ub - 1; i >= 0; i-- {
		if by(i) {
			e.last = i
			return examined + ub - i, true
		}
	}
	return examined + ub, false
}

// seal ends the building of an entry at its level barrier: the gaps dropped
// plans left in plans close, in place, and the frontier's buffer becomes a
// spare of w, the worker that built the entry.
func (e *entry) seal(w *worker) {
	if e.rows == nil {
		return
	}
	e.plans = slices.DeleteFunc(e.plans, func(p *plan.Plan) bool { return p == nil })
	w.giveRows(e.rows)
	e.rows = nil
}

// rowLE reports whether frontier row a is ≤ row b in every dominance
// dimension. The cardinality decides most pairs, so it is tested before the
// loop over the rest is entered.
func rowLE(a, b []float64) bool {
	return !(a[rowCard] > b[rowCard]) && pointwiseLE(a[rowCard+1:], b[rowCard+1:])
}

// pointwiseLE reports a[i] ≤ b[i] for every i (equal lengths).
func pointwiseLE(a, b []float64) bool {
	b = b[:len(a)]
	for i, v := range a {
		if v > b[i] {
			return false
		}
	}
	return true
}

// dominatesRest is the non-numeric half of "a dominates b": a's
// duplicate-freeness at least as strong and a's key set implying b's
// (every key of b is implied by some key of a). With the sort-based layer
// (phys) a must also be at least as cheap physically and its contractual
// order at least as strong (b's order a prefix of a's) — otherwise the
// dominated-but-ordered plan must survive.
func dominatesRest(a, b *plan.Plan, phys bool) bool {
	if !a.DupFree && b.DupFree {
		return false
	}
	if phys && (a.PhysCost > b.PhysCost || !ordering.Order(a.Ord).HasPrefix(ordering.Order(b.Ord))) {
		return false
	}
	for _, kb := range b.Keys {
		implied := false
		for _, ka := range a.Keys {
			if ka.SubsetOf(kb) {
				implied = true
				break
			}
		}
		if !implied {
			return false
		}
	}
	return true
}
