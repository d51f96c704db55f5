package core

import (
	"slices"
	"sort"

	"eagg/internal/bitset"
	"eagg/internal/ordering"
	"eagg/internal/plan"
)

// entry is one DP-table cell: the plans retained for a relation set, in
// insertion order, with the set's touch set and G⁺ (see open). While
// EA-Prune builds the entry, front holds its dominance frontier; plans is
// append-only until then (a dropped plan leaves a nil behind), and seal, at
// the entry's level barrier, closes the gaps and hands the frontier on to
// the next entry — plans is the only state any reader sees.
type entry struct {
	plans []*plan.Plan
	front *frontier // nil outside EA-Prune and once sealed
	touch []uint64
	gp    bitset.VSet
}

// frontier is the dominance frontier of an entry EA-Prune is building: one
// row of floats per retained plan, ordered by C_out (ties by insertion),
// holding the plan's index in plans, where its key closures sit, and the
// numeric dimensions of dominance — C_out, cardinality,
// duplicate-freeness and the path-cardinality vector. A plan can only be
// dominated by plans costing no more and can only dominate plans costing
// no less, so either scan of Fig. 13 covers one side of a binary-searched
// bound, over contiguous floats, and touches a plan node only for the key
// test of a pair that already passed the numeric one.
type frontier struct {
	rows []float64 // retained plans × (rowVec + |S|)
	// last is the row of the plan that most recently dominated a
	// candidate. Any dominator rejects, so trying it first changes no
	// outcome; consecutive candidates tend to fall to the same one.
	last int
	next *frontier // in worker.idle
}

// Offsets within a frontier row. Everything from rowCard on is compared
// pointwise (rowLE): a dominates b only if a's row is ≤ b's there.
const (
	rowPlan = iota // index in entry.plans
	rowCl          // offset of the plan's key closures in worker.cls, -1 until computed
	rowCost
	rowCard
	rowWeak // 0 if duplicate-free, else 1: a duplicate-free plan is dominated only by another
	rowVec  // the path-cardinality vector, |S| entries
)

// frontierRow writes t's row (all but rowPlan) into the worker's scratch,
// and forgets the key closures of the previous candidate.
func (w *worker) frontierRow(t *plan.Plan) []float64 {
	w.row = append(w.row[:0], 0, -1, t.Cost, t.Card, 1)
	if t.DupFree {
		w.row[rowWeak] = 0
	}
	w.row = append(w.row, t.Profile...)
	w.closed = false
	return w.row
}

// keyClosures returns the closures of the candidate t's keys, computing
// them at the candidate's first key test that needs them.
func (w *worker) keyClosures(t *plan.Plan) []uint64 {
	if !w.closed {
		w.cl, w.closed = w.closeKeys(w.cl[:0], t), true
	}
	return w.cl
}

// closeKeys appends the closure of each key of p under the subplan-local
// dependencies of p.Rels (fd.Local), Words() attribute words per key.
func (w *worker) closeKeys(dst []uint64, p *plan.Plan) []uint64 {
	l := w.est.Local()
	for _, k := range p.Keys {
		dst = l.CloseInto(dst, p.Rels, k)
	}
	return dst
}

// retainedClosures returns the key closures of p, the retained plan whose
// row is r, computing and storing them in w.cls the first time a key test
// against p needs them.
func (w *worker) retainedClosures(r []float64, p *plan.Plan) []uint64 {
	if r[rowCl] < 0 {
		r[rowCl] = float64(len(w.cls))
		w.cls = w.closeKeys(w.cls, p)
	}
	at := int(r[rowCl])
	return w.cls[at : at+len(p.Keys)*w.est.Local().Words()]
}

// pruneDominatedPlans implements Fig. 13 on the cost-ordered frontier: t is
// dropped if a retained plan dominates it; otherwise the retained plans t
// dominates are dropped and t is built and inserted at its cost. Which plans
// an entry retains does not depend on the order they are scanned in, and
// plans keeps the order they were inserted in — the order that breaks ties
// downstream — so the outcome is that of two full scans over an
// insertion-ordered list.
//
// Dominance (Def. 4) compares FD closures as the paper states it, over
// candidate keys: every key of b must be implied by a key of a under the
// functional dependencies that hold in every plan over the entry's
// relation set S — the keys of S's relations and the inner equi-join
// equivalences inside S (fd.Local; Eich, Fender & Moerkotte, PVLDB 2016).
// Because our distinct-count estimates are plan-dependent it additionally
// compares the path-cardinality vector, the quantitative counterpart of
// the FD condition: every future grouping cardinality is a monotone
// function of it. a dominates b iff a's cost, cardinality and every path
// cardinality are ≤ b's and dominatesRest(a, b).
func (g *generator[S]) pruneDominatedPlans(w *worker, e *entry, t *plan.Plan) {
	phys := g.physOn()
	if e.front == nil {
		e.front = w.newFrontier()
	}
	f := e.front
	c := w.frontierRow(t)
	st := len(c)
	n := len(f.rows) / st
	// [0, ub) cost no more than t, [lb, n) no less; they overlap in the
	// plans of t's own cost.
	ub := sort.Search(n, func(i int) bool { return f.rows[i*st+rowCost] > t.Cost })
	examined, dominated := e.dominated(w, c, t, ub, phys)
	lb := ub
	for lb > 0 && f.rows[(lb-1)*st+rowCost] == t.Cost {
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
		r := f.rows[i*st : i*st+st]
		k := int(r[rowPlan])
		if rowLE(c, r) && dominatesRest(t, e.plans[k], phys, func() []uint64 { return w.retainedClosures(r, e.plans[k]) }) {
			w.free, e.plans[k] = append(w.free, e.plans[k]), nil
			if i < ub {
				at--
			}
			continue
		}
		if kept != i {
			if i == f.last {
				f.last = kept
			}
			copy(f.rows[kept*st:], r)
		}
		kept++
	}
	if f.last >= at && f.last < kept {
		f.last++
	}
	c[rowPlan] = float64(len(e.plans))
	e.plans = append(e.plans, w.keep(t))
	f.rows = append(w.growRows(f.rows, (kept+1)*st)[:kept*st], c...)
	copy(f.rows[(at+1)*st:], f.rows[at*st:kept*st])
	copy(f.rows[at*st:], c)
}

// dominated reports whether one of the first ub plans — the ones costing no
// more than t, whose row is c — dominates t, and how many of them it
// examined: the last dominator first, then the nearest cheaper plan first,
// which is where a candidate's dominator most often sits.
func (e *entry) dominated(w *worker, c []float64, t *plan.Plan, ub int, phys bool) (examined int, ok bool) {
	f, st := e.front, len(c)
	cl := func() []uint64 { return w.keyClosures(t) }
	by := func(i int) bool {
		r := f.rows[i*st : i*st+st]
		return rowLE(r, c) && dominatesRest(e.plans[int(r[rowPlan])], t, phys, cl)
	}
	if f.last < ub {
		if by(f.last) {
			return 1, true
		}
		examined = 1
	}
	for i := ub - 1; i >= 0; i-- {
		if by(i) {
			f.last = i
			return examined + ub - i, true
		}
	}
	return examined + ub, false
}

// seal ends the building of an entry at its level barrier: the gaps dropped
// plans left in plans close, in place, and the frontier, with its rows
// buffer, goes back to w, the worker that built the entry, for its next
// entry. Once w builds no entry, the closures it stored are dropped too.
func (e *entry) seal(w *worker) {
	f := e.front
	if f == nil {
		return
	}
	e.plans = slices.DeleteFunc(e.plans, func(p *plan.Plan) bool { return p == nil })
	*f = frontier{rows: f.rows[:0], next: w.idle}
	w.idle, e.front = f, nil
	if w.building--; w.building == 0 {
		w.cls = w.cls[:0]
	}
}

// newFrontier returns an empty frontier: one a sealed entry handed back if
// there is one, else one from the arena.
func (w *worker) newFrontier() *frontier {
	w.building++
	f := w.idle
	if f == nil {
		return alloc(&w.arena.fronts, 64)
	}
	w.idle, f.next = f.next, nil
	return f
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
// duplicate-freeness at least as strong and a's key set implying b's:
// every key kb of b contains a key of a (the fast path) or its closure
// under the entry's subplan-local dependencies does. cl returns those
// closures of b's keys, the same number of words per key; it is called
// only when the fast path fails. With the sort-based layer (phys) a must
// also be at least as cheap physically and its contractual order at least
// as strong (b's order a prefix of a's) — otherwise the
// dominated-but-ordered plan must survive.
func dominatesRest(a, b *plan.Plan, phys bool, cl func() []uint64) bool {
	if !a.DupFree && b.DupFree {
		return false
	}
	if phys && (a.PhysCost > b.PhysCost || !ordering.Order(a.Ord).HasPrefix(ordering.Order(b.Ord))) {
		return false
	}
	var closures []uint64
	for i, kb := range b.Keys {
		if a.HasKeySubsetOf(kb) {
			continue
		}
		if closures == nil {
			closures = cl()
		}
		nw := len(closures) / len(b.Keys)
		if !a.HasKeyInWords(closures[i*nw : i*nw+nw]) {
			return false
		}
	}
	return true
}
