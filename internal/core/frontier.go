package core

import (
	"eagg/internal/bitset"
	"eagg/internal/ordering"
	"eagg/internal/plan"
)

// entry is one DP-table cell: the plans retained for a relation set, in
// insertion order, with the set's touch set and G⁺ (see open). first backs
// plans until a second plan joins, so an entry of a single-plan generator
// allocates no list.
type entry struct {
	plans []*plan.Plan
	first [1]*plan.Plan
	touch []uint64
	gp    bitset.VSet
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

// pruneDominatedPlans implements Fig. 13 over the entry's plan list: t is
// dropped if a retained plan dominates it; otherwise the retained plans t
// dominates are dropped and t is built and appended. The list keeps the
// order plans were inserted in — the order that breaks ties downstream.
//
// Dominance (Def. 4) compares FD closures as the paper states it, over
// candidate keys: every key of b must be implied by a key of a under the
// functional dependencies that hold in every plan over the entry's
// relation set S — the keys of S's relations and the inner equi-join
// equivalences inside S (fd.Local; Eich, Fender & Moerkotte, PVLDB 2016).
// Because our distinct-count estimates are plan-dependent it additionally
// compares the path-cardinality vector, the quantitative counterpart of
// the FD condition: every future grouping cardinality is a monotone
// function of it (see dominates).
//
// Under measured cardinalities (Options.Stats) that monotonicity holds
// only between plans with equal GroupsBelow: an operator's measured
// cardinality is looked up by (relation set, GroupsBelow) (cost.KeyOf),
// so the same extension of two plans whose GroupsBelow differ reads two
// unrelated measurements. Plans compare only within equal GroupsBelow
// then; without an overlay every pair compares, as in the paper.
func (g *generator[S]) pruneDominatedPlans(w *worker, e *entry, t *plan.Plan) {
	phys, measured := g.physOn(), g.opts.Stats != nil
	w.closed = false
	cl := func() []uint64 { return w.keyClosures(t) }
	// Any dominator rejects t, so the scan order changes no outcome.
	for i := len(e.plans) - 1; i >= 0; i-- {
		if p := e.plans[i]; (!measured || p.GroupsBelow == t.GroupsBelow) && dominates(p, t, phys, cl) {
			return
		}
	}
	kept := e.plans[:0]
	for _, p := range e.plans {
		if (!measured || p.GroupsBelow == t.GroupsBelow) &&
			dominates(t, p, phys, func() []uint64 { w.cls = w.closeKeys(w.cls[:0], p); return w.cls }) {
			w.free = append(w.free, p)
			continue
		}
		kept = append(kept, p)
	}
	e.plans = append(kept, w.keep(t))
}

// dominates reports whether a dominates b: a's cost, cardinality and every
// path cardinality are ≤ b's, and dominatesRest(a, b). The cardinality
// decides most pairs, so it is tested before the loop over the vector.
func dominates(a, b *plan.Plan, phys bool, cl func() []uint64) bool {
	return !(a.Cost > b.Cost || a.Card > b.Card) && pointwiseLE(a.Profile, b.Profile) &&
		dominatesRest(a, b, phys, cl)
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
