package core

import (
	"eagg/internal/ordering"
	"eagg/internal/plan"
)

// entry is one DP-table cell: the plans retained for a relation set, in
// insertion order. Under EA-Prune it also carries the dominance frontier:
// the numeric half of every retained plan's dominance dimensions — C_out,
// cardinality and the path-cardinality vector (row-major, one row of
// |S| entries per plan) — in flat arrays parallel to plans, so the two
// scans of Fig. 13 run over contiguous floats and touch a plan node only
// for the key test of a pair that already passed the numeric one.
type entry struct {
	plans    []*plan.Plan
	cost     []float64
	card     []float64
	pathCard []float64
	// last is the index of the plan that most recently dominated a
	// candidate. Any dominator rejects, so trying it first changes no
	// outcome; consecutive candidates tend to fall to the same one.
	last int
}

// pruneDominatedPlans implements Fig. 13 on the flat frontier: t is dropped
// if a retained plan dominates it; otherwise the retained plans t
// dominates are dropped (stably, in place — insertion order is what breaks
// ties downstream) and t is built and appended.
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
	if e.dominated(t, phys) {
		return
	}
	n := len(t.Profile)
	kept := 0
	for i, old := range e.plans {
		if !(t.Cost > e.cost[i] || t.Card > e.card[i]) &&
			pointwiseLE(t.Profile, e.pathCard[i*n:i*n+n]) && dominatesRest(t, old, phys) {
			continue
		}
		if kept != i {
			if i == e.last {
				e.last = kept
			}
			e.plans[kept], e.cost[kept], e.card[kept] = old, e.cost[i], e.card[i]
			copy(e.pathCard[kept*n:kept*n+n], e.pathCard[i*n:i*n+n])
		}
		kept++
	}
	e.plans = append(e.plans[:kept], w.keep(t))
	e.cost = append(e.cost[:kept], t.Cost)
	e.card = append(e.card[:kept], t.Card)
	e.pathCard = append(e.pathCard[:kept*n], t.Profile...)
}

// dominated reports whether some retained plan dominates t.
func (e *entry) dominated(t *plan.Plan, phys bool) bool {
	n := len(t.Profile)
	by := func(i int) bool {
		return !(e.cost[i] > t.Cost || e.card[i] > t.Card) &&
			pointwiseLE(e.pathCard[i*n:i*n+n], t.Profile) && dominatesRest(e.plans[i], t, phys)
	}
	if e.last < len(e.plans) && by(e.last) {
		return true
	}
	for i := range e.plans {
		if by(i) {
			e.last = i
			return true
		}
	}
	return false
}

// pointwiseLE reports a[i] ≤ b[i] for every i (equal lengths).
func pointwiseLE(a, b []float64) bool {
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
