package cost

import (
	"fmt"
	"math/rand"
	"testing"

	"eagg/internal/bitset"
	"eagg/internal/plan"
	"eagg/internal/query"
	"eagg/internal/randquery"
)

// TestEstimateMonotone gates the premise of EA-Prune's dominance pruning
// (Sec. 4.6): when plan a dominates plan b over the same relation set —
// cost, cardinality and every path cardinality no larger, duplicate-free
// if b is, every key of b implied by a key of a — any plan built over a
// must estimate no larger than the same plan over b, in cardinality, cost
// and every path cardinality; otherwise pruning b can lose the optimum.
// Random plans over a random split of random queries supply the pairs, and
// each pair is tried as either operand of every binary operator, under the
// pushed grouping, and under the final grouping or projection of the
// complete trees above it.
func TestEstimateMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	kinds := []query.OpKind{
		query.KindJoin, query.KindSemiJoin, query.KindAntiJoin,
		query.KindLeftOuter, query.KindFullOuter, query.KindGroupJoin,
	}
	pairs := 0
	for trial := 0; trial < 100 && !t.Failed(); trial++ {
		q := randquery.Generate(rng, randquery.Params{Relations: 3 + trial%4})
		e := NewEstimator(q)
		var s, o bitset.VSet
		for s.IsEmpty() || o.IsEmpty() {
			s, o = bitset.VSet{}, bitset.VSet{}
			for r := range q.Relations {
				if rng.Intn(2) == 0 {
					s = s.Add(r)
				} else {
					o = o.Add(r)
				}
			}
		}
		var pop, others []*plan.Plan
		for i := 0; i < 24; i++ {
			pop = append(pop, randomPlan(rng, e, s))
		}
		for i := 0; i < 3; i++ {
			others = append(others, randomPlan(rng, e, o))
		}
		sFirst, oFirst := joinPredsOf(q, s, o), joinPredsOf(q, o, s)
		gp := pushedGroupBy(q, s)
		for _, a := range pop {
			for _, b := range pop {
				if a == b || !dominates(a, b) {
					continue
				}
				pairs++
				var ea, eb plan.Plan
				for _, r := range others {
					for _, k := range kinds {
						e.EstimateOp(&ea, k, &sFirst, a, r)
						e.EstimateOp(&eb, k, &sFirst, b, r)
						checkMonotone(t, fmt.Sprintf("trial %d: a %v r", trial, k), a, b, &ea, &eb)
						checkFinal(t, fmt.Sprintf("trial %d: final over a %v r", trial, k), e, a, b, &ea, &eb)
						e.EstimateOp(&ea, k, &oFirst, r, a)
						e.EstimateOp(&eb, k, &oFirst, r, b)
						checkMonotone(t, fmt.Sprintf("trial %d: r %v a", trial, k), a, b, &ea, &eb)
						checkFinal(t, fmt.Sprintf("trial %d: final over r %v a", trial, k), e, a, b, &ea, &eb)
					}
				}
				e.EstimateGroup(&ea, a, gp)
				e.EstimateGroup(&eb, b, gp)
				checkMonotone(t, fmt.Sprintf("trial %d: Γ(a)", trial), a, b, &ea, &eb)
			}
		}
	}
	t.Logf("%d dominating pairs", pairs)
	if pairs < 1000 {
		t.Errorf("only %d dominating pairs: the population no longer exercises the test", pairs)
	}
}

// checkMonotone reports an estimate over a (ea) that exceeds the same
// estimate over b (eb) in cardinality, cost or a path cardinality.
func checkMonotone(t *testing.T, what string, a, b, ea, eb *plan.Plan) {
	t.Helper()
	worse := ea.Card > eb.Card || ea.Cost > eb.Cost
	for i := range ea.Profile {
		worse = worse || ea.Profile[i] > eb.Profile[i]
	}
	if worse {
		t.Errorf("%s: the estimate over the dominating plan is larger\na:  card %g cost %g profile %v\nb:  card %g cost %g profile %v\nover a: card %g cost %g profile %v\nover b: card %g cost %g profile %v",
			what, a.Card, a.Cost, a.Profile, b.Card, b.Cost, b.Profile, ea.Card, ea.Cost, ea.Profile, eb.Card, eb.Cost, eb.Profile)
	}
}

// checkFinal completes the trees ta and tb the way the plan generator
// does: a projection where the tree is duplicate-free with a key implied
// by G, else the final Γ_G. Where both take the same operator it must be
// monotone like any other; where only the tree over a is projected, only
// its cost is compared, which is all that ranks complete plans.
func checkFinal(t *testing.T, what string, e *Estimator, a, b, ta, tb *plan.Plan) {
	t.Helper()
	if !e.Q.HasGrouping {
		return
	}
	var fa, fb plan.Plan
	pa, pb := final(e, &fa, ta), final(e, &fb, tb)
	if pa == pb {
		checkMonotone(t, what, a, b, &fa, &fb)
	} else if fa.Cost > fb.Cost {
		t.Errorf("%s: the complete plan over the dominating plan costs more: %g > %g", what, fa.Cost, fb.Cost)
	}
}

// final estimates the final grouping or projection over tree into dst and
// reports whether it is the projection.
func final(e *Estimator, dst, tree *plan.Plan) bool {
	if tree.DupFree && tree.HasKeySubsetOf(e.FDClosure(e.Q.GroupBy)) {
		e.EstimateProject(dst, tree)
		return true
	}
	e.EstimateGroup(dst, tree, e.Q.GroupBy)
	dst.Final = true
	return false
}

// dominates is Def. 4 as the plan generator tests it: a's cost,
// cardinality and path cardinalities no larger than b's, a duplicate-free
// if b is, and every key of b implied by (a superset of) a key of a.
func dominates(a, b *plan.Plan) bool {
	if a.Cost > b.Cost || a.Card > b.Card || (!a.DupFree && b.DupFree) {
		return false
	}
	for i := range a.Profile {
		if a.Profile[i] > b.Profile[i] {
			return false
		}
	}
	for _, kb := range b.Keys {
		implied := false
		for _, ka := range a.Keys {
			implied = implied || ka.SubsetOf(kb)
		}
		if !implied {
			return false
		}
	}
	return true
}

// randomPlan builds a random bushy inner-join tree over the relation set
// s, applying every predicate between its two sides at each join and
// pushing the grouping pushedGroupBy names onto a subtree at random.
func randomPlan(rng *rand.Rand, e *Estimator, s bitset.VSet) *plan.Plan {
	var p *plan.Plan
	if s.IsSingleton() {
		p = e.Scan(s.Min())
	} else {
		var l, r bitset.VSet
		for l.IsEmpty() || r.IsEmpty() {
			l, r = bitset.VSet{}, bitset.VSet{}
			s.ForEach(func(i int) {
				if rng.Intn(2) == 0 {
					l = l.Add(i)
				} else {
					r = r.Add(i)
				}
			})
		}
		jp := joinPredsOf(e.Q, l, r)
		p = new(plan.Plan)
		e.EstimateOp(p, query.KindJoin, &jp, randomPlan(rng, e, l), randomPlan(rng, e, r))
	}
	if e.Q.HasGrouping && rng.Intn(3) == 0 {
		p = e.Group(p, pushedGroupBy(e.Q, s))
	}
	return p
}

// joinPredsOf collects the query's predicates between the relation sets
// l and r, oriented so that the left attribute set is l's.
func joinPredsOf(q *query.Query, l, r bitset.VSet) JoinPreds {
	var jp JoinPreds
	jp.Reset()
	la, ra := q.AttrsOf(l), q.AttrsOf(r)
	var walk func(n *query.OpNode)
	walk = func(n *query.OpNode) {
		if n == nil || n.Kind == query.KindScan {
			return
		}
		if rels := q.RelsOf(n.Pred.Attrs()); rels.Intersects(l) && rels.Intersects(r) && rels.SubsetOf(l.Union(r)) {
			jp.Add(n.Pred, n.Pred.Attrs().Intersect(la), n.Pred.Attrs().Intersect(ra))
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(q.Root)
	return jp
}

// pushedGroupBy is a G⁺ for s that does not depend on the plan: the
// grouping attributes and every predicate attribute, restricted to s.
func pushedGroupBy(q *query.Query, s bitset.VSet) bitset.VSet {
	g := q.GroupBy
	var walk func(n *query.OpNode)
	walk = func(n *query.OpNode) {
		if n == nil || n.Kind == query.KindScan {
			return
		}
		g = g.Union(n.Pred.Attrs())
		walk(n.Left)
		walk(n.Right)
	}
	walk(q.Root)
	return g.Intersect(q.AttrsOf(s))
}
