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
// if b is, every key of b implying a key of a under the subplan-local
// dependencies (see dominates) — any plan built over a must estimate no
// larger than the same plan over b, in cardinality, cost and every path
// cardinality; otherwise pruning b can lose the optimum. And the plan over
// a must dominate the one over b again in keys and duplicate-freeness, so
// the argument carries on up the tree. Random plans over a random split of
// random queries supply the pairs, and each pair is tried as either
// operand of every binary operator, under the pushed grouping, and under
// the final grouping or projection of the complete trees above it. Pairs
// that dominate only through a closure — no key of a inside some key of b
// — are counted apart, and a floor on them keeps the new relation
// exercised.
func TestEstimateMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	pairs, closureOnly := 0, 0
	for trial := 0; trial < 100 && !t.Failed(); trial++ {
		p, c := monotoneTrial(t, rng, 3+trial%4, fmt.Sprintf("trial %d", trial))
		pairs, closureOnly = pairs+p, closureOnly+c
	}
	t.Logf("%d dominating pairs, %d of them only through a closure", pairs, closureOnly)
	if pairs < 1000 {
		t.Errorf("only %d dominating pairs: the population no longer exercises the test", pairs)
	}
	if closureOnly < 250 {
		t.Errorf("only %d pairs dominate through a closure alone: the population no longer exercises the key relation", closureOnly)
	}
}

// FuzzEstimateMonotone runs TestEstimateMonotone's checks on one random
// query of 3 to 7 relations drawn from the fuzzer's seed.
func FuzzEstimateMonotone(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint8) {
		monotoneTrial(t, rand.New(rand.NewSource(seed)), 3+int(n%5), fmt.Sprintf("seed %d", seed))
	})
}

// monotoneTrial draws a query of n relations, splits it in two, builds 24
// random plans over one side and 3 over the other, and checks every
// dominating pair of the 24. It returns the number of pairs and how many of
// them dominate only through a closure.
func monotoneTrial(t *testing.T, rng *rand.Rand, n int, trial string) (pairs, closureOnly int) {
	t.Helper()
	kinds := []query.OpKind{
		query.KindJoin, query.KindSemiJoin, query.KindAntiJoin,
		query.KindLeftOuter, query.KindFullOuter, query.KindGroupJoin,
	}
	q := randquery.Generate(rng, randquery.Params{Relations: n})
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
			if a == b || !dominates(e, a, b) {
				continue
			}
			pairs++
			if !keysContained(a, b) {
				closureOnly++
			}
			var ea, eb plan.Plan
			for _, r := range others {
				for _, k := range kinds {
					e.EstimateOp(&ea, k, &sFirst, a, r)
					e.EstimateOp(&eb, k, &sFirst, b, r)
					checkStep(t, fmt.Sprintf("%s: a %v r", trial, k), e, a, b, &ea, &eb)
					checkFinal(t, fmt.Sprintf("%s: final over a %v r", trial, k), e, a, b, &ea, &eb)
					e.EstimateOp(&ea, k, &oFirst, r, a)
					e.EstimateOp(&eb, k, &oFirst, r, b)
					checkStep(t, fmt.Sprintf("%s: r %v a", trial, k), e, a, b, &ea, &eb)
					checkFinal(t, fmt.Sprintf("%s: final over r %v a", trial, k), e, a, b, &ea, &eb)
				}
			}
			e.EstimateGroup(&ea, a, gp)
			e.EstimateGroup(&eb, b, gp)
			checkStep(t, fmt.Sprintf("%s: Γ(a)", trial), e, a, b, &ea, &eb)
		}
	}
	return pairs, closureOnly
}

// checkMonotone reports an estimate over a (ea) that exceeds the same
// estimate over b (eb) in cardinality, cost or a path cardinality, and
// returns whether there was none.
func checkMonotone(t *testing.T, what string, a, b, ea, eb *plan.Plan) bool {
	t.Helper()
	worse := ea.Card > eb.Card || ea.Cost > eb.Cost
	for i := range ea.Profile {
		worse = worse || ea.Profile[i] > eb.Profile[i]
	}
	if worse {
		t.Errorf("%s: the estimate over the dominating plan is larger\na:  card %g cost %g profile %v\nb:  card %g cost %g profile %v\nover a: card %g cost %g profile %v\nover b: card %g cost %g profile %v",
			what, a.Card, a.Cost, a.Profile, b.Card, b.Cost, b.Profile, ea.Card, ea.Cost, ea.Profile, eb.Card, eb.Cost, eb.Profile)
	}
	return !worse
}

// checkStep checks one step up the tree: the estimate over a is monotone
// in the estimate over b and, where it is, dominates it again in keys and
// duplicate-freeness.
func checkStep(t *testing.T, what string, e *Estimator, a, b, ea, eb *plan.Plan) {
	t.Helper()
	if !checkMonotone(t, what, a, b, ea, eb) {
		return
	}
	if !ea.DupFree && eb.DupFree {
		t.Errorf("%s: the plan over the dominating plan lost duplicate-freeness", what)
	}
	if !keysImplied(e, ea, eb) {
		t.Errorf("%s: the keys over the dominating plan no longer imply those over the dominated one\na keys %v, b keys %v\nover a: %v\nover b: %v",
			what, a.Keys, b.Keys, ea.Keys, eb.Keys)
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
	if tree.DupFree && tree.HasKeySubsetOf(e.Local().Closure(bitset.RangeIn[bitset.VSet](0, len(e.Q.Relations)), e.Q.GroupBy)) {
		e.EstimateProject(dst, tree)
		return true
	}
	e.EstimateGroup(dst, tree, e.Q.GroupBy)
	dst.Final = true
	return false
}

// dominates is Def. 4 as the plan generator tests it: a's cost,
// cardinality and path cardinalities no larger than b's, a duplicate-free
// if b is, and every key of b implying a key of a (see keysImplied).
func dominates(e *Estimator, a, b *plan.Plan) bool {
	if a.Cost > b.Cost || a.Card > b.Card || (!a.DupFree && b.DupFree) {
		return false
	}
	for i := range a.Profile {
		if a.Profile[i] > b.Profile[i] {
			return false
		}
	}
	return keysImplied(e, a, b)
}

// keysImplied reports whether every key of b has a key of a inside its
// closure under the subplan-local dependencies of b's relation set.
func keysImplied(e *Estimator, a, b *plan.Plan) bool {
	for _, kb := range b.Keys {
		cl := e.Local().Closure(b.Rels, kb)
		implied := false
		for _, ka := range a.Keys {
			implied = implied || ka.SubsetOf(cl)
		}
		if !implied {
			return false
		}
	}
	return true
}

// keysContained reports whether every key of b contains a key of a: the
// syntactic relation the closure one extends.
func keysContained(a, b *plan.Plan) bool {
	for _, kb := range b.Keys {
		if !a.HasKeySubsetOf(kb) {
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
