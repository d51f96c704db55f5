package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"eagg/internal/bitset"
	"eagg/internal/ordering"
	"eagg/internal/plan"
	"eagg/internal/query"
	"eagg/internal/randquery"
)

// walkPathCard is the definition the path-cardinality vector must agree
// with: the smallest cardinality on the path from p down to rel's scan,
// found by walking the tree.
func walkPathCard(rel int, p *plan.Plan) float64 {
	c := p.Card
	for p.Kind != plan.NodeScan {
		if p.Kind == plan.NodeOp && !p.Left.Rels.Contains(rel) {
			p = p.Right
		} else {
			p = p.Left
		}
		c = math.Min(c, p.Card)
	}
	return c
}

// referenceProfile is the distinct profile EA-Prune's dominance compared
// before the path-cardinality vector replaced it: for every grouping or
// join attribute of the plan's relations its distinct count capped by its
// relation's path cardinality, then the path cardinalities themselves —
// all of it walked from the root.
func referenceProfile(g *generator[bitset.Set64], t *plan.Plan) []float64 {
	attrs := g.q.GroupBy
	for _, pa := range g.predAttrs {
		attrs = attrs.Union(pa)
	}
	var prof []float64
	attrs.Intersect(g.q.AttrsOf(t.Rels)).ForEach(func(a int) {
		prof = append(prof, math.Max(1, math.Min(g.q.Distinct[a], walkPathCard(g.q.AttrRel[a], t))))
	})
	t.Rels.ForEach(func(rel int) { prof = append(prof, walkPathCard(rel, t)) })
	return prof
}

// referenceDominates is the dominance test as it stood before the flat
// frontier, attribute entries included: the reference the new test is
// differentially checked against.
func referenceDominates(g *generator[bitset.Set64], a, b *plan.Plan) bool {
	if g.physOn() && (a.PhysCost > b.PhysCost || !ordering.Order(a.Ord).HasPrefix(ordering.Order(b.Ord))) {
		return false
	}
	if a.Cost > b.Cost || a.Card > b.Card {
		return false
	}
	if !a.DupFree && b.DupFree {
		return false
	}
	pa, pb := referenceProfile(g, a), referenceProfile(g, b)
	for i := range pa {
		if pa[i] > pb[i] {
			return false
		}
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

// frontierDominates is the new test on two plan nodes: what the frontier
// evaluates from its flat arrays.
func frontierDominates(a, b *plan.Plan, phys bool) bool {
	return !(a.Cost > b.Cost || a.Card > b.Card) && pointwiseLE(a.Profile, b.Profile) && dominatesRest(a, b, phys)
}

// differentialQueries draws the population of the dominance tests: count
// random queries, n cycling through 3…9, the physical mode through
// hash/sort/auto.
func differentialQueries(count int, fn func(i int, q *query.Query, phys PhysMode)) {
	rng := rand.New(rand.NewSource(416))
	for i := 0; i < count; i++ {
		fn(i, randquery.Generate(rng, randquery.Params{Relations: 3 + i%7}), PhysMode(i%3))
	}
}

// candidateStreams runs EA-Prune on q and re-derives each DP-table entry's
// candidate stream — every tree over the subplans EA-Prune retained, in
// enumeration order: the EA-All policy over EA-Prune's table. It returns
// the generator with the streams in first-appearance order of their sets.
func candidateStreams(t *testing.T, q *query.Query, phys PhysMode) (g *generator[bitset.Set64], order []bitset.Set64, streams map[bitset.Set64][]*plan.Plan) {
	t.Helper()
	g = newGenerator(q, Options{Algorithm: AlgEAPrune, Phys: phys, Workers: 1})
	if _, err := g.run(); err != nil {
		t.Fatal(err)
	}
	all := newGenerator(q, Options{Algorithm: AlgEAAll, Phys: phys})
	all.table = g.table
	entries := map[bitset.Set64]*entry{}
	for _, pr := range g.det.Graph.CsgCmpPairs() {
		s := pr.S1.Union(pr.S2)
		if s == g.all {
			continue
		}
		if entries[s] == nil {
			entries[s] = &entry{}
			order = append(order, s)
		}
		all.processPair(all.w0, entries[s], pr, false)
	}
	streams = map[bitset.Set64][]*plan.Plan{}
	for s, e := range entries {
		streams[s] = e.plans
	}
	return g, order, streams
}

// twoScan is Fig. 13 taken literally — two full scans of an insertion-
// ordered list, no last-dominator shortcut, no ordering — over a candidate
// stream, with the dominance test handed in. It evaluates every (retained,
// candidate) comparison, but counts as examined what the figure's loops
// would touch: the retained plans up to the first dominator, or all of
// them twice for a candidate that survives.
func twoScan(stream []*plan.Plan, dominates func(a, b *plan.Plan) bool) (retained []*plan.Plan, examined int) {
	for _, cand := range stream {
		dominated := false
		for k, old := range retained {
			if dominates(old, cand) && !dominated {
				dominated = true
				examined += k + 1
			}
		}
		if dominated {
			continue
		}
		examined += 2 * len(retained)
		kept := retained[:0]
		for _, old := range retained {
			if !dominates(cand, old) {
				kept = append(kept, old)
			}
		}
		retained = append(kept, cand)
	}
	return retained, examined
}

// samePlans fails the test unless the two lists hold equal plans in the
// same order.
func samePlans(t *testing.T, what string, got, want []*plan.Plan) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: the frontier retained %d plans, the two-scan reference %d", what, len(got), len(want))
	}
	for k := range got {
		if !plan.Equal(got[k], want[k]) {
			t.Fatalf("%s: retained plan %d differs\nfrontier:\n%v\nreference:\n%v", what, k, got[k], want[k])
		}
	}
}

// TestDominanceMatchesReference executes the monotonicity argument
// (DESIGN "The EA-Prune inner loop"): dropping the attribute entries from
// the dominance vector changes no answer. For every query it replays each
// DP-table entry's candidate stream through Fig. 13 with the reference
// test, checking on every (retained, candidate) comparison, in both
// directions, that the new test agrees; the replayed entry must then equal
// the one the optimizer's run retained.
func TestDominanceMatchesReference(t *testing.T) {
	comparisons, dominations := 0, 0
	differentialQueries(200, func(i int, q *query.Query, phys PhysMode) {
		g, order, streams := candidateStreams(t, q, phys)
		agree := func(a, b *plan.Plan) bool {
			comparisons++
			want := referenceDominates(g, a, b)
			if got := frontierDominates(a, b, g.physOn()); got != want {
				t.Fatalf("query %d (%v): new dominance says %v, reference %v\na (cost %v card %v path %v):\n%v\nb (cost %v card %v path %v):\n%v",
					i, phys, got, want, a.Cost, a.Card, a.Profile, a, b.Cost, b.Card, b.Profile, b)
			}
			if want {
				dominations++
			}
			return want
		}
		for _, s := range order {
			retained, _ := twoScan(streams[s], agree)
			samePlans(t, fmt.Sprintf("query %d (%v) set %v", i, phys, s), g.table[s].plans, retained)
		}
	})
	t.Logf("%d comparisons, %d of them dominations", comparisons, dominations)
	if dominations < 10_000 {
		t.Errorf("only %d dominations among %d comparisons: the population no longer exercises the test", dominations, comparisons)
	}
}

// frontierOf feeds a candidate stream to a fresh entry through the
// production frontier — cost-ordered rows, last-dominator shortcut, bounded
// scans, seal — and returns what it retained with the number of retained
// plans its scans examined.
func frontierOf(g *generator[bitset.Set64], stream []*plan.Plan) (retained []*plan.Plan, examined int) {
	g.examined = func(n int) { examined += n }
	defer func() { g.examined = nil }()
	e := &entry{}
	for _, cand := range stream {
		g.pruneDominatedPlans(g.w0, e, cand)
	}
	e.seal(g.w0)
	return e.plans, examined
}

// TestFrontierMatchesTwoScanReference: whatever the frontier does to find a
// dominator sooner, it retains what Fig. 13's two full scans retain, in
// insertion order — on the candidate streams of 200 random queries across
// the physical modes, and on hand-built streams aimed at the ordering:
// equal costs, equal cost and cardinality, drops at either end of the cost
// order, and a drop of the plan the last-dominator shortcut points at.
func TestFrontierMatchesTwoScanReference(t *testing.T) {
	candidates := 0
	differentialQueries(200, func(i int, q *query.Query, phys PhysMode) {
		g, order, streams := candidateStreams(t, q, phys)
		for _, s := range order {
			got, _ := frontierOf(g, streams[s])
			want, _ := twoScan(streams[s], func(a, b *plan.Plan) bool { return frontierDominates(a, b, g.physOn()) })
			samePlans(t, fmt.Sprintf("query %d (%v) set %v", i, phys, s), got, want)
			candidates += len(streams[s])
		}
	})
	t.Logf("%d candidates replayed", candidates)

	// Hand-built candidates over two relations: cost, cardinality, vector.
	// Keys and duplicate-freeness are equal throughout, so dominance is
	// the numeric test alone.
	mk := func(cost, card, p0, p1 float64) *plan.Plan {
		return &plan.Plan{Cost: cost, Card: card, Profile: []float64{p0, p1}}
	}
	g := newGenerator(randquery.Chain(2), Options{Algorithm: AlgEAPrune})
	for name, stream := range map[string][]*plan.Plan{
		"equal costs, incomparable": {mk(5, 9, 1, 9), mk(5, 9, 9, 1), mk(5, 8, 9, 9), mk(5, 9, 2, 8)},
		"equal cost and card":       {mk(5, 5, 3, 3), mk(5, 5, 3, 3), mk(5, 5, 2, 4), mk(5, 5, 2, 2), mk(5, 5, 2, 2)},
		"drop at the cheap end":     {mk(1, 9, 9, 9), mk(2, 8, 8, 8), mk(3, 7, 7, 7), mk(1, 8, 8, 8), mk(0, 9, 9, 9)},
		"drop at the costly end":    {mk(1, 9, 1, 9), mk(2, 8, 2, 8), mk(9, 7, 7, 7), mk(8, 6, 6, 6), mk(3, 1, 1, 1)},
		"drop in the middle":        {mk(1, 9, 9, 1), mk(5, 5, 5, 5), mk(9, 1, 1, 9), mk(4, 4, 4, 4), mk(5, 5, 5, 5)},
		// d dominates the second and third candidates (d becomes last),
		// then a cheaper plan drops d; the next candidates are tested
		// against whatever slid under the stale index.
		"drop of the last dominator": {mk(1, 9, 1, 9), mk(6, 4, 4, 4), mk(7, 5, 5, 5), mk(8, 6, 4, 6), mk(9, 2, 9, 9), mk(5, 3, 3, 3), mk(7, 5, 5, 5), mk(2, 9, 2, 9), mk(9, 2, 9, 9)},
		"everything dominated":       {mk(1, 1, 1, 1), mk(2, 2, 2, 2), mk(1, 1, 1, 1), mk(3, 1, 1, 1)},
		"everything retained":        {mk(1, 9, 9, 9), mk(2, 8, 8, 8), mk(3, 7, 7, 7), mk(2.5, 7.5, 7.5, 7.5), mk(0.5, 10, 10, 10)},
	} {
		got, _ := frontierOf(g, stream)
		want, _ := twoScan(stream, func(a, b *plan.Plan) bool { return frontierDominates(a, b, false) })
		samePlans(t, name, got, want)
		if name == "everything retained" && len(got) != len(stream) {
			t.Errorf("%s: %d of %d retained", name, len(got), len(stream))
		}
	}
}

// TestFrontierExaminesFewerPlans is the deterministic stand-in for the
// frontier's timing claim: on rand14.2 of the optimize_cold population the
// bounded, nearest-cheaper-first scans examine at most 40 % of the retained
// plans that Fig. 13's two scans in insertion order examine.
func TestFrontierExaminesFewerPlans(t *testing.T) {
	g, order, streams := candidateStreams(t, rand14dot2(), PhysModeHash)
	frontier, reference, candidates := 0, 0, 0
	for _, s := range order {
		_, n := frontierOf(g, streams[s])
		_, ref := twoScan(streams[s], func(a, b *plan.Plan) bool { return frontierDominates(a, b, false) })
		frontier, reference, candidates = frontier+n, reference+ref, candidates+len(streams[s])
	}
	t.Logf("%d candidates: %.1f plans examined per candidate, the two-scan reference %.1f (%.0f %%)",
		candidates, float64(frontier)/float64(candidates), float64(reference)/float64(candidates), 100*float64(frontier)/float64(reference))
	if 10*frontier > 4*reference {
		t.Errorf("the frontier examined %d plans, over 40 %% of the reference's %d", frontier, reference)
	}
}

// TestPathCardVector: the incrementally derived vector equals the path
// cardinalities walked from the root, bit for bit, on every node of every
// retained plan — pushed groupings and final nodes included — on the
// narrow and the multi-word set representation.
func TestPathCardVector(t *testing.T) {
	nodes := 0
	var check func(p *plan.Plan)
	check = func(p *plan.Plan) {
		if p == nil {
			return
		}
		nodes++
		rels := p.Rels.Elems()
		if len(p.Profile) != len(rels) {
			t.Fatalf("vector of %d entries on a node over %d relations:\n%v", len(p.Profile), len(rels), p)
		}
		for k, rel := range rels {
			if want := walkPathCard(rel, p); math.Float64bits(p.Profile[k]) != math.Float64bits(want) {
				t.Fatalf("relation %d: vector says %v, the walk %v:\n%v", rel, p.Profile[k], want, p)
			}
		}
		check(p.Left)
		check(p.Right)
	}
	differentialQueries(200, func(i int, q *query.Query, phys PhysMode) {
		g := newGenerator(q, Options{Algorithm: AlgEAPrune, Phys: phys, Workers: 1})
		if _, err := g.run(); err != nil {
			t.Fatal(err)
		}
		for _, e := range g.table {
			for _, p := range e.plans {
				check(p)
			}
		}
	})
	for _, q := range []*query.Query{randquery.Chain(70), randquery.Star(70)} {
		res, err := Optimize(q, Options{Algorithm: AlgH1})
		if err != nil {
			t.Fatal(err)
		}
		check(res.Plan)
	}
	t.Logf("%d nodes checked", nodes)
}

// TestForcedPoolDeterminism keeps the pool under the determinism contract
// now that dpParallelCutoff runs small levels inline: with the cutoff at 0
// every level of every query goes through subset grouping, worker clones
// and the per-task slots, and every algorithm at Workers 2, 3 and 8 must
// return the plan, the counters, the level report and the table size of
// the Workers: 1 run.
func TestForcedPoolDeterminism(t *testing.T) {
	// maxN and one worker count per query keep the test short enough for
	// the race stress lane, which runs it nine times: EA-All's table
	// explodes past n = 6, and past n = 5 under auto, whose plan classes
	// multiply it (one 6-relation query builds 24.7M trees there).
	algs := []struct {
		opts Options
		maxN int
	}{
		{Options{Algorithm: AlgDPhyp}, 9},
		{Options{Algorithm: AlgH1}, 9},
		{Options{Algorithm: AlgH2, F: 1.03}, 8},
		{Options{Algorithm: AlgBeam, BeamWidth: 2}, 7},
		{Options{Algorithm: AlgEAPrune}, 9},
		{Options{Algorithm: AlgEAAll}, 6},
	}
	differentialQueries(63, func(i int, q *query.Query, phys PhysMode) {
		for k, c := range algs {
			opts := c.opts
			if n := len(q.Relations); n > c.maxN || opts.Algorithm == AlgEAAll && phys == PhysModeAuto && n > 5 {
				continue
			}
			opts.Phys, opts.Workers = phys, 1
			ref := newGenerator(q, opts)
			seq, err := ref.run()
			if err != nil {
				t.Fatal(err)
			}
			// Each algorithm meets every worker count across the queries.
			workers := []int{2, 3, 8}[(i+k)%3]
			opts.Workers = workers
			g := newGenerator(q, opts)
			par, err := g.run()
			if err != nil {
				t.Fatal(err)
			}
			if !plan.Equal(seq.Plan, par.Plan) || seq.Stats.PlansBuilt != par.Stats.PlansBuilt || seq.Stats.TablePlans != par.Stats.TablePlans {
				t.Fatalf("query %d %v/%v workers %d: forced pool diverges from sequential\nsequential (%d built, %d retained):\n%v\npool (%d built, %d retained):\n%v",
					i, opts.Algorithm, phys, workers, seq.Stats.PlansBuilt, seq.Stats.TablePlans, seq.Plan, par.Stats.PlansBuilt, par.Stats.TablePlans, par.Plan)
			}
			if len(par.Stats.Levels) != len(seq.Stats.Levels) {
				t.Fatalf("query %d %v/%v workers %d: pool reports %d levels, sequential %d", i, opts.Algorithm, phys, workers, len(par.Stats.Levels), len(seq.Stats.Levels))
			}
			for j, l := range par.Stats.Levels {
				if sl := seq.Stats.Levels[j]; l.Level != sl.Level || l.Pairs != sl.Pairs || l.Subsets != sl.Subsets {
					t.Fatalf("query %d %v/%v workers %d: pool reports level %+v, sequential %+v", i, opts.Algorithm, phys, workers, l, sl)
				}
			}
			if len(g.table) != len(ref.table) {
				t.Fatalf("query %d %v/%v workers %d: pool table holds %d keys, sequential %d", i, opts.Algorithm, phys, workers, len(g.table), len(ref.table))
			}
		}
	})
}
