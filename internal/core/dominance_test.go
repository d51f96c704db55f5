package core

import (
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
func frontierDominates(g *generator[bitset.Set64], a, b *plan.Plan) bool {
	return !(a.Cost > b.Cost || a.Card > b.Card) && pointwiseLE(a.Profile, b.Profile) && dominatesRest(a, b, g.physOn())
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

// TestDominanceMatchesReference executes the monotonicity argument
// (DESIGN "The EA-Prune inner loop"): dropping the attribute entries from
// the dominance vector changes no answer. For every query it re-derives
// each DP-table entry's candidate stream — every tree over the subplans
// EA-Prune retained, in enumeration order — and replays it through
// Fig. 13 with the reference test, checking on every (retained, candidate)
// comparison, in both directions, that the new test agrees; the replayed
// entry must then equal the one the optimizer's frontier (last-dominator
// shortcut, flat arrays, in-place compaction) retained.
func TestDominanceMatchesReference(t *testing.T) {
	comparisons, dominations := 0, 0
	differentialQueries(200, func(i int, q *query.Query, phys PhysMode) {
		g := newGenerator(q, Options{Algorithm: AlgEAPrune, Phys: phys, Workers: 1})
		if _, err := g.run(); err != nil {
			t.Fatal(err)
		}
		// Every candidate: the EA-All policy over EA-Prune's table.
		all := newGenerator(q, Options{Algorithm: AlgEAAll, Phys: phys})
		all.table = g.table
		streams := map[bitset.Set64]*entry{}
		var order []bitset.Set64
		for _, pr := range g.det.Graph.CsgCmpPairs() {
			s := pr.S1.Union(pr.S2)
			if s == g.all {
				continue
			}
			if streams[s] == nil {
				streams[s] = &entry{}
				order = append(order, s)
			}
			all.processPair(all.w0, streams[s], pr, false)
		}
		agree := func(a, b *plan.Plan) bool {
			comparisons++
			want := referenceDominates(g, a, b)
			if got := frontierDominates(g, a, b); got != want {
				t.Fatalf("query %d (%v): new dominance says %v, reference %v\na (cost %v card %v path %v):\n%v\nb (cost %v card %v path %v):\n%v",
					i, phys, got, want, a.Cost, a.Card, a.Profile, a, b.Cost, b.Card, b.Profile, b)
			}
			if want {
				dominations++
			}
			return want
		}
		for _, s := range order {
			var retained []*plan.Plan
			for _, cand := range streams[s].plans {
				dominated := false
				for _, old := range retained {
					dominated = agree(old, cand) || dominated
				}
				if dominated {
					continue
				}
				kept := retained[:0]
				for _, old := range retained {
					if !agree(cand, old) {
						kept = append(kept, old)
					}
				}
				retained = append(kept, cand)
			}
			got := g.table[s].plans
			if len(got) != len(retained) {
				t.Fatalf("query %d (%v) set %v: the frontier retained %d plans, the replay %d", i, phys, s, len(got), len(retained))
			}
			for k := range got {
				if !plan.Equal(got[k], retained[k]) {
					t.Fatalf("query %d (%v) set %v: retained plan %d differs\nfrontier:\n%v\nreplay:\n%v", i, phys, s, k, got[k], retained[k])
				}
			}
		}
	})
	t.Logf("%d comparisons, %d of them dominations", comparisons, dominations)
	if dominations < 10_000 {
		t.Errorf("only %d dominations among %d comparisons: the population no longer exercises the test", dominations, comparisons)
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

// TestForcedPoolDeterminism keeps the pool path under the determinism
// contract now that dpParallelCutoff runs small levels inline: with the
// cutoff at 0 every level of every query goes through subset grouping,
// worker clones and the staging table, and must still return the plan and
// the counters of the sequential driver.
func TestForcedPoolDeterminism(t *testing.T) {
	differentialQueries(63, func(i int, q *query.Query, phys PhysMode) {
		for _, alg := range []Algorithm{AlgH1, AlgEAPrune} {
			seq, err := Optimize(q, Options{Algorithm: alg, Phys: phys, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			g := newGenerator(q, Options{Algorithm: alg, Phys: phys, Workers: 3})
			par, err := g.run()
			if err != nil {
				t.Fatal(err)
			}
			if !plan.Equal(seq.Plan, par.Plan) || seq.Stats.PlansBuilt != par.Stats.PlansBuilt || seq.Stats.TablePlans != par.Stats.TablePlans {
				t.Fatalf("query %d %v/%v: forced pool diverges from sequential\nsequential (%d built, %d retained):\n%v\npool (%d built, %d retained):\n%v",
					i, alg, phys, seq.Stats.PlansBuilt, seq.Stats.TablePlans, seq.Plan, par.Stats.PlansBuilt, par.Stats.TablePlans, par.Plan)
			}
			for k, l := range par.Stats.Levels {
				if sl := seq.Stats.Levels[k]; l.Level != sl.Level || l.Pairs != sl.Pairs || l.Subsets != sl.Subsets {
					t.Fatalf("query %d %v/%v: pool reports level %+v, sequential %+v", i, alg, phys, l, sl)
				}
			}
		}
	})
}
