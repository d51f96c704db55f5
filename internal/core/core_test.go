package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"eagg/internal/aggfn"
	"eagg/internal/bitset"
	"eagg/internal/plan"
	"eagg/internal/query"
	"eagg/internal/randquery"
)

// motivatingQuery builds the paper's introduction query with grouping:
// select ns.name, nc.name, count(*) from (ns B s) K (nc B c) group by …
func motivatingQuery() *query.Query {
	q := query.New()
	ns := q.AddRelation("nation_s", 25)
	s := q.AddRelation("supplier", 10000)
	nc := q.AddRelation("nation_c", 25)
	c := q.AddRelation("customer", 150000)
	nsk := q.AddAttr(ns, "ns.nationkey", 25)
	nsn := q.AddAttr(ns, "ns.name", 25)
	ssk := q.AddAttr(s, "s.nationkey", 25)
	nck := q.AddAttr(nc, "nc.nationkey", 25)
	ncn := q.AddAttr(nc, "nc.name", 25)
	csk := q.AddAttr(c, "c.nationkey", 25)
	q.AddKey(ns, nsk)
	q.AddKey(nc, nck)
	left := &query.OpNode{
		Kind:  query.KindJoin,
		Left:  &query.OpNode{Kind: query.KindScan, Rel: ns},
		Right: &query.OpNode{Kind: query.KindScan, Rel: s},
		Pred:  &query.Predicate{Left: []int{nsk}, Right: []int{ssk}, Selectivity: 1.0 / 25},
	}
	right := &query.OpNode{
		Kind:  query.KindJoin,
		Left:  &query.OpNode{Kind: query.KindScan, Rel: nc},
		Right: &query.OpNode{Kind: query.KindScan, Rel: c},
		Pred:  &query.Predicate{Left: []int{nck}, Right: []int{csk}, Selectivity: 1.0 / 25},
	}
	q.Root = &query.OpNode{
		Kind: query.KindFullOuter,
		Left: left, Right: right,
		Pred: &query.Predicate{Left: []int{nsk}, Right: []int{nck}, Selectivity: 1.0 / 25},
	}
	q.SetGrouping([]int{nsn, ncn}, aggfn.Vector{{Out: "cnt", Kind: aggfn.CountStar}})
	return q
}

func optimize(t *testing.T, q *query.Query, alg Algorithm, f float64) *Result {
	t.Helper()
	res, err := Optimize(q, Options{Algorithm: alg, F: f})
	if err != nil {
		t.Fatalf("%v: %v", alg, err)
	}
	return res
}

// TestMotivatingQueryGain reproduces the introduction's headline: eager
// aggregation collapses the plan cost of the outer-join grouping query by
// orders of magnitude.
func TestMotivatingQueryGain(t *testing.T) {
	q := motivatingQuery()
	dphyp := optimize(t, q, AlgDPhyp, 0)
	prune := optimize(t, q, AlgEAPrune, 0)
	all := optimize(t, q, AlgEAAll, 0)
	if math.Abs(all.Plan.Cost-prune.Plan.Cost) > 1e-6*all.Plan.Cost {
		t.Errorf("EA-All cost %.6g != EA-Prune cost %.6g", all.Plan.Cost, prune.Plan.Cost)
	}
	ratio := dphyp.Plan.Cost / prune.Plan.Cost
	if ratio < 50 {
		t.Errorf("expected a large eager-aggregation gain on the motivating query, got ratio %.2f\nDPhyp:\n%v\nEA-Prune:\n%v",
			ratio, dphyp.Plan.StringWithQuery(q), prune.Plan.StringWithQuery(q))
	}
	// The eager plan must actually contain pushed-down groupings.
	if prune.Plan.CountGroupings() == 0 {
		t.Errorf("EA-Prune plan has no eager groupings:\n%v", prune.Plan.StringWithQuery(q))
	}
}

// checkWellFormed validates structural invariants of produced plans.
func checkWellFormed(t *testing.T, q *query.Query, p *plan.Plan, isRoot bool) {
	t.Helper()
	if p == nil {
		t.Fatal("nil plan node")
	}
	switch p.Kind {
	case plan.NodeScan:
		if !p.Rels.IsSingleton() {
			t.Errorf("scan with Rels=%v", p.Rels)
		}
	case plan.NodeOp:
		if p.Left == nil || p.Right == nil {
			t.Fatalf("operator node without children")
		}
		if p.Rels != p.Left.Rels.Union(p.Right.Rels) {
			t.Errorf("Rels mismatch at %v", p.Op)
		}
		if p.Cost+1e-9 < p.Left.Cost+p.Right.Cost {
			t.Errorf("cost not monotone at %v", p.Op)
		}
		checkWellFormed(t, q, p.Left, false)
		checkWellFormed(t, q, p.Right, false)
	case plan.NodeGroup:
		if p.Final && !isRoot {
			t.Error("final grouping below the root")
		}
		if !p.Final && isRoot && q.HasGrouping {
			t.Error("root grouping not marked final")
		}
		if !p.DupFree {
			t.Error("grouping result must be duplicate-free")
		}
		checkWellFormed(t, q, p.Left, false)
	case plan.NodeProject:
		if !isRoot {
			t.Error("projection only replaces the final grouping")
		}
		checkWellFormed(t, q, p.Left, false)
	}
}

// TestAlgorithmsOnRandomQueries is the central integration battery:
// EA-All and EA-Prune must agree on the optimal cost (the pruning is
// optimality-preserving, Sec. 4.6), and every other algorithm's plan costs
// at least as much.
func TestAlgorithmsOnRandomQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for n := 2; n <= 7; n++ {
		for trial := 0; trial < 12; trial++ {
			q := randquery.Generate(rng, randquery.Params{Relations: n})
			all := optimize(t, q, AlgEAAll, 0)
			prune := optimize(t, q, AlgEAPrune, 0)
			dphyp := optimize(t, q, AlgDPhyp, 0)
			h1 := optimize(t, q, AlgH1, 0)
			h2 := optimize(t, q, AlgH2, 1.03)

			opt := all.Plan.Cost
			if diff := math.Abs(prune.Plan.Cost - opt); diff > 1e-6*opt {
				t.Fatalf("n=%d trial=%d: EA-Prune %.6g != EA-All %.6g — pruning lost optimality\nEA-All:\n%v\nEA-Prune:\n%v",
					n, trial, prune.Plan.Cost, opt, all.Plan.String(), prune.Plan.String())
			}
			for _, r := range []*Result{dphyp, h1, h2} {
				if r.Plan.Cost < opt*(1-1e-9) {
					t.Fatalf("n=%d trial=%d: %.6g beats the optimum %.6g", n, trial, r.Plan.Cost, opt)
				}
			}
			for _, r := range []*Result{all, prune, dphyp, h1, h2} {
				checkWellFormed(t, q, r.Plan, true)
				// The plan must cover all relations below the final node.
				if r.Plan.Rels.Len() != n {
					t.Fatalf("n=%d: plan covers %v", n, r.Plan.Rels)
				}
			}
			// DPhyp never contains eager groupings.
			if dphyp.Plan.CountGroupings() != 0 {
				t.Fatalf("DPhyp plan contains eager groupings:\n%v", dphyp.Plan.String())
			}
		}
	}
}

// TestNoGroupingDegeneratesToJoinOrdering: without a grouping, no eager
// variants exist, so EA-All and EA-Prune still agree exactly, DPhyp and H1
// build the same single-plan tables (identical costs), and the single-plan
// algorithms can only be ≥ the multi-plan optimum. (They are not always
// equal: the clamped semijoin/outerjoin cardinality formulas are not
// join-order-invariant, so Bellman's principle can fail even without
// grouping — keeping all plans then wins.)
func TestNoGroupingDegeneratesToJoinOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		q := randquery.Generate(rng, randquery.Params{Relations: 5})
		q.HasGrouping = false
		q.GroupBy = bitset.VSet{}
		q.Aggregates = nil
		costs := map[Algorithm]float64{}
		for _, alg := range []Algorithm{AlgDPhyp, AlgEAAll, AlgEAPrune, AlgH1} {
			costs[alg] = optimize(t, q, alg, 0).Plan.Cost
		}
		if math.Abs(costs[AlgEAAll]-costs[AlgEAPrune]) > 1e-6*costs[AlgEAAll] {
			t.Fatalf("trial %d: EA-All %.6g != EA-Prune %.6g", trial, costs[AlgEAAll], costs[AlgEAPrune])
		}
		if math.Abs(costs[AlgDPhyp]-costs[AlgH1]) > 1e-6*costs[AlgDPhyp] {
			t.Fatalf("trial %d: DPhyp %.6g != H1 %.6g without grouping", trial, costs[AlgDPhyp], costs[AlgH1])
		}
		if costs[AlgDPhyp] < costs[AlgEAAll]*(1-1e-9) {
			t.Fatalf("trial %d: single-plan DP beat the exhaustive search", trial)
		}
	}
}

// TestH2ToleranceInfluence: H2 with absurdly large F should essentially
// always prefer eager plans; with F=1 it matches H1's decisions on ties
// broken identically. We only assert both run and produce valid plans and
// that costs stay ≥ optimal.
func TestH2Tolerances(t *testing.T) {
	rng := rand.New(rand.NewSource(512))
	for trial := 0; trial < 10; trial++ {
		q := randquery.Generate(rng, randquery.Params{Relations: 6})
		opt := optimize(t, q, AlgEAPrune, 0).Plan.Cost
		for _, f := range []float64{1.0, 1.01, 1.03, 1.05, 1.1, 2.0} {
			r := optimize(t, q, AlgH2, f)
			if r.Plan.Cost < opt*(1-1e-9) {
				t.Fatalf("H2(F=%.2f) cost %.6g below optimum %.6g", f, r.Plan.Cost, opt)
			}
			checkWellFormed(t, q, r.Plan, true)
		}
	}
}

// TestH2RequiresF ensures the misconfiguration is rejected.
func TestH2RequiresF(t *testing.T) {
	q := motivatingQuery()
	if _, err := Optimize(q, Options{Algorithm: AlgH2}); err == nil {
		t.Error("H2 without F must error")
	}
}

// TestOptimizeRejectsUndefinedOptions pins that only the defined
// Algorithm and PhysMode constants reach the generators: any other value,
// including the retired auto mode's old value 2, is an error, as is the
// name "auto". So is an H2 tolerance factor that is not a finite number:
// under NaN no comparison would prefer a tree of different eagerness.
// So is a negative worker count (0 selects GOMAXPROCS).
func TestOptimizeRejectsUndefinedOptions(t *testing.T) {
	q := motivatingQuery()
	for _, c := range []struct {
		name string
		opts Options
	}{
		{"PhysMode(2)", Options{Algorithm: AlgEAPrune, Phys: PhysMode(2)}},
		{"PhysMode(-1)", Options{Algorithm: AlgEAPrune, Phys: PhysMode(-1)}},
		{"PhysMode(7)", Options{Algorithm: AlgEAPrune, Phys: PhysMode(7)}},
		{"Algorithm(42)", Options{Algorithm: Algorithm(42)}},
		{"Algorithm(-1)", Options{Algorithm: Algorithm(-1), Phys: PhysModeSort}},
		{"NaN", Options{Algorithm: AlgH2, F: math.NaN()}},
		{"+Inf", Options{Algorithm: AlgH2, F: math.Inf(1)}},
		{"-Inf", Options{Algorithm: AlgH2, F: math.Inf(-1)}},
		{"-1", Options{Algorithm: AlgEAPrune, Workers: -1}},
		{"-3", Options{Algorithm: AlgH1, Workers: -3}},
	} {
		if res, err := Optimize(q, c.opts); err == nil {
			t.Errorf("%s: Optimize returned a plan, want an error:\n%v", c.name, res.Plan)
		} else if !strings.Contains(err.Error(), c.name) {
			t.Errorf("%s: error %q does not name the value", c.name, err)
		}
	}
	_, err := ParsePhysMode("auto")
	if err == nil {
		t.Fatal(`ParsePhysMode("auto") must fail`)
	}
	for _, want := range []string{"hash", "sort"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("ParsePhysMode error %q does not name %q", err, want)
		}
	}
}

// TestOptimizeRejectsOverflowingCost: statistics that validate can still
// overflow the cost model — a full outerjoin of two relations of 1e308
// rows each, on keys with as many values, has +Inf rows, and grouping
// first reduces nothing — and then every generator, in both physical
// modes, returns an error instead of a plan it could not rank.
func TestOptimizeRejectsOverflowingCost(t *testing.T) {
	q := query.New()
	a, b := q.AddRelation("a", 1e308), q.AddRelation("b", 1e308)
	x, y := q.AddAttr(a, "a.x", 1e308), q.AddAttr(b, "b.y", 1e308)
	q.Root = &query.OpNode{
		Kind:  query.KindFullOuter,
		Left:  &query.OpNode{Kind: query.KindScan, Rel: a},
		Right: &query.OpNode{Kind: query.KindScan, Rel: b},
		Pred:  &query.Predicate{Left: []int{x}, Right: []int{y}, Selectivity: 0.5},
	}
	q.SetGrouping([]int{x}, aggfn.Vector{{Out: "cnt", Kind: aggfn.CountStar}})
	for _, phys := range []PhysMode{PhysModeHash, PhysModeSort} {
		for _, alg := range []Algorithm{AlgDPhyp, AlgH1, AlgH2, AlgEAPrune, AlgEAAll, AlgBeam} {
			res, err := Optimize(q, Options{Algorithm: alg, F: 1.03, Phys: phys})
			if err == nil {
				t.Errorf("%v/%v: Optimize returned a plan of cost %v, want an error", alg, phys, res.Plan.Cost)
			} else if !strings.Contains(err.Error(), "overflow") {
				t.Errorf("%v/%v: error %q does not say the cost overflows", alg, phys, err)
			}
		}
	}
}

// TestSingleJoinGrouping is a minimal sanity scenario with hand-checkable
// numbers: R0(card 1000, 10 groups) B R1(card 10, key) grouped by R0.g.
func TestSingleJoinGrouping(t *testing.T) {
	q := query.New()
	r0 := q.AddRelation("fact", 1000)
	r1 := q.AddRelation("dim", 10)
	fk := q.AddAttr(r0, "fact.fk", 10)
	g := q.AddAttr(r0, "fact.g", 10)
	q.AddAttr(r0, "fact.a", 500)
	pk := q.AddAttr(r1, "dim.pk", 10)
	q.AddKey(r1, pk)
	q.Root = &query.OpNode{
		Kind:  query.KindJoin,
		Left:  &query.OpNode{Kind: query.KindScan, Rel: r0},
		Right: &query.OpNode{Kind: query.KindScan, Rel: r1},
		Pred:  &query.Predicate{Left: []int{fk}, Right: []int{pk}, Selectivity: 0.1},
	}
	q.SetGrouping([]int{g}, aggfn.Vector{
		{Out: "cnt", Kind: aggfn.CountStar},
		{Out: "s", Kind: aggfn.Sum, Arg: "fact.a"},
	})
	// Lazy: join (1000×10×0.1 = 1000) + final Γ (10) = 1010.
	// Eager: Γ_{g,fk}(R0) → 100 rows, join → 100, final Γ → 10: 210.
	prune := optimize(t, q, AlgEAPrune, 0)
	if math.Abs(prune.Plan.Cost-210) > 1 {
		t.Errorf("EA-Prune cost = %.6g, want ≈210\n%v", prune.Plan.Cost, prune.Plan.StringWithQuery(q))
	}
	dphyp := optimize(t, q, AlgDPhyp, 0)
	if math.Abs(dphyp.Plan.Cost-1010) > 1 {
		t.Errorf("DPhyp cost = %.6g, want ≈1010\n%v", dphyp.Plan.Cost, dphyp.Plan.StringWithQuery(q))
	}
}

// TestOptimalityAtEight pushes the EA-All ≡ EA-Prune check to eight
// relations, where the exhaustive table holds hundreds of thousands of
// trees. Skipped with -short.
func TestOptimalityAtEight(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive enumeration at n=8 is slow")
	}
	rng := rand.New(rand.NewSource(888))
	for trial := 0; trial < 2; trial++ {
		q := randquery.Generate(rng, randquery.Params{Relations: 8})
		all := optimize(t, q, AlgEAAll, 0)
		prune := optimize(t, q, AlgEAPrune, 0)
		if diff := math.Abs(prune.Plan.Cost - all.Plan.Cost); diff > 1e-6*all.Plan.Cost {
			t.Fatalf("trial %d: EA-Prune %.6g != EA-All %.6g (built %d vs %d trees)",
				trial, prune.Plan.Cost, all.Plan.Cost, prune.Stats.PlansBuilt, all.Stats.PlansBuilt)
		}
		// The pruning must actually prune (orders of magnitude fewer trees).
		if prune.Stats.PlansBuilt*10 > all.Stats.PlansBuilt {
			t.Logf("note: weak pruning on this query (%d vs %d trees)",
				prune.Stats.PlansBuilt, all.Stats.PlansBuilt)
		}
	}
}

// TestBeamSearchInterpolates: the beam generalization is H1 at width 1 —
// the same plan, cost bits and search counters in both physical modes —
// approaches the optimum as the width grows, and never beats it.
func TestBeamSearchInterpolates(t *testing.T) {
	rng := rand.New(rand.NewSource(31415))
	var qs []*query.Query
	for trial := 0; trial < 20; trial++ {
		qs = append(qs, randquery.Generate(rng, randquery.Params{Relations: 6}))
	}
	// A hash-mode query on which a Beam-only tie rule (equal cost, smaller
	// cardinality first) once made Beam(1) return C_out 192.51 where H1
	// returns 74.95.
	qs = append(qs, randquery.Generate(rand.New(rand.NewSource(168)), randquery.Params{Relations: 7}))
	betterThanH1 := 0
	for trial, q := range qs {
		for _, phys := range []PhysMode{PhysModeHash, PhysModeSort} {
			h1, err := Optimize(q, Options{Algorithm: AlgH1, Phys: phys})
			if err != nil {
				t.Fatal(err)
			}
			b1, err := Optimize(q, Options{Algorithm: AlgBeam, BeamWidth: 1, Phys: phys})
			if err != nil {
				t.Fatal(err)
			}
			if b1.Plan.String() != h1.Plan.String() ||
				math.Float64bits(b1.Plan.Cost) != math.Float64bits(h1.Plan.Cost) ||
				math.Float64bits(b1.Plan.PhysCost) != math.Float64bits(h1.Plan.PhysCost) ||
				b1.Stats.PlansBuilt != h1.Stats.PlansBuilt || b1.Stats.TablePlans != h1.Stats.TablePlans {
				t.Fatalf("trial %d %v: beam(1) (C_out %.17g, PhysCost %.17g, built %d, table %d) differs from H1 (%.17g, %.17g, %d, %d)\nbeam(1):\n%v\nH1:\n%v",
					trial, phys, b1.Plan.Cost, b1.Plan.PhysCost, b1.Stats.PlansBuilt, b1.Stats.TablePlans,
					h1.Plan.Cost, h1.Plan.PhysCost, h1.Stats.PlansBuilt, h1.Stats.TablePlans, b1.Plan, h1.Plan)
			}
		}
		opt := optimize(t, q, AlgEAPrune, 0).Plan.Cost
		prev := math.Inf(1)
		for _, k := range []int{1, 4, 16, 64} {
			res, err := Optimize(q, Options{Algorithm: AlgBeam, BeamWidth: k})
			if err != nil {
				t.Fatal(err)
			}
			if res.Plan.Cost < opt*(1-1e-9) {
				t.Fatalf("trial %d: beam(%d) %.6g beats the optimum %.6g", trial, k, res.Plan.Cost, opt)
			}
			checkWellFormed(t, q, res.Plan, true)
			if k == 64 && res.Plan.Cost < prev*(1-1e-9) {
				betterThanH1++
			}
			prev = res.Plan.Cost
		}
	}
	// Wider beams must help on at least some queries, otherwise the dial
	// is useless.
	if betterThanH1 == 0 {
		t.Log("note: beam width made no difference on this sample")
	}
}

// TestBeamDefaultWidth: a zero width falls back to the default instead of
// erroring.
func TestBeamDefaultWidth(t *testing.T) {
	q := motivatingQuery()
	res, err := Optimize(q, Options{Algorithm: AlgBeam})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan == nil {
		t.Fatal("no plan")
	}
}
