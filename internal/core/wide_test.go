package core_test

import (
	"math/rand"
	"testing"

	"eagg/internal/core"
	"eagg/internal/plan"
	"eagg/internal/query"
	"eagg/internal/randquery"
	"eagg/internal/tpch"
)

// TestWideDifferentialFastPath is the seam contract of the set
// representation: for every query the Set64 fast path handles, running
// it on the wide path (bitset.VSet, through core.OptimizeWide) must
// reproduce the fast-path plan bit for bit — structure, cardinalities,
// costs, keys — with identical search-effort counters. The workload
// covers the TPC-H shapes plus random queries from 2 relations up, every
// algorithm family that remains enabled at scale (H2 at F = 1.03), and
// DPhyp/EA-Prune as the exact references.
func TestWideDifferentialFastPath(t *testing.T) {
	type algCfg struct {
		alg  core.Algorithm
		f    float64
		maxN int
	}
	algs := []algCfg{
		{core.AlgDPhyp, 0, 10},
		{core.AlgEAPrune, 0, 8},
		{core.AlgH1, 0, 10},
		{core.AlgH2, 1.03, 10},
		{core.AlgBeam, 0, 10},
	}
	check := func(t *testing.T, label string, q *query.Query, c algCfg) {
		t.Helper()
		fast, err := core.Optimize(q, core.Options{Algorithm: c.alg, F: c.f})
		if err != nil {
			t.Fatalf("%s %v fast: %v", label, c.alg, err)
		}
		wide, err := core.OptimizeWide(q, core.Options{Algorithm: c.alg, F: c.f})
		if err != nil {
			t.Fatalf("%s %v wide: %v", label, c.alg, err)
		}
		if !plan.Equal(fast.Plan, wide.Plan) {
			t.Fatalf("%s %v: wide plan differs from fast path\nfast (cost %.17g):\n%v\nwide (cost %.17g):\n%v",
				label, c.alg, fast.Plan.Cost, fast.Plan, wide.Plan.Cost, wide.Plan)
		}
		if fast.Stats.PlansBuilt != wide.Stats.PlansBuilt ||
			fast.Stats.TablePlans != wide.Stats.TablePlans ||
			fast.Stats.CsgCmpPairs != wide.Stats.CsgCmpPairs {
			t.Fatalf("%s %v: stats diverged: fast %+v wide %+v", label, c.alg, fast.Stats, wide.Stats)
		}
		if wide.Stats.PairBudgetExceeded {
			t.Fatalf("%s %v: the wide path on a small query must keep the unlimited default budget", label, c.alg)
		}
	}

	for name, q := range tpch.Queries() {
		for _, c := range algs {
			check(t, "tpch/"+name, q, c)
		}
	}
	rng := rand.New(rand.NewSource(8163))
	queries := 0
	for n := 2; n <= 10; n++ {
		for trial := 0; trial < 3; trial++ {
			q := randquery.Generate(rng, randquery.Params{Relations: n})
			queries++
			for _, c := range algs {
				if n > c.maxN {
					continue
				}
				check(t, "rand", q, c)
			}
		}
	}
	if queries < 20 {
		t.Fatalf("workload too small: %d queries", queries)
	}
}

// TestWideParallelDeterminism100 extends the workers-invariance contract
// past the 63-relation fast path. The 100-relation chain enumerates
// exactly (its pair count is quadratic), so Workers: 8 runs the real
// sharded parallel DP on the wide representation and must reproduce the
// sequential plan bit for bit. The 100-relation clique covers the
// hyperedge enumeration route the same way. The 100-relation star
// exceeds any practical budget: both worker counts must agree because
// the greedy fallback is sequential by contract — the Stats must say so.
func TestWideParallelDeterminism100(t *testing.T) {
	t.Run("chain100-exact", func(t *testing.T) {
		q := randquery.Chain(100)
		seq, err := core.Optimize(q, core.Options{Algorithm: core.AlgH1, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if seq.Stats.PairBudgetExceeded {
			t.Fatal("chain100 must enumerate exactly under the default budget")
		}
		if want := 100 * 99 * 101 / 6; seq.Stats.CsgCmpPairs != want {
			// n(n-1)(n+1)/6 csg-cmp-pairs for an n-chain: intervals ×
			// split points, both orientations deduplicated.
			t.Fatalf("chain100: %d pairs, want %d", seq.Stats.CsgCmpPairs, want)
		}
		par, err := core.Optimize(q, core.Options{Algorithm: core.AlgH1, Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		if par.Stats.Workers != 8 {
			t.Fatalf("parallel run reported %d workers", par.Stats.Workers)
		}
		if !plan.Equal(seq.Plan, par.Plan) {
			t.Fatalf("chain100: parallel plan differs\nsequential (cost %.17g):\n%v\nparallel (cost %.17g):\n%v",
				seq.Plan.Cost, seq.Plan, par.Plan.Cost, par.Plan)
		}
		if seq.Stats.PlansBuilt != par.Stats.PlansBuilt || seq.Stats.CsgCmpPairs != par.Stats.CsgCmpPairs {
			t.Fatalf("chain100: stats diverged: sequential %+v parallel %+v", seq.Stats, par.Stats)
		}
	})

	t.Run("clique100-exact", func(t *testing.T) {
		q := randquery.Clique(100)
		seq, err := core.Optimize(q, core.Options{Algorithm: core.AlgH1, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if seq.Stats.PairBudgetExceeded {
			t.Fatal("clique100 must enumerate exactly (one buildable set per level)")
		}
		par, err := core.Optimize(q, core.Options{Algorithm: core.AlgH1, Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		if !plan.Equal(seq.Plan, par.Plan) {
			t.Fatalf("clique100: parallel plan differs\nsequential:\n%v\nparallel:\n%v", seq.Plan, par.Plan)
		}
	})

	t.Run("star100-fallback", func(t *testing.T) {
		q := randquery.Star(100)
		seq, err := core.Optimize(q, core.Options{Algorithm: core.AlgH1, Workers: 1, PairBudget: 2000})
		if err != nil {
			t.Fatal(err)
		}
		if !seq.Stats.PairBudgetExceeded {
			t.Fatal("star100 must exceed a 2000-pair budget")
		}
		par, err := core.Optimize(q, core.Options{Algorithm: core.AlgH1, Workers: 8, PairBudget: 2000})
		if err != nil {
			t.Fatal(err)
		}
		if par.Stats.Workers != 1 {
			t.Fatalf("greedy fallback must report sequential execution, got %d workers", par.Stats.Workers)
		}
		if !plan.Equal(seq.Plan, par.Plan) {
			t.Fatalf("star100: fallback plans differ across worker counts\nworkers 1:\n%v\nworkers 8:\n%v",
				seq.Plan, par.Plan)
		}
	})
}
