package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"eagg/internal/core"
	"eagg/internal/plan"
	"eagg/internal/query"
	"eagg/internal/randquery"
)

// rank is what the generators minimize: C_out in the hash mode, PhysCost in
// the sort mode.
func rank(p *plan.Plan, phys core.PhysMode) float64 {
	if phys == core.PhysModeSort {
		return p.PhysCost
	}
	return p.Cost
}

// TestBoundMatchesUnbounded: the H1 pass that bounds EA-Prune changes no
// plan. On random queries (seed 77, n = 4…13) in both physical modes at
// Workers 1 and 2 — every level through the pool — bounded EA-Prune returns
// the plan of the unbounded search, plan.Equal, and that plan ranks no
// higher than H1's. Every DP worker reads the bound, so the race lane runs
// this test too.
func TestBoundMatchesUnbounded(t *testing.T) {
	count := 400
	switch {
	case core.RaceEnabled:
		count = 30
	case testing.Short():
		count = 60
	}
	rng := rand.New(rand.NewSource(77))
	retained, unretained := 0, 0
	for i := 0; i < count; i++ {
		q := randquery.Generate(rng, randquery.Params{Relations: 4 + i%10})
		for _, phys := range []core.PhysMode{core.PhysModeHash, core.PhysModeSort} {
			for _, workers := range []int{1, 2} {
				opts := core.Options{Algorithm: core.AlgEAPrune, Phys: phys, Workers: workers}
				bounded, err := core.OptimizeBounded(q, opts, true)
				if err != nil {
					t.Fatal(err)
				}
				unbounded, err := core.OptimizeBounded(q, opts, false)
				if err != nil {
					t.Fatal(err)
				}
				h1, err := core.Optimize(q, core.Options{Algorithm: core.AlgH1, Phys: phys, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if !plan.Equal(bounded.Plan, unbounded.Plan) {
					t.Fatalf("query %d (n=%d, %v, workers %d): the bound changes the plan\nbounded:\n%v\nunbounded:\n%v",
						i, len(q.Relations), phys, workers, bounded.Plan, unbounded.Plan)
				}
				if rank(bounded.Plan, phys) > rank(h1.Plan, phys) {
					t.Fatalf("query %d (n=%d, %v, workers %d): EA-Prune ranks %v, above H1's %v",
						i, len(q.Relations), phys, workers, rank(bounded.Plan, phys), rank(h1.Plan, phys))
				}
				retained += bounded.Stats.TablePlans
				unretained += unbounded.Stats.TablePlans
			}
		}
	}
	t.Logf("%d optimizations: %d plans retained with the bound, %d without", 4*count, retained, unretained)
}

// TestIncumbentBoundExact: skipping the trees and pairs whose inputs already
// rank too high to enter their entry changes no plan and no retained set,
// only the work. On random queries (seed 78, n = 4…13) in both physical
// modes at Workers 1 and 2 — every level through the pool — every
// generator returns with the bound the plan it returns without it,
// plan.Equal, at the same cost, physical cost and table size, and builds
// no more trees. The trees it leaves out are the ones it counts as skipped,
// unless it skipped whole pairs. EA-All runs up to n = 8, where its table
// stays small. Every DP worker reads its entries' incumbents, so the race
// lane runs this test too.
func TestIncumbentBoundExact(t *testing.T) {
	count := 100
	switch {
	case core.RaceEnabled:
		count = 10
	case testing.Short():
		count = 20
	}
	gens := []core.Options{
		{Algorithm: core.AlgDPhyp}, {Algorithm: core.AlgH1},
		{Algorithm: core.AlgH2, F: 1.03}, {Algorithm: core.AlgH2, F: 0.97},
		{Algorithm: core.AlgBeam, BeamWidth: 4}, {Algorithm: core.AlgEAAll}, {Algorithm: core.AlgEAPrune},
	}
	rng := rand.New(rand.NewSource(78))
	builtOn, builtOff := 0, 0
	for i := 0; i < count; i++ {
		q := randquery.Generate(rng, randquery.Params{Relations: 4 + i%10})
		for _, o := range gens {
			if o.Algorithm == core.AlgEAAll && len(q.Relations) > 8 {
				continue
			}
			for _, phys := range []core.PhysMode{core.PhysModeHash, core.PhysModeSort} {
				for _, workers := range []int{1, 2} {
					o.Phys, o.Workers = phys, workers
					on, err := core.OptimizeIncumbent(q, o, true)
					if err != nil {
						t.Fatal(err)
					}
					off, err := core.OptimizeIncumbent(q, o, false)
					if err != nil {
						t.Fatal(err)
					}
					cell := fmt.Sprintf("query %d (n=%d, %v F=%v, %v, workers %d)", i, len(q.Relations), o.Algorithm, o.F, phys, workers)
					if !plan.Equal(on.Plan, off.Plan) {
						t.Fatalf("%s: the incumbent bound changes the plan\nwith:\n%v\nwithout:\n%v", cell, on.Plan, off.Plan)
					}
					if on.Plan.Cost != off.Plan.Cost || on.Plan.PhysCost != off.Plan.PhysCost || on.Stats.TablePlans != off.Stats.TablePlans {
						t.Fatalf("%s: cost %v/%v, phys %v/%v, retained %d/%d with/without the bound", cell,
							on.Plan.Cost, off.Plan.Cost, on.Plan.PhysCost, off.Plan.PhysCost, on.Stats.TablePlans, off.Stats.TablePlans)
					}
					considered, reference := on.Stats.PlansBuilt+on.Stats.SkippedTrees, off.Stats.PlansBuilt+off.Stats.SkippedTrees
					if on.Stats.PlansBuilt > off.Stats.PlansBuilt || considered > reference ||
						on.Stats.SkippedPairs == 0 && considered != reference || off.Stats.SkippedPairs != 0 {
						t.Fatalf("%s: built %d, skipped %d trees and %d pairs with the bound; built %d, skipped %d trees and %d pairs without", cell,
							on.Stats.PlansBuilt, on.Stats.SkippedTrees, on.Stats.SkippedPairs, off.Stats.PlansBuilt, off.Stats.SkippedTrees, off.Stats.SkippedPairs)
					}
					builtOn += on.Stats.PlansBuilt
					builtOff += off.Stats.PlansBuilt
				}
			}
		}
	}
	t.Logf("%d queries: %d trees built with the incumbent bound, %d without", count, builtOn, builtOff)
}

// TestOptimalityAtTen carries the root package's TestOptimalityInvariants
// (seeds 1…20 at n ≤ 8, against unbounded EA-All) on to n = 9 and 10 for
// the same seeds, within the same 60-pair budget: EA-All ≤ every generator,
// and EA-Prune = EA-All. The oracle is EA-All bounded by H1's plan: it
// keeps every plan that ranks at most as high as H1's, so its optimum is
// EA-All's, and it stays small enough to run here. The bound trusts H1's
// plan, so it cannot be its own oracle: unbounded EA-All remains the check
// at n ≤ 8.
func TestOptimalityAtTen(t *testing.T) {
	if testing.Short() {
		t.Skip("EA-All at n = 10")
	}
	const pairBudget, tol = 60, 1e-9
	gens := []core.Options{
		{Algorithm: core.AlgDPhyp}, {Algorithm: core.AlgH1}, {Algorithm: core.AlgH2, F: 1.03}, {Algorithm: core.AlgEAPrune},
	}
	checked, skipped := 0, 0
	for seed := 1; seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		for n := 2; n <= 10; n++ {
			for index := 0; index < 10; index++ {
				q := randquery.Generate(rng, randquery.Params{Relations: n})
				if n < 9 {
					continue // TestOptimalityInvariants' queries
				}
				for _, phys := range []core.PhysMode{core.PhysModeHash, core.PhysModeSort} {
					ranks := make([]float64, len(gens))
					pairs := 0
					for i, o := range gens {
						o.Phys = phys
						res, err := core.Optimize(q, o)
						if err != nil {
							t.Fatal(err)
						}
						ranks[i], pairs = rank(res.Plan, phys), res.Stats.CsgCmpPairs
					}
					if pairs > pairBudget {
						skipped++
						continue
					}
					checked++
					all, err := core.OptimizeBounded(q, core.Options{Algorithm: core.AlgEAAll, Phys: phys}, true)
					if err != nil {
						t.Fatal(err)
					}
					opt := rank(all.Plan, phys)
					for i, o := range gens {
						if ranks[i] < opt*(1-tol) || o.Algorithm == core.AlgEAPrune && ranks[i] > opt*(1+tol) {
							t.Errorf("seed %d n=%d #%d: %v/%v ranks %.17g, bounded EA-All %.17g", seed, n, index, o.Algorithm, phys, ranks[i], opt)
						}
					}
				}
			}
		}
	}
	t.Logf("%d (query, mode) cells checked against bounded EA-All, %d skipped over %d csg-cmp-pairs", checked, skipped, pairBudget)
}

// BenchmarkEAPruneBound times EA-Prune at Workers 1 on the cells of the
// optimize_cold population where its dominance pruning does the most work
// — rand14.2, rand14.6 and rand16.5, redrawn from that benchmark's
// population seed in its order, and star12 — with the H1 bound
// (bounded=true, what Optimize runs) and without it (bounded=false, the
// paper's algorithm, which no benchmark workload runs).
func BenchmarkEAPruneBound(b *testing.B) {
	cells := []struct {
		name string
		q    *query.Query
	}{{"rand14.2", nil}, {"rand14.6", nil}, {"rand16.5", nil}, {"star12", randquery.Star(12)}}
	rng := rand.New(rand.NewSource(1)) // bench/optimize.go: populationSeed
	for n := 6; n <= 16; n += 2 {
		for i := 0; i < 10; i++ {
			q := randquery.Generate(rng, randquery.Params{Relations: n})
			for k := range cells {
				if cells[k].name == fmt.Sprintf("rand%d.%d", n, i) {
					cells[k].q = q
				}
			}
		}
	}
	for _, c := range cells {
		for _, bounded := range []bool{true, false} {
			b.Run(fmt.Sprintf("%s/bounded=%v", c.name, bounded), func(b *testing.B) {
				built := 0
				for i := 0; i < b.N; i++ {
					res, err := core.OptimizeBounded(c.q, core.Options{Algorithm: core.AlgEAPrune, Workers: 1}, bounded)
					if err != nil {
						b.Fatal(err)
					}
					built = res.Stats.PlansBuilt
				}
				b.ReportMetric(float64(built), "built")
			})
		}
	}
}
