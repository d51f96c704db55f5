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

// TestPhysParallelDeterminism extends the parallel-driver contract to
// the sort physical mode: plan-class retention, physical costs and
// order inference are pure functions of the query, so Workers: 8 must
// return bit-identical plans (including every physical annotation, which
// plan.Equal compares) and identical search counters.
func TestPhysParallelDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(5150))
	for n := 3; n <= 7; n++ {
		for trial := 0; trial < 4; trial++ {
			q := randquery.Generate(rng, randquery.Params{Relations: n})
			for _, alg := range []core.Algorithm{core.AlgH1, core.AlgEAPrune, core.AlgBeam} {
				if alg == core.AlgEAPrune && n > 5 {
					continue // the sort-mode EA search space grows fast; H1/Beam cover the larger graphs
				}
				seq, err := core.Optimize(q, core.Options{Algorithm: alg, Phys: core.PhysModeSort, Workers: 1})
				if err != nil {
					t.Fatalf("n=%d trial=%d %v sequential: %v", n, trial, alg, err)
				}
				par, err := core.Optimize(q, core.Options{Algorithm: alg, Phys: core.PhysModeSort, Workers: 8})
				if err != nil {
					t.Fatalf("n=%d trial=%d %v parallel: %v", n, trial, alg, err)
				}
				if !plan.Equal(seq.Plan, par.Plan) {
					t.Fatalf("n=%d trial=%d %v: parallel plan differs\nsequential:\n%v\nparallel:\n%v",
						n, trial, alg, seq.Plan, par.Plan)
				}
				if seq.Stats.PlansBuilt != par.Stats.PlansBuilt ||
					seq.Stats.TablePlans != par.Stats.TablePlans {
					t.Fatalf("n=%d trial=%d %v: search counters differ (%+v vs %+v)",
						n, trial, alg, seq.Stats, par.Stats)
				}
			}
		}
	}
}

// TestPhysHashModeUnchanged pins that the default mode is untouched by
// the sort-based layer: a run with Phys unset produces plans carrying no
// physical annotations at all, bit-identical to what an explicit
// PhysModeHash run returns.
func TestPhysHashModeUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 10; trial++ {
		q := randquery.Generate(rng, randquery.Params{Relations: 3 + trial%4})
		def, err := core.Optimize(q, core.Options{Algorithm: core.AlgEAPrune})
		if err != nil {
			t.Fatal(err)
		}
		explicit, err := core.Optimize(q, core.Options{Algorithm: core.AlgEAPrune, Phys: core.PhysModeHash})
		if err != nil {
			t.Fatal(err)
		}
		if !plan.Equal(def.Plan, explicit.Plan) {
			t.Fatal("explicit PhysModeHash differs from the default")
		}
		var walk func(p *plan.Plan)
		walk = func(p *plan.Plan) {
			if p == nil {
				return
			}
			if p.Phys != plan.PhysHash || p.Ord != nil || p.PhysCost != 0 || p.SortL || p.SortR {
				t.Fatalf("default-mode plan carries physical annotations: %+v", p)
			}
			walk(p.Left)
			walk(p.Right)
		}
		walk(def.Plan)
	}
}

// TestPhysCostAccounting pins the overhead model on plans whose shape is
// known: in the sort mode PhysCost is C_out plus the physical overheads,
// and eliminated sorts are the only free reorganizations. The TPC-H
// example's full outer join has no sort-based form, so its plan mixes a
// hash node with sort nodes, and both kinds' overheads are accounted.
func TestPhysCostAccounting(t *testing.T) {
	qs := []*query.Query{tpch.Queries()["Ex"]}
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		qs = append(qs, randquery.Generate(rng, randquery.Params{Relations: 3 + trial%3}))
	}
	for i, q := range qs {
		res, err := core.Optimize(q, core.Options{Algorithm: core.AlgH1, Phys: core.PhysModeSort})
		if err != nil {
			t.Fatal(err)
		}
		kinds := map[plan.PhysKind]int{}
		var overhead func(p *plan.Plan) float64
		overhead = func(p *plan.Plan) float64 {
			if p == nil {
				return 0
			}
			o := overhead(p.Left) + overhead(p.Right)
			if p.Kind == plan.NodeOp || p.Kind == plan.NodeGroup {
				kinds[p.Phys]++
			}
			switch {
			case p.Kind == plan.NodeOp && p.Phys == plan.PhysHash:
				o += p.Left.Card + p.Right.Card
			case p.Kind == plan.NodeOp && p.Phys == plan.PhysSortMerge:
				if p.SortL {
					o += p.Left.Card
				}
				if p.SortR {
					o += p.Right.Card
				}
			case p.Kind == plan.NodeGroup && p.Phys == plan.PhysHash:
				o += p.Left.Card
			case p.Kind == plan.NodeGroup && p.Phys == plan.PhysSortMerge && p.SortL:
				o += p.Left.Card
			}
			return o
		}
		want := res.Plan.Cost + overhead(res.Plan)
		if diff := want - res.Plan.PhysCost; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("query %d: PhysCost %.6g != C_out %.6g + overheads %.6g\n%v",
				i, res.Plan.PhysCost, res.Plan.Cost, overhead(res.Plan), res.Plan)
		}
		if i == 0 && (kinds[plan.PhysHash] == 0 || kinds[plan.PhysSortMerge] == 0) {
			t.Fatalf("Ex plan does not mix hash and sort nodes (%v):\n%v", kinds, res.Plan)
		}
	}
}

// TestSortHeuristicsBounded: in the sort mode H1 and H2 keep one plan per
// (relation set, order) class, so they stay cheaper to run than the exact
// search — each must build no more plans than sort-mode EA-Prune, counting
// the H1 pass that bounds EA-Prune's search among EA-Prune's plans. The
// population is every random query of seeds 1…300 at n = 4 + seed%9 with
// at most 200 csg-cmp-pairs (277 queries), plus seed 25 at n = 12 and 14,
// on which a class keyed on the collapse state as well built 1.8M plans.
// The first violation fails the test, before any larger query runs.
func TestSortHeuristicsBounded(t *testing.T) {
	type draw struct {
		seed int64
		n    int
	}
	var draws []draw
	for seed := int64(1); seed <= 300; seed++ {
		draws = append(draws, draw{seed, 4 + int(seed%9)})
	}
	draws = append(draws, draw{25, 12}, draw{25, 14})
	optimize := func(q *query.Query, o core.Options) *core.Result {
		t.Helper()
		o.Workers = 1
		res, err := core.Optimize(q, o)
		if err != nil {
			t.Fatalf("%v/%v: %v", o.Algorithm, o.Phys, err)
		}
		return res
	}
	checked := 0
	total := map[core.Algorithm]int{}
	for _, d := range draws {
		q := randquery.Generate(rand.New(rand.NewSource(d.seed)), randquery.Params{Relations: d.n})
		if optimize(q, core.Options{Algorithm: core.AlgDPhyp}).Stats.CsgCmpPairs > 200 {
			continue
		}
		checked++
		stats := optimize(q, core.Options{Algorithm: core.AlgEAPrune, Phys: core.PhysModeSort}).Stats
		bound := stats.PlansBuilt + stats.BoundPlansBuilt
		total[core.AlgEAPrune] += bound
		for _, o := range []core.Options{{Algorithm: core.AlgH1}, {Algorithm: core.AlgH2, F: 1.03}} {
			o.Phys = core.PhysModeSort
			built := optimize(q, o).Stats.PlansBuilt
			if built > bound {
				t.Fatalf("seed %d n=%d: sort-mode %v built %d plans, sort-mode EA-Prune %d", d.seed, d.n, o.Algorithm, built, bound)
			}
			total[o.Algorithm] += built
		}
	}
	t.Logf("%d queries; plans built: H1 %d, H2 %d, EA-Prune %d", checked, total[core.AlgH1], total[core.AlgH2], total[core.AlgEAPrune])
}
