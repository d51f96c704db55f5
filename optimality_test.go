package eagg_test

import (
	"math/rand"
	"testing"

	"eagg"
	"eagg/internal/randquery"
)

// optimalityPairBudget bounds the complete EA-All search by csg-cmp-pair
// count: the construction's tail (a dense 8-relation query takes EA-All
// 15 s and 2 GB) is skipped by a property of the query, the same 85 of
// the 1,400 queries on every machine.
const optimalityPairBudget = 60

// optimalityTol is the relative cost difference below which two plans
// count as equally cheap: costs summed in a different order may differ in
// the last bits.
const optimalityTol = 1e-9

// gap names one query of the invariant population: the rand.NewSource
// seed, the relation count, and the index among the queries drawn at that
// count.
type gap struct{ seed, n, index int }

// knownSuboptimal lists the queries on which EA-Prune's plan costs more
// than EA-All's optimum. The paper has none (Sec. 4.6: dominance pruning
// preserves optimality), and since the outer-join estimate counts padded
// tuples against the other side's canonical cardinality neither do we.
// The table is exact: a change that prunes more than it should grows it.
var knownSuboptimal = map[gap]bool{}

// TestOptimalityInvariants checks the quality ordering of the generators
// on seeds 1…20 of the Sec. 5 random-query construction at n ≤ 8:
// EA-All ≤ every generator, EA-Prune ≥ EA-All, and EA-Prune = EA-All
// except on exactly the queries of knownSuboptimal.
func TestOptimalityInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("1,400 queries through five generators")
	}
	const tol = optimalityTol
	checked, skipped := 0, 0
	found := map[gap]bool{}
	for seed := 1; seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		for n := 2; n <= 8; n++ {
			for index := 0; index < 10; index++ {
				q := randquery.Generate(rng, randquery.Params{Relations: n})
				cost := map[eagg.Algorithm]float64{}
				pairs := 0
				for _, o := range []eagg.Options{
					{Algorithm: eagg.DPhyp}, {Algorithm: eagg.H1}, {Algorithm: eagg.H2, F: 1.03}, {Algorithm: eagg.EAPrune},
				} {
					res, err := eagg.Optimize(q, o)
					if err != nil {
						t.Fatalf("seed %d n=%d #%d %v: %v", seed, n, index, o.Algorithm, err)
					}
					cost[o.Algorithm] = res.Plan.Cost
					pairs = res.Stats.CsgCmpPairs
				}
				if pairs > optimalityPairBudget {
					skipped++
					continue
				}
				checked++
				all, err := eagg.Optimize(q, eagg.Options{Algorithm: eagg.EAAll})
				if err != nil {
					t.Fatalf("seed %d n=%d #%d EA-All: %v", seed, n, index, err)
				}
				opt := all.Plan.Cost
				for alg, c := range cost {
					if c < opt*(1-tol) {
						t.Errorf("seed %d n=%d #%d: %v cost %.17g is below EA-All's %.17g", seed, n, index, alg, c, opt)
					}
				}
				if cost[eagg.EAPrune] > opt*(1+tol) {
					found[gap{seed, n, index}] = true
				}
			}
		}
	}
	t.Logf("%d queries checked against EA-All, %d skipped over %d csg-cmp-pairs", checked, skipped, optimalityPairBudget)
	if len(found) != len(knownSuboptimal) {
		t.Errorf("EA-Prune misses the optimum on %d queries, knownSuboptimal lists %d", len(found), len(knownSuboptimal))
	}
	for g := range found {
		if !knownSuboptimal[g] {
			t.Errorf("new gap: EA-Prune misses EA-All's optimum on %+v", g)
		}
	}
	for g := range knownSuboptimal {
		if !found[g] {
			t.Errorf("gap closed: EA-Prune now matches EA-All on %+v — remove it from knownSuboptimal", g)
		}
	}
}

// FuzzPlanOptimality searches the property TestOptimalityInvariants checks
// on a fixed sample: on a random query of 2…7 relations within the
// complete search's pair budget, EA-All's plan costs no more than any
// generator's, and EA-Prune's costs exactly as much (Sec. 4.6).
func FuzzPlanOptimality(f *testing.F) {
	for seed := int64(1); seed <= 6; seed++ {
		f.Add(seed, uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, nRel uint8) {
		n := 2 + int(nRel)%6
		q := randquery.Generate(rand.New(rand.NewSource(seed)), randquery.Params{Relations: n})
		all, err := eagg.Optimize(q, eagg.Options{Algorithm: eagg.DPhyp})
		if err != nil {
			t.Fatal(err)
		}
		if all.Stats.CsgCmpPairs > optimalityPairBudget {
			return
		}
		if all, err = eagg.Optimize(q, eagg.Options{Algorithm: eagg.EAAll}); err != nil {
			t.Fatal(err)
		}
		opt := all.Plan.Cost
		for _, o := range []eagg.Options{
			{Algorithm: eagg.DPhyp}, {Algorithm: eagg.H1}, {Algorithm: eagg.H2, F: 1.03},
			{Algorithm: eagg.Beam}, {Algorithm: eagg.EAPrune},
		} {
			res, err := eagg.Optimize(q, o)
			if err != nil {
				t.Fatalf("%v: %v", o.Algorithm, err)
			}
			if c := res.Plan.Cost; c < opt*(1-optimalityTol) {
				t.Errorf("%v cost %.17g is below EA-All's %.17g", o.Algorithm, c, opt)
			} else if o.Algorithm == eagg.EAPrune && c > opt*(1+optimalityTol) {
				t.Errorf("EA-Prune cost %.17g misses EA-All's optimum %.17g", c, opt)
			}
		}
	})
}
