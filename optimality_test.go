package eagg_test

import (
	"fmt"
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

// gap names one query of the invariant population in one physical mode:
// the rand.NewSource seed, the relation count, and the index among the
// queries drawn at that count.
type gap struct {
	seed, n, index int
	phys           eagg.PhysMode
}

// knownSuboptimal lists the queries on which EA-Prune's plan costs more
// than EA-All's optimum. The paper has none (Sec. 4.6: dominance pruning
// preserves optimality), and since the outer-join estimate counts padded
// tuples against the other side's canonical cardinality neither do we.
// The table is exact: a change that prunes more than it should grows it.
var knownSuboptimal = map[gap]bool{}

// physModes are the physical modes the optimality properties hold in.
var physModes = []eagg.PhysMode{eagg.PhysHash, eagg.PhysSort}

// rank is the cost the generators minimize in a physical mode: C_out in
// the hash mode, PhysCost in the sort mode.
func rank(p *eagg.Plan, phys eagg.PhysMode) float64 {
	if phys == eagg.PhysSort {
		return p.PhysCost
	}
	return p.Cost
}

// checkAgainstEAAll optimizes q in the physical mode phys with every
// generator of gens and, if q has at most optimalityPairBudget csg-cmp-
// pairs, with EA-All. A generator whose plan ranks below EA-All's is an
// error. It returns whether q was checked and whether EA-Prune's plan
// ranks above EA-All's optimum.
func checkAgainstEAAll(t *testing.T, label string, q *eagg.Query, phys eagg.PhysMode, gens []eagg.Options) (checked, missed bool) {
	t.Helper()
	ranks := make([]float64, len(gens))
	pairs := 0
	for i, o := range gens {
		o.Phys = phys
		res, err := eagg.Optimize(q, o)
		if err != nil {
			t.Fatalf("%s %v/%v: %v", label, o.Algorithm, phys, err)
		}
		ranks[i], pairs = rank(res.Plan, phys), res.Stats.CsgCmpPairs
	}
	if pairs > optimalityPairBudget {
		return false, false
	}
	all, err := eagg.Optimize(q, eagg.Options{Algorithm: eagg.EAAll, Phys: phys})
	if err != nil {
		t.Fatalf("%s EA-All/%v: %v", label, phys, err)
	}
	opt := rank(all.Plan, phys)
	for i, o := range gens {
		if ranks[i] < opt*(1-optimalityTol) {
			t.Errorf("%s: %v/%v cost %.17g is below EA-All's %.17g", label, o.Algorithm, phys, ranks[i], opt)
		}
		if o.Algorithm == eagg.EAPrune && ranks[i] > opt*(1+optimalityTol) {
			missed = true
		}
	}
	return true, missed
}

// TestOptimalityInvariants checks the quality ordering of the generators
// on seeds 1…20 of the Sec. 5 random-query construction at n ≤ 8, in both
// physical modes: EA-All ≤ every generator, EA-Prune ≥ EA-All, and
// EA-Prune = EA-All except on exactly the queries of knownSuboptimal.
func TestOptimalityInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("1,400 queries through five generators in two modes")
	}
	gens := []eagg.Options{
		{Algorithm: eagg.DPhyp}, {Algorithm: eagg.H1}, {Algorithm: eagg.H2, F: 1.03}, {Algorithm: eagg.EAPrune},
	}
	checked, skipped := 0, 0
	found := map[gap]bool{}
	for seed := 1; seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		for n := 2; n <= 8; n++ {
			for index := 0; index < 10; index++ {
				q := randquery.Generate(rng, randquery.Params{Relations: n})
				label := fmt.Sprintf("seed %d n=%d #%d", seed, n, index)
				for _, phys := range physModes {
					ok, missed := checkAgainstEAAll(t, label, q, phys, gens)
					if !ok {
						skipped++
						continue
					}
					checked++
					if missed {
						found[gap{seed, n, index, phys}] = true
					}
				}
			}
		}
	}
	t.Logf("%d (query, mode) cells checked against EA-All, %d skipped over %d csg-cmp-pairs", checked, skipped, optimalityPairBudget)
	if len(found) != len(knownSuboptimal) {
		t.Errorf("EA-Prune misses the optimum on %d cells, knownSuboptimal lists %d", len(found), len(knownSuboptimal))
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
// complete search's pair budget, in either physical mode, EA-All's plan
// costs no more than any generator's, and EA-Prune's costs exactly as much
// (Sec. 4.6). The cost is C_out in the hash mode and PhysCost in the sort
// mode.
func FuzzPlanOptimality(f *testing.F) {
	for seed := int64(1); seed <= 6; seed++ {
		f.Add(seed, uint8(seed))
	}
	gens := []eagg.Options{
		{Algorithm: eagg.DPhyp}, {Algorithm: eagg.H1}, {Algorithm: eagg.H2, F: 1.03},
		{Algorithm: eagg.Beam}, {Algorithm: eagg.EAPrune},
	}
	f.Fuzz(func(t *testing.T, seed int64, nRel uint8) {
		n := 2 + int(nRel)%6
		q := randquery.Generate(rand.New(rand.NewSource(seed)), randquery.Params{Relations: n})
		for _, phys := range physModes {
			if _, missed := checkAgainstEAAll(t, fmt.Sprintf("seed %d n=%d", seed, n), q, phys, gens); missed {
				t.Errorf("seed %d n=%d: EA-Prune/%v misses EA-All's optimum", seed, n, phys)
			}
		}
	})
}
