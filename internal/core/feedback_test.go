package core_test

import (
	"math/rand"
	"testing"

	"eagg/internal/core"
	"eagg/internal/engine"
	"eagg/internal/randquery"
)

// TestEAPruneUnderMeasuredCards re-optimizes random queries under the
// cardinalities measured by one execution of EA-All's plan and requires
// EA-Prune to find a plan of EA-All's rank in both physical modes. Under
// an overlay an operator's cardinality is looked up by (relation set,
// GroupsBelow), so dominance between plans with different GroupsBelow
// would drop the optimum's subplans (or every plan of the complete set).
func TestEAPruneUnderMeasuredCards(t *testing.T) {
	const tol = 1e-9
	rng := rand.New(rand.NewSource(413))
	checked := 0
	for i := 0; i < 50; i++ {
		q := randquery.Generate(rng, randquery.Params{Relations: 2 + i%6})
		data := engine.RandomData(rng, q, 1+i%12).Tables()
		all, err := core.Optimize(q, core.Options{Algorithm: core.AlgEAAll, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		_, stats, err := engine.ExecProfiledOpts(q, all.Plan, data, engine.ExecOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		overlay := stats.Profile()
		for _, phys := range []core.PhysMode{core.PhysModeHash, core.PhysModeSort} {
			want, err := core.Optimize(q, core.Options{Algorithm: core.AlgEAAll, Workers: 1, Phys: phys, Stats: overlay})
			if err != nil {
				t.Fatalf("query %d n=%d %v: EA-All: %v", i, len(q.Relations), phys, err)
			}
			got, err := core.Optimize(q, core.Options{Algorithm: core.AlgEAPrune, Workers: 1, Phys: phys, Stats: overlay})
			if err != nil {
				t.Errorf("query %d n=%d %v: EA-Prune: %v", i, len(q.Relations), phys, err)
				continue
			}
			if w, g := rank(want.Plan, phys), rank(got.Plan, phys); g > w*(1+tol) || g < w*(1-tol) {
				t.Errorf("query %d n=%d %v: EA-Prune ranks %.17g, EA-All %.17g", i, len(q.Relations), phys, g, w)
			}
			checked++
		}
	}
	if checked != 100 {
		t.Fatalf("checked %d optimizations, want 100", checked)
	}
}
