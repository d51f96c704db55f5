package eagg_test

import (
	"fmt"
	"math/rand"
	"testing"

	"eagg"
	"eagg/internal/engine"
)

// buildStarQuery assembles the doc-comment example through the facade.
func buildStarQuery() (*eagg.Query, int) {
	q := eagg.NewQuery()
	fact := q.AddRelation("fact", 1_000_000)
	dim := q.AddRelation("dim", 100)
	fk := q.AddAttr(fact, "fact.fk", 100)
	g := q.AddAttr(fact, "fact.g", 10)
	q.AddAttr(fact, "fact.v", 500_000)
	pk := q.AddAttr(dim, "dim.pk", 100)
	q.AddKey(dim, pk)
	q.Root = eagg.Join(eagg.InnerJoin, eagg.Scan(fact), eagg.Scan(dim), fk, pk, 1.0/100)
	q.SetGrouping([]int{g}, eagg.Aggregates(
		eagg.Count("cnt"), eagg.Sum("total", "fact.v")))
	return q, g
}

func TestFacadeOptimize(t *testing.T) {
	q, _ := buildStarQuery()
	for _, alg := range []eagg.Algorithm{eagg.DPhyp, eagg.EAAll, eagg.EAPrune, eagg.H1} {
		res, err := eagg.Optimize(q, eagg.Options{Algorithm: alg})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if res.Plan == nil || res.Plan.Cost <= 0 {
			t.Fatalf("%v: bad result", alg)
		}
	}
	res, err := eagg.Optimize(q, eagg.Options{Algorithm: eagg.H2, F: 1.03})
	if err != nil || res.Plan == nil {
		t.Fatalf("H2: %v", err)
	}
}

func TestFacadeEagerBeatsLazy(t *testing.T) {
	q, _ := buildStarQuery()
	lazy, _ := eagg.Optimize(q, eagg.Options{Algorithm: eagg.DPhyp})
	eager, _ := eagg.Optimize(q, eagg.Options{Algorithm: eagg.EAPrune})
	if eager.Plan.Cost >= lazy.Plan.Cost {
		t.Errorf("eager %.6g should beat lazy %.6g", eager.Plan.Cost, lazy.Plan.Cost)
	}
}

// rowOracle names the sequential row runtime: the reference side of the
// comparisons and benchmark arms in this package's tests.
var rowOracle = eagg.ExecOptions{Runtime: eagg.RuntimeRow}

func TestFacadeExecuteMatchesCanonical(t *testing.T) {
	q, _ := buildStarQuery()
	data := engine.RandomData(rand.New(rand.NewSource(3)), q, 8)
	want, err := eagg.Canonical(q, data)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := eagg.Optimize(q, eagg.Options{Algorithm: eagg.EAPrune})
	got, err := eagg.Execute(q, res.Plan, data)
	if err != nil {
		t.Fatal(err)
	}
	if !eagg.SameResult(q, want, got) {
		t.Errorf("optimized result differs\nwant:\n%v\ngot:\n%v", want, got)
	}
	// The reference runtime is reachable through the facade by name, and
	// the default reproduces it as a sequence.
	row, err := eagg.ExecuteTablesOpts(q, res.Plan, data.Tables(), rowOracle)
	if err != nil {
		t.Fatal(err)
	}
	def, err := eagg.ExecuteTables(q, res.Plan, data.Tables())
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(row.Rows) != fmt.Sprint(def.Rows) || !eagg.SameResult(q, want, row.Rel()) {
		t.Errorf("row runtime and default execution differ\nrow:\n%v\ndefault:\n%v", row.Rel(), def.Rel())
	}
}

func TestFacadeAggregateHelpers(t *testing.T) {
	v := eagg.Aggregates(
		eagg.Count("c"), eagg.CountOf("ca", "x"), eagg.Sum("s", "x"),
		eagg.Min("lo", "x"), eagg.Max("hi", "x"), eagg.Avg("m", "x"))
	if len(v) != 6 {
		t.Fatalf("vector length %d", len(v))
	}
	outs := v.Outs()
	want := []string{"c", "ca", "s", "lo", "hi", "m"}
	for i := range want {
		if outs[i] != want[i] {
			t.Errorf("outs = %v", outs)
		}
	}
}

// Example demonstrates the optimizer collapsing a star-schema aggregation
// by pushing the grouping below the join.
func Example() {
	q := eagg.NewQuery()
	fact := q.AddRelation("fact", 1_000_000)
	dim := q.AddRelation("dim", 100)
	fk := q.AddAttr(fact, "fact.fk", 100)
	g := q.AddAttr(fact, "fact.g", 10)
	q.AddAttr(fact, "fact.v", 500_000)
	pk := q.AddAttr(dim, "dim.pk", 100)
	q.AddKey(dim, pk)
	q.Root = eagg.Join(eagg.InnerJoin, eagg.Scan(fact), eagg.Scan(dim), fk, pk, 1.0/100)
	q.SetGrouping([]int{g}, eagg.Aggregates(
		eagg.Count("cnt"), eagg.Sum("total", "fact.v")))

	lazy, _ := eagg.Optimize(q, eagg.Options{Algorithm: eagg.DPhyp})
	eager, _ := eagg.Optimize(q, eagg.Options{Algorithm: eagg.EAPrune})
	fmt.Printf("lazy  C_out = %.6g\n", lazy.Plan.Cost)
	fmt.Printf("eager C_out = %.6g\n", eager.Plan.Cost)
	fmt.Printf("eager groupings pushed: %d\n", eager.Plan.CountGroupings())
	// Output:
	// lazy  C_out = 1.00001e+06
	// eager C_out = 2010
	// eager groupings pushed: 1
}

// TestFacadeReoptimize drives the cardinality feedback loop through the
// facade: the loop must converge to a plan whose estimate matches its
// own execution, and the result must stay identical to the canonical
// evaluation. It also exercises manual use of the seam: an overlay
// harvested from one execution fed back via Options.Stats.
func TestFacadeReoptimize(t *testing.T) {
	q, _ := buildStarQuery()
	data := engine.RandomData(rand.New(rand.NewSource(3)), q, 8).Tables()
	res, err := eagg.Reoptimize(q, data, eagg.FeedbackOptions{
		Opt: eagg.Options{Algorithm: eagg.EAPrune, Workers: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("feedback loop did not converge in %d rounds", len(res.Rounds))
	}
	if qe := res.Final().Stats.CoutQError(); qe > 1+1e-9 {
		t.Fatalf("converged q-error %g > 1", qe)
	}
	want, err := eagg.CanonicalTables(q, data)
	if err != nil {
		t.Fatal(err)
	}
	if !eagg.SameResult(q, want.Rel(), res.Result.Rel()) {
		t.Fatal("feedback result differs from canonical")
	}

	// Manual seam use: harvest a profile, re-optimize under it.
	first, err := eagg.Optimize(q, eagg.Options{Algorithm: eagg.EAPrune, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := eagg.ExecuteProfiled(q, first.Plan, data)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Ops) == 0 {
		t.Fatal("execution profile is empty")
	}
	second, err := eagg.Optimize(q, eagg.Options{Algorithm: eagg.EAPrune, Workers: 1, Stats: stats.Profile()})
	if err != nil {
		t.Fatal(err)
	}
	if second.Plan == nil {
		t.Fatal("re-optimization under overlay failed")
	}
}

// TestFacadeSurfacesCapacityErrors pins the satellite contract of the
// >64-relation roadmap item's first step: blowing the relation or
// attribute caps is an error returned by Optimize, not a panic during
// query construction.
func TestFacadeSurfacesCapacityErrors(t *testing.T) {
	q := eagg.NewQuery()
	for i := 0; i < 80; i++ {
		q.AddRelation(fmt.Sprintf("r%d", i), 10)
	}
	if _, err := eagg.Optimize(q, eagg.Options{Algorithm: eagg.H1}); err == nil {
		t.Fatal("Optimize must reject a query that overflowed the relation cap")
	}
}

// TestFacadePhysModes drives the sort-based physical layer through the
// facade: all three modes optimize and execute the doc example, results
// equal the canonical evaluation.
func TestFacadePhysModes(t *testing.T) {
	q, _ := buildStarQuery()
	rng := rand.New(rand.NewSource(5))
	data := engine.RandomData(rng, q, 40)
	want, err := eagg.Canonical(q, data)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []eagg.PhysMode{eagg.PhysHash, eagg.PhysSort, eagg.PhysAuto} {
		res, err := eagg.Optimize(q, eagg.Options{Algorithm: eagg.EAPrune, Phys: mode})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		got, err := eagg.Execute(q, res.Plan, data)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if !eagg.SameResult(q, want, got) {
			t.Fatalf("%v: result differs from canonical", mode)
		}
	}
	if _, err := eagg.ParsePhysMode("bogus"); err == nil {
		t.Fatal("ParsePhysMode must reject unknown modes")
	}
}
