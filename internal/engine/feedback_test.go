package engine_test

import (
	"math/rand"
	"testing"

	"eagg/internal/algebra"
	"eagg/internal/core"
	"eagg/internal/engine"
	"eagg/internal/query"
	"eagg/internal/randquery"
	"eagg/internal/tpch"
)

// fixedPointEps bounds the plan-level q-error of a converged feedback
// round: once the loop re-selects the previous plan, every operator
// estimate is that operator's own measured cardinality, so estimated and
// actual C_out are sums of the same integers — equal exactly in float64
// (row counts are far below 2^53). The epsilon only guards the clamped
// q-error arithmetic.
const fixedPointEps = 1e-9

// TestReoptimizeFixedPoint is the loop's sanity property: overlaying a
// complete exact profile of a plan and re-optimizing, iterated to
// convergence, must yield a plan whose estimated C_out matches its own
// execution — plan-level q-error ≤ 1+ε.
func TestReoptimizeFixedPoint(t *testing.T) {
	algs := []core.Algorithm{core.AlgDPhyp, core.AlgEAPrune, core.AlgH1}

	check := func(t *testing.T, name string, q *query.Query, data engine.TableData, alg core.Algorithm) {
		t.Helper()
		res, err := engine.Reoptimize(q, data, engine.FeedbackOptions{
			Opt: core.Options{Algorithm: alg, F: 1.03, Workers: 1},
		})
		if err != nil {
			t.Fatalf("%s/%v: %v", name, alg, err)
		}
		if !res.Converged {
			t.Fatalf("%s/%v: loop did not converge in %d rounds", name, alg, len(res.Rounds))
		}
		final := res.Final().Stats
		if qe := final.CoutQError(); qe > 1+fixedPointEps {
			t.Fatalf("%s/%v: converged plan-level q-error %g > 1+ε (est %g, actual %g)",
				name, alg, qe, final.EstimatedCout, final.ActualCout)
		}
		if w, ok := final.WorstOp(); ok && w.QError() > 1+fixedPointEps {
			t.Fatalf("%s/%v: converged worst-operator q-error %g > 1+ε (%+v)", name, alg, w.QError(), w)
		}
		// Feedback may change the plan, never the answer.
		want, err := engine.CanonicalTablesOpts(q, data, engine.ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !algebra.EqualBags(want.Rel(), res.Result.Rel(), engine.OutputAttrs(q)) {
			t.Fatalf("%s/%v: re-optimized result differs from canonical", name, alg)
		}
	}
	for name, q := range tpch.Queries() {
		rng := rand.New(rand.NewSource(7))
		data := tpch.GenerateTables(rng, q, tpch.ExecutionScaleAt(name, 2))
		for _, alg := range algs {
			check(t, name, q, data, alg)
		}
	}
	// Random query/data shapes (outer joins, semijoins, groupjoins, …).
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		q := randquery.Generate(rng, randquery.Params{Relations: 2 + int(seed%5)})
		data := engine.RandomData(rng, q, 6).Tables()
		check(t, "rand", q, data, algs[seed%int64(len(algs))])
	}
}

// TestFeedbackChangesPlanQ5 pins the headline effect on a benchmarked
// TPC-H query: on Q5 the model's estimates are off by q-errors > 10^3,
// and feeding measured cardinalities back changes the chosen plan,
// reduces the plan-level q-error by far more than 10x, and lowers the
// measured intermediate-result volume — while the result stays identical
// to the canonical evaluation.
func TestFeedbackChangesPlanQ5(t *testing.T) {
	q := tpch.Queries()["Q5"]
	rng := rand.New(rand.NewSource(42))
	data := tpch.GenerateTables(rng, q, tpch.ExecutionScaleAt("Q5", 1))
	res, err := engine.Reoptimize(q, data, engine.FeedbackOptions{
		Opt: core.Options{Algorithm: core.AlgEAPrune, Workers: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("Q5 feedback did not converge in %d rounds", len(res.Rounds))
	}
	if !res.PlanChanged() {
		t.Fatal("feedback re-optimization should change the Q5 plan")
	}
	before, after := res.First().Stats, res.Final().Stats
	if before.CoutQError() < 10*after.CoutQError() {
		t.Fatalf("plan-level q-error must drop ≥10x: %g -> %g", before.CoutQError(), after.CoutQError())
	}
	if after.ActualCout >= before.ActualCout {
		t.Fatalf("re-optimized plan should produce less intermediate volume: %g -> %g",
			before.ActualCout, after.ActualCout)
	}
	want, err := engine.CanonicalTablesOpts(q, data, engine.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !algebra.EqualBags(want.Rel(), res.Result.Rel(), engine.OutputAttrs(q)) {
		t.Fatal("re-optimized Q5 result differs from canonical")
	}
}

// TestReoptimizeParallelDeterminism: the feedback loop composed with
// parallel optimization and parallel batch execution must reproduce the
// sequential run on the row runtime bit-identically — same rounds, same plans, same
// measured profiles, same result table.
func TestReoptimizeParallelDeterminism(t *testing.T) {
	queries := []*query.Query{tpch.Queries()["Q5"], tpch.Queries()["Q10"]}
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(300 + seed))
		queries = append(queries, randquery.Generate(rng, randquery.Params{Relations: 3 + int(seed%4)}))
	}
	for qi, q := range queries {
		var data engine.TableData
		rng := rand.New(rand.NewSource(55))
		if qi == 0 {
			data = tpch.GenerateTables(rng, q, tpch.ExecutionScaleAt("Q5", 1))
		} else if qi == 1 {
			data = tpch.GenerateTables(rng, q, tpch.ExecutionScaleAt("Q10", 1))
		} else {
			data = engine.RandomData(rng, q, 5).Tables()
		}
		seq, err := engine.Reoptimize(q, data, engine.FeedbackOptions{
			Opt:  core.Options{Algorithm: core.AlgEAPrune, Workers: 1},
			Exec: engine.RowOracle,
		})
		if err != nil {
			t.Fatal(err)
		}
		par, err := engine.Reoptimize(q, data, engine.FeedbackOptions{
			Opt:  core.Options{Algorithm: core.AlgEAPrune, Workers: 8},
			Exec: engine.ExecOptions{Workers: 8, MorselSize: 64},
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(seq.Rounds) != len(par.Rounds) || seq.Converged != par.Converged {
			t.Fatalf("q%d: rounds %d/%v vs %d/%v", qi, len(seq.Rounds), seq.Converged, len(par.Rounds), par.Converged)
		}
		for i := range seq.Rounds {
			s, p := seq.Rounds[i], par.Rounds[i]
			if s.Plan.Signature() != p.Plan.Signature() {
				t.Fatalf("q%d round %d: plans diverge\nseq: %s\npar: %s", qi, i, s.Plan.Signature(), p.Plan.Signature())
			}
			if s.Stats.ActualCout != p.Stats.ActualCout || s.Stats.EstimatedCout != p.Stats.EstimatedCout ||
				len(s.Stats.Ops) != len(p.Stats.Ops) {
				t.Fatalf("q%d round %d: stats diverge: %+v vs %+v", qi, i, s.Stats, p.Stats)
			}
			for j := range s.Stats.Ops {
				if s.Stats.Ops[j] != p.Stats.Ops[j] {
					t.Fatalf("q%d round %d op %d: %+v vs %+v", qi, i, j, s.Stats.Ops[j], p.Stats.Ops[j])
				}
			}
		}
		if !algebra.EqualBags(seq.Result.Rel(), par.Result.Rel(), engine.OutputAttrs(q)) {
			t.Fatalf("q%d: parallel feedback result differs", qi)
		}
	}
}

// TestReoptimizeSeededProfile: seeding a second loop with a previous
// run's Profile via Opt.Stats must not forget anything after round 1 —
// the seeded loop starts at the informed plan and converges immediately
// (2 rounds: one informed baseline, one confirmation), ending on the
// same plan as the unseeded loop.
func TestReoptimizeSeededProfile(t *testing.T) {
	q := tpch.Queries()["Q5"]
	rng := rand.New(rand.NewSource(42))
	data := tpch.GenerateTables(rng, q, tpch.ExecutionScaleAt("Q5", 1))
	opts := engine.FeedbackOptions{Opt: core.Options{Algorithm: core.AlgEAPrune, Workers: 1}}
	first, err := engine.Reoptimize(q, data, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !first.PlanChanged() {
		t.Fatal("test needs a query whose plan feedback changes")
	}
	seeded := opts
	seeded.Opt.Stats = first.Profile
	second, err := engine.Reoptimize(q, data, seeded)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Converged || len(second.Rounds) != 2 {
		t.Fatalf("seeded loop should confirm the known plan in 2 rounds: rounds=%d conv=%v",
			len(second.Rounds), second.Converged)
	}
	if second.PlanChanged() {
		t.Fatal("seeded loop should start at the informed plan")
	}
	if got, want := second.Final().Plan.Signature(), first.Final().Plan.Signature(); got != want {
		t.Fatalf("seeded loop ended on a different plan:\n%s\nvs\n%s", got, want)
	}
	if qe := second.Final().Stats.CoutQError(); qe > 1+fixedPointEps {
		t.Fatalf("seeded converged q-error %g > 1", qe)
	}
}
