package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"eagg/internal/algebra"
	"eagg/internal/core"
	"eagg/internal/randquery"
)

// identicalTables asserts bit-identical execution results: same schema,
// same rows in the same order, every value equal in kind and payload
// (floats by bit pattern — order-sensitive float sums must not drift).
func identicalTables(t *testing.T, label string, want, got *algebra.Table) {
	t.Helper()
	if fmt.Sprint(want.Schema.Names()) != fmt.Sprint(got.Schema.Names()) {
		t.Fatalf("%s: schema differs: %v vs %v", label, want.Schema.Names(), got.Schema.Names())
	}
	if len(want.Rows) != len(got.Rows) {
		t.Fatalf("%s: cardinality differs: want %d got %d", label, len(want.Rows), len(got.Rows))
	}
	for i := range want.Rows {
		for j := range want.Rows[i] {
			a, b := want.Rows[i][j], got.Rows[i][j]
			if a.Kind != b.Kind || a.I != b.I || a.S != b.S ||
				math.Float64bits(a.F) != math.Float64bits(b.F) {
				t.Fatalf("%s: row %d slot %d differs: %v vs %v", label, i, j, a, b)
			}
		}
	}
}

// TestExecParallelDeterminism is the central contract of the
// morsel-driven runtime, mirroring internal/core/parallel_test.go for
// execution: on random queries and data, executing any optimized plan
// on the batch runtime with Workers: 8 must return a table bit-identical
// to the sequential row runtime's — full-outer padding, weight products
// and order-sensitive float sums included — and the canonical evaluation
// must equal both as bags. Tiny morsels force real fan-out on the small
// fuzz-sized inputs; run with -race to make the schedule adversarial.
func TestExecParallelDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(20153))
	algs := []core.Options{
		{Algorithm: core.AlgDPhyp},
		{Algorithm: core.AlgEAPrune},
		{Algorithm: core.AlgH1},
		{Algorithm: core.AlgH2, F: 1.03},
		{Algorithm: core.AlgBeam, BeamWidth: 4},
	}
	queries := 0
	for n := 2; n <= 7; n++ {
		for trial := 0; trial < 10; trial++ {
			q := randquery.Generate(rng, randquery.Params{Relations: n})
			data := RandomData(rng, q, 14).Tables()
			queries++
			opts := algs[(queries-1)%len(algs)]
			res, err := core.Optimize(q, opts)
			if err != nil {
				t.Fatal(err)
			}

			seq, _, err := ExecProfiledOpts(q, res.Plan, data, RowOracle)
			if err != nil {
				t.Fatalf("n=%d trial=%d row oracle: %v", n, trial, err)
			}
			par, _, err := ExecProfiledOpts(q, res.Plan, data, ExecOptions{Workers: 8, MorselSize: 2})
			if err != nil {
				t.Fatalf("n=%d trial=%d parallel: %v", n, trial, err)
			}
			identicalTables(t, fmt.Sprintf("n=%d trial=%d %v exec", n, trial, opts.Algorithm), seq, par)

			canon, err := CanonicalTablesOpts(q, data, ExecOptions{})
			if err != nil {
				t.Fatal(err)
			}
			attrs := OutputAttrs(q)
			for name, got := range map[string]*algebra.Table{"row oracle": seq, "batch workers=8": par} {
				if !algebra.EqualBags(canon.Rel(), got.Rel(), attrs) {
					t.Fatalf("n=%d trial=%d %v: %s ≢ Canonical\nplan:\n%v",
						n, trial, opts.Algorithm, name, res.Plan.StringWithQuery(q))
				}
			}
		}
	}
	if queries < 50 {
		t.Fatalf("workload too small: %d queries", queries)
	}
}

// TestCoutQError pins the clamped q-error semantics: a zero-vs-nonzero
// mismatch degrades by its magnitude instead of returning the old
// sentinel 0 (indistinguishable from a perfect estimate), the all-zero
// case is vacuously 1 and flagged trivial, and matching estimates are 1.
func TestCoutQError(t *testing.T) {
	cases := []struct {
		est, act float64
		want     float64
		trivial  bool
	}{
		{0, 0, 1, true},       // nothing to estimate: vacuous, flagged
		{100, 0, 100, false},  // estimator invented volume: penalized
		{0, 100, 100, false},  // estimator missed volume: penalized
		{50, 50, 1, false},    // exact
		{200, 100, 2, false},  // over by 2x
		{100, 400, 4, false},  // under by 4x
		{0.25, 0.5, 1, false}, // sub-row volumes clamp to 1: no reward
	}
	for _, c := range cases {
		s := &ExecStats{EstimatedCout: c.est, ActualCout: c.act}
		if got := s.CoutQError(); got != c.want {
			t.Errorf("CoutQError(est=%g, act=%g) = %g, want %g", c.est, c.act, got, c.want)
		}
		if got := s.CoutTrivial(); got != c.trivial {
			t.Errorf("CoutTrivial(est=%g, act=%g) = %v, want %v", c.est, c.act, got, c.trivial)
		}
		if s.CoutQError() < 1 {
			t.Errorf("q-error below 1 for est=%g act=%g", c.est, c.act)
		}
	}
}
