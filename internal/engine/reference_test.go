package engine

import (
	"math/rand"
	"testing"

	"eagg/internal/algebra"
	"eagg/internal/core"
	"eagg/internal/randquery"
)

// TestSlotRuntimeMatchesReference is the differential gate between the
// executors: on random queries and data, both slot-based runtimes (the
// batch runtime Exec runs on, and the row runtime that is its oracle and
// Canonical's evaluator) and the frozen map/nested-loop runtime (ExecRef,
// CanonicalRef) must produce identical result bags. Because the reference
// shares no operator code with either, a systematic bug in the typed keys
// or accumulators cannot cancel out of this comparison.
func TestSlotRuntimeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(909))
	for n := 2; n <= 6; n++ {
		for trial := 0; trial < 10; trial++ {
			q := randquery.Generate(rng, randquery.Params{Relations: n})
			data := RandomData(rng, q, 6)
			attrs := OutputAttrs(q)

			canonSlot, err := Canonical(q, data)
			if err != nil {
				t.Fatal(err)
			}
			canonRef, err := CanonicalRef(q, data)
			if err != nil {
				t.Fatal(err)
			}
			if !algebra.EqualBags(canonRef, canonSlot, attrs) {
				t.Fatalf("n=%d trial=%d: Canonical (slot) differs from CanonicalRef\nref:\n%v\nslot:\n%v",
					n, trial, canonRef, canonSlot)
			}

			for _, alg := range []core.Algorithm{core.AlgDPhyp, core.AlgEAPrune, core.AlgH1} {
				res, err := core.Optimize(q, core.Options{Algorithm: alg})
				if err != nil {
					t.Fatal(err)
				}
				ref, err := ExecRef(q, res.Plan, data)
				if err != nil {
					t.Fatalf("ref exec: %v\nplan:\n%v", err, res.Plan.StringWithQuery(q))
				}
				for _, eo := range []ExecOptions{{Workers: 1}, RowOracle} {
					tab, err := ExecTablesOpts(q, res.Plan, data.Tables(), eo)
					if err != nil {
						t.Fatalf("%v exec: %v\nplan:\n%v", eo.Runtime, err, res.Plan.StringWithQuery(q))
					}
					if slot := tab.Rel(); !algebra.EqualBags(ref, slot, attrs) {
						t.Fatalf("n=%d trial=%d %v: the %v runtime differs from ExecRef\nplan:\n%v\nref:\n%v\nslot:\n%v",
							n, trial, alg, eo.Runtime, res.Plan.StringWithQuery(q), ref, slot)
					}
				}
			}
		}
	}
}

// TestExecProfiledStats sanity-checks the execution profile: the actual
// C_out must count every join and grouping output, and the q-error must
// be finite and ≥ 1 on a query that produces rows.
func TestExecProfiledStats(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	q := randquery.Generate(rng, randquery.Params{Relations: 4, OuterJoinShare: 0.01})
	data := RandomData(rng, q, 8)
	res, err := core.Optimize(q, core.Options{Algorithm: core.AlgEAPrune})
	if err != nil {
		t.Fatal(err)
	}
	tab, stats, err := ExecProfiled(q, res.Plan, data.Tables())
	if err != nil {
		t.Fatal(err)
	}
	if stats.ResultRows != tab.Card() {
		t.Errorf("ResultRows = %d, want %d", stats.ResultRows, tab.Card())
	}
	if stats.EstimatedCout != res.Plan.Cost {
		t.Errorf("EstimatedCout = %v, want plan cost %v", stats.EstimatedCout, res.Plan.Cost)
	}
	if stats.ActualCout < float64(tab.Card()) {
		t.Errorf("ActualCout = %v cannot be below the result cardinality %d", stats.ActualCout, tab.Card())
	}
	if tab.Card() > 0 && stats.CoutQError() < 1 {
		t.Errorf("CoutQError = %v, want ≥ 1", stats.CoutQError())
	}
}
