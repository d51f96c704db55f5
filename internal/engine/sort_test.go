package engine_test

import (
	"fmt"
	"math/rand"
	"testing"

	"eagg/internal/algebra"
	"eagg/internal/core"
	"eagg/internal/engine"
	"eagg/internal/plan"
	"eagg/internal/randquery"
	"eagg/internal/tpch"
)

// TestSortPhysTPCHDifferential is the TPC-H arm of the differential
// coverage: for every query and generator, the sort-mode plan must
// execute bit-identically to the same logical plan stripped to the hash
// layer and run on the row runtime (the sort operators emit the
// hash-canonical sequence), and bag-equal to the canonical evaluation and the frozen nested-loop
// reference executor.
func TestSortPhysTPCHDifferential(t *testing.T) {
	for name, q := range tpch.Queries() {
		tables := tpch.GenerateTables(rand.New(rand.NewSource(3)), q, tpch.ExecutionScale(name))
		data := engine.Data{}
		for id, tab := range tables {
			data[id] = tab.Rel()
		}
		attrs := engine.OutputAttrs(q)
		want, err := engine.CanonicalTables(q, tables)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range []core.Algorithm{core.AlgEAPrune, core.AlgH1, core.AlgDPhyp} {
			label := fmt.Sprintf("%s/%v", name, alg)
			res, err := core.Optimize(q, core.Options{Algorithm: alg, Phys: core.PhysModeSort})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			got, err := engine.ExecTables(q, res.Plan, tables)
			if err != nil {
				t.Fatalf("%s exec: %v\nplan:\n%v", label, err, res.Plan.StringWithQuery(q))
			}
			stripped, err := engine.ExecTablesOpts(q, plan.StripPhys(res.Plan), tables, engine.RowOracle)
			if err != nil {
				t.Fatalf("%s stripped exec: %v", label, err)
			}
			identicalTables(t, label+" sort≡hash(same plan)", stripped, got)
			if !algebra.EqualBags(want.Rel(), got.Rel(), attrs) {
				t.Fatalf("%s: result differs from canonical\nplan:\n%v", label, res.Plan.StringWithQuery(q))
			}
			ref, err := engine.ExecRef(q, res.Plan, data)
			if err != nil {
				t.Fatalf("%s ref exec: %v", label, err)
			}
			if !algebra.EqualBags(ref, got.Rel(), attrs) {
				t.Fatalf("%s: slot sort path differs from nested-loop reference", label)
			}
		}
	}
}

// TestSortPhysRandomDifferential fans the same differential over random
// queries and data: annotated ≡ stripped bit for bit, ≡ canonical as
// bags.
func TestSortPhysRandomDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(5)
		q := randquery.Generate(rng, randquery.Params{Relations: n})
		data := engine.RandomData(rng, q, 8)
		tables := data.Tables()
		attrs := engine.OutputAttrs(q)
		want, err := engine.CanonicalTables(q, tables)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Optimize(q, core.Options{Algorithm: core.AlgEAPrune, Phys: core.PhysModeSort})
		if err != nil {
			t.Fatalf("trial=%d: %v", trial, err)
		}
		got, err := engine.ExecTables(q, res.Plan, tables)
		if err != nil {
			t.Fatalf("trial=%d exec: %v\nplan:\n%v", trial, err, res.Plan.StringWithQuery(q))
		}
		stripped, err := engine.ExecTablesOpts(q, plan.StripPhys(res.Plan), tables, engine.RowOracle)
		if err != nil {
			t.Fatalf("trial=%d stripped: %v", trial, err)
		}
		identicalTables(t, fmt.Sprintf("trial=%d", trial), stripped, got)
		if !algebra.EqualBags(want.Rel(), got.Rel(), attrs) {
			t.Fatalf("trial=%d: ≢ canonical\nplan:\n%v", trial, res.Plan.StringWithQuery(q))
		}
	}
}

// TestSortParallelBitIdentity pins the sort layer's bit-identity with
// the sequential row runtime for workers 1 and 8: the forced small morsel
// size pushes the
// span-parallel machinery (radix passes, pair building, run folding and
// the grouper merge) onto every operator even at test sizes, across batch
// sizes. Alternating trials aggregate floats, so order-sensitive sums go
// through the sort-group fold.
func TestSortParallelBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(5)
		q := randquery.Generate(rng, randquery.Params{Relations: n})
		tables := engine.RandomData(rng, q, 12).Tables()
		if trial%2 == 1 {
			tables = engine.FloatAggArgs(q, tables)
		}
		res, err := core.Optimize(q, core.Options{Algorithm: core.AlgH1, Phys: core.PhysModeSort})
		if err != nil {
			t.Fatal(err)
		}
		seq, err := engine.ExecTablesOpts(q, res.Plan, tables, engine.RowOracle)
		if err != nil {
			t.Fatalf("trial=%d sequential: %v", trial, err)
		}
		par, err := engine.ExecTablesOpts(q, res.Plan, tables, engine.ExecOptions{Workers: 8, MorselSize: 3})
		if err != nil {
			t.Fatalf("trial=%d parallel: %v", trial, err)
		}
		identicalTables(t, fmt.Sprintf("trial=%d row vs workers 8", trial), seq, par)
		for _, bs := range []int{1, 7, 1024} {
			for _, o := range []engine.ExecOptions{
				{Workers: 1, Runtime: engine.RuntimeBatch, BatchSize: bs},
				{Workers: 8, MorselSize: 3, Runtime: engine.RuntimeBatch, BatchSize: bs},
			} {
				got, err := engine.ExecTablesOpts(q, res.Plan, tables, o)
				if err != nil {
					t.Fatalf("trial=%d batch=%d workers=%d: %v", trial, bs, o.Workers, err)
				}
				identicalTables(t, fmt.Sprintf("trial=%d batch=%d workers=%d", trial, bs, o.Workers), seq, got)
			}
		}
	}
	// The TPC-H queries at execution scale.
	for name, q := range tpch.Queries() {
		tables := tpch.GenerateTables(rand.New(rand.NewSource(4)), q, tpch.ExecutionScale(name))
		res, err := core.Optimize(q, core.Options{Algorithm: core.AlgEAPrune, Phys: core.PhysModeSort})
		if err != nil {
			t.Fatal(err)
		}
		seq, err := engine.ExecTablesOpts(q, res.Plan, tables, engine.RowOracle)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range []engine.ExecOptions{
			{Workers: 8}, // adaptive morsels: under the cutoff, the sequential arms
			{Workers: 8, MorselSize: 64},
		} {
			par, err := engine.ExecTablesOpts(q, res.Plan, tables, o)
			if err != nil {
				t.Fatal(err)
			}
			identicalTables(t, fmt.Sprintf("%s sort morsel=%d row vs workers 8", name, o.MorselSize), seq, par)
		}
	}
}

// TestSortEliminatesSortOnTPCH pins the acceptance scenario: under
// -phys sort, at least Q3 ends up with a sort-merge join whose sort is
// eliminated (the orders scan order is reused), the plan reports
// eliminated sorts, and the results stay identical to the hash plan and
// the canonical evaluation.
func TestSortEliminatesSortOnTPCH(t *testing.T) {
	q := tpch.Queries()["Q3"]
	res, err := core.Optimize(q, core.Options{Algorithm: core.AlgEAPrune, Phys: core.PhysModeSort})
	if err != nil {
		t.Fatal(err)
	}
	_, eliminated := res.Plan.SortStats()
	if eliminated == 0 {
		t.Fatalf("Q3 sort plan eliminated no sorts:\n%v", res.Plan.StringWithQuery(q))
	}
	foundMergeElim := false
	var walk func(p *plan.Plan)
	walk = func(p *plan.Plan) {
		if p == nil {
			return
		}
		if p.Kind == plan.NodeOp && p.Phys == plan.PhysSortMerge && (!p.SortL || !p.SortR) {
			foundMergeElim = true
		}
		walk(p.Left)
		walk(p.Right)
	}
	walk(res.Plan)
	if !foundMergeElim {
		t.Fatalf("Q3 sort plan has no sort-merge join with an eliminated sort:\n%v", res.Plan.StringWithQuery(q))
	}

	tables := tpch.GenerateTables(rand.New(rand.NewSource(2)), q, tpch.ExecutionScale("Q3"))
	got, err := engine.ExecTables(q, res.Plan, tables)
	if err != nil {
		t.Fatal(err)
	}
	hashRes, err := core.Optimize(q, core.Options{Algorithm: core.AlgEAPrune})
	if err != nil {
		t.Fatal(err)
	}
	hashTab, err := engine.ExecTablesOpts(q, hashRes.Plan, tables, engine.RowOracle)
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.CanonicalTables(q, tables)
	if err != nil {
		t.Fatal(err)
	}
	attrs := engine.OutputAttrs(q)
	if !algebra.EqualBags(hashTab.Rel(), got.Rel(), attrs) || !algebra.EqualBags(want.Rel(), got.Rel(), attrs) {
		t.Fatal("sort plan result differs from hash plan / canonical")
	}
}
