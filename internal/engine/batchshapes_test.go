package engine_test

import (
	"fmt"
	"math/rand"
	"testing"

	"eagg/internal/algebra"
	"eagg/internal/core"
	"eagg/internal/engine"
	"eagg/internal/plan"
	"eagg/internal/tpch"
)

// TestBatchTPCHShapes runs every TPC-H query shape on the batch runtime —
// eager and lazy plans from several enumerators, hash and sort-annotated
// physical layers — and requires bit-identity with the row runtime plus
// bag-equality with the canonical evaluation.
func TestBatchTPCHShapes(t *testing.T) {
	for name, q := range tpch.Queries() {
		tables := tpch.GenerateTables(rand.New(rand.NewSource(5)), q, tpch.ExecutionScale(name))
		attrs := engine.OutputAttrs(q)
		want, err := engine.CanonicalTables(q, tables)
		if err != nil {
			t.Fatal(err)
		}
		for _, opt := range []core.Options{
			{Algorithm: core.AlgDPhyp},
			{Algorithm: core.AlgH1},
			{Algorithm: core.AlgEAPrune},
			{Algorithm: core.AlgDPhyp, Phys: core.PhysModeAuto},
		} {
			label := fmt.Sprintf("%s/%v/%v", name, opt.Algorithm, opt.Phys)
			res, err := core.Optimize(q, opt)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			row, err := engine.ExecTablesOpts(q, res.Plan, tables, engine.ExecOptions{Workers: 1})
			if err != nil {
				t.Fatalf("%s row exec: %v", label, err)
			}
			for _, bs := range []int{0, 1, 7} {
				batch, err := engine.ExecTablesOpts(q, res.Plan, tables,
					engine.ExecOptions{Workers: 1, Runtime: engine.RuntimeBatch, BatchSize: bs})
				if err != nil {
					t.Fatalf("%s batch exec: %v", label, err)
				}
				identicalTables(t, fmt.Sprintf("%s batch=%d", label, bs), row, batch)
			}
			if !algebra.EqualBags(want.Rel(), row.Rel(), attrs) {
				t.Fatalf("%s: result differs from canonical", label)
			}
		}
	}
}

// hasProject reports whether the plan contains a projection node.
func hasProject(p *plan.Plan) bool {
	return p != nil && (p.Kind == plan.NodeProject || hasProject(p.Left) || hasProject(p.Right))
}

// TestProjectionMatchesHashGroup is the hash-free projection's
// differential test: on every TPC-H plan that contains a NodeProject, the
// per-row fold (BatchProject) must emit exactly the table the hash
// aggregation it replaces (BatchHashGroup) emits — same rows, same order
// — sequentially and under morsel parallelism.
func TestProjectionMatchesHashGroup(t *testing.T) {
	projections := 0
	for name, q := range tpch.Queries() {
		tables := tpch.GenerateTables(rand.New(rand.NewSource(11)), q, tpch.ExecutionScaleAt(name, 20))
		for _, opt := range []core.Options{
			{Algorithm: core.AlgDPhyp},
			{Algorithm: core.AlgH1},
			{Algorithm: core.AlgH2, F: 1.03},
			{Algorithm: core.AlgEAPrune},
			{Algorithm: core.AlgEAPrune, Phys: core.PhysModeAuto},
		} {
			res, err := core.Optimize(q, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !hasProject(res.Plan) {
				continue
			}
			projections++
			for _, eo := range []engine.ExecOptions{
				{Workers: 1, Runtime: engine.RuntimeBatch},
				{Workers: 1, Runtime: engine.RuntimeBatch, BatchSize: 7},
				{Workers: 8, MorselSize: 64, Runtime: engine.RuntimeBatch},
			} {
				label := fmt.Sprintf("%s/%v/%v workers=%d batch=%d", name, opt.Algorithm, opt.Phys, eo.Workers, eo.BatchSize)
				want, err := engine.ExecTablesHashProject(q, res.Plan, tables, eo)
				if err != nil {
					t.Fatalf("%s hash form: %v", label, err)
				}
				got, err := engine.ExecTablesOpts(q, res.Plan, tables, eo)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if want.Card() == 0 {
					t.Fatalf("%s: empty result proves nothing", label)
				}
				identicalTables(t, label, want, got)
			}
		}
	}
	if projections < 4 {
		t.Fatalf("only %d plans with a projection: the suite lost its subject", projections)
	}
}
