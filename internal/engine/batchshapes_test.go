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
			{Algorithm: core.AlgDPhyp, Phys: core.PhysModeSort},
		} {
			label := fmt.Sprintf("%s/%v/%v", name, opt.Algorithm, opt.Phys)
			res, err := core.Optimize(q, opt)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			row, err := engine.ExecTablesOpts(q, res.Plan, tables, engine.RowOracle)
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

// TestHashStatsIndependentOfWorkers pins what one pass per build and
// grouping means for the telemetry: on the TPC-H shapes at factor 1000,
// the repo benchmark's size, where Workers: 2 fans the probes, gathers and
// emits out, the key structures an execution builds — how many, their
// entries, capacities and worst probe sequence — read the same as under
// Workers: 1.
func TestHashStatsIndependentOfWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("factor-1000 data")
	}
	for _, name := range []string{"Q3", "Q5", "Q10", "Ex"} {
		q := tpch.Queries()[name]
		tables := tpch.GenerateTables(rand.New(rand.NewSource(1)), q, tpch.ExecutionScaleAt(name, 1000))
		res, err := core.Optimize(q, core.Options{Algorithm: core.AlgEAPrune, Phys: core.PhysModeHash})
		if err != nil {
			t.Fatal(err)
		}
		var got [2]algebra.HashTableStats
		for i, workers := range []int{1, 2} {
			_, stats, err := engine.ExecProfiledOpts(q, res.Plan, tables, engine.ExecOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			h := stats.Hash
			got[i] = algebra.HashTableStats{Builds: h.Builds, Dense: h.Dense, Entries: h.Entries, Capacity: h.Capacity, MaxProbe: h.MaxProbe}
		}
		t.Logf("%s: %+v", name, got[0])
		if got[0] != got[1] {
			t.Errorf("%s: workers=1 built %+v, workers=2 %+v", name, got[0], got[1])
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
			{Algorithm: core.AlgEAPrune, Phys: core.PhysModeSort},
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

// TestRowRuntimeIsSequential pins what naming the row runtime means: the
// reference runs on one goroutine whatever Workers, MorselSize and Pool
// say — on the hash layer (map-based operators, no flat table) and on the
// sort layer (the Columnar() → batch → Table() wrappers) — and the batch
// runtime, fanned out over the same pool, reproduces it bit for bit.
func TestRowRuntimeIsSequential(t *testing.T) {
	q := tpch.Queries()["Q3"]
	tables := tpch.GenerateTables(rand.New(rand.NewSource(5)), q, tpch.ExecutionScaleAt("Q3", 2))
	for _, phys := range []core.PhysMode{core.PhysModeHash, core.PhysModeSort} {
		res, err := core.Optimize(q, core.Options{Algorithm: core.AlgEAPrune, Phys: phys})
		if err != nil {
			t.Fatal(err)
		}
		if done, reused := res.Plan.SortStats(); (done+reused > 0) != (phys == core.PhysModeSort) {
			t.Fatalf("phys=%v: plan has %d+%d sorts", phys, done, reused)
		}
		p := algebra.NewPool(3)
		defer p.Close()
		row, stats, err := engine.ExecProfiledOpts(q, res.Plan, tables,
			engine.ExecOptions{Runtime: engine.RuntimeRow, Workers: 8, MorselSize: 1, Pool: p})
		if err != nil {
			t.Fatalf("phys=%v row exec: %v", phys, err)
		}
		if ps := p.Stats(); ps.Jobs != 0 || ps.WorkerTasks != 0 || ps.HelperTasks != 0 {
			t.Errorf("phys=%v: the row runtime fanned out over the pool: %+v", phys, ps)
		}
		if stats.Workers != 1 {
			t.Errorf("phys=%v: ExecStats.Workers = %d under the row runtime, want 1", phys, stats.Workers)
		}
		if phys == core.PhysModeHash && stats.Hash != (algebra.HashTableStats{}) {
			t.Errorf("the row runtime's hash layer reported flat-table telemetry: %+v", stats.Hash)
		}
		if row.Card() == 0 {
			t.Fatalf("phys=%v: empty result proves nothing", phys)
		}
		batch, err := engine.ExecTablesOpts(q, res.Plan, tables, engine.ExecOptions{Workers: 8, MorselSize: 1, Pool: p})
		if err != nil {
			t.Fatalf("phys=%v batch exec: %v", phys, err)
		}
		identicalTables(t, fmt.Sprintf("phys=%v row ≡ batch", phys), row, batch)
		if ps := p.Stats(); ps.WorkerTasks+ps.HelperTasks == 0 {
			t.Errorf("phys=%v: the batch runtime never used the pool — the zero counters above prove nothing", phys)
		}
	}
}

// TestZeroValueOptionsRunBatch pins the default: options that name no
// runtime execute on the batch kernels, which — unlike the row runtime's
// Go maps — report their table builds.
func TestZeroValueOptionsRunBatch(t *testing.T) {
	q := tpch.Queries()["Q3"]
	tables := tpch.GenerateTables(rand.New(rand.NewSource(5)), q, tpch.ExecutionScale("Q3"))
	res, err := core.Optimize(q, core.Options{Algorithm: core.AlgEAPrune})
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := engine.ExecProfiledOpts(q, res.Plan, tables, engine.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Hash.Builds == 0 {
		t.Fatalf("ExecOptions{} built no hash table on a join plan — it did not run the batch runtime: %+v", stats.Hash)
	}
	_, stats, err = engine.ExecProfiled(q, res.Plan, tables)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Hash.Builds == 0 {
		t.Fatalf("ExecProfiled built no hash table on a join plan — it did not run the batch runtime: %+v", stats.Hash)
	}
}
