package engine_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"eagg/internal/algebra"
	"eagg/internal/core"
	"eagg/internal/engine"
	"eagg/internal/tpch"
)

// identicalTables mirrors the helper of parallel_test.go for the
// external test package (which can import tpch without a cycle).
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

// TestExecParallelAtScale runs the default morsel geometry on inputs
// large enough to span many real morsels (TPC-H Q3 core at a few
// thousand rows): workers 1 vs 4 must agree bit for bit with each other
// and with the sequential row runtime, and the deterministic cardinality
// profile (ActualCout) must be identical.
func TestExecParallelAtScale(t *testing.T) {
	q := tpch.Q3()
	data := tpch.GenerateTables(rand.New(rand.NewSource(1)), q, tpch.ExecutionScaleAt("Q3", 20))
	for _, alg := range []core.Algorithm{core.AlgDPhyp, core.AlgEAPrune} {
		res, err := core.Optimize(q, core.Options{Algorithm: alg, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		seq, sstats, err := engine.ExecProfiledOpts(q, res.Plan, data, engine.ExecOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		// A small morsel size keeps the fan-out real on one of the runs.
		par, pstats, err := engine.ExecProfiledOpts(q, res.Plan, data, engine.ExecOptions{Workers: 4, MorselSize: 256})
		if err != nil {
			t.Fatal(err)
		}
		row, _, err := engine.ExecProfiledOpts(q, res.Plan, data, engine.RowOracle)
		if err != nil {
			t.Fatal(err)
		}
		identicalTables(t, fmt.Sprintf("%v row ≡ workers 1", alg), row, seq)
		identicalTables(t, fmt.Sprintf("%v row ≡ workers 4", alg), row, par)
		if sstats.ActualCout != pstats.ActualCout || sstats.ResultRows != pstats.ResultRows {
			t.Fatalf("%v: profile diverged: sequential %+v parallel %+v", alg, sstats, pstats)
		}
		if sstats.Workers != 1 || pstats.Workers != 4 {
			t.Fatalf("%v: reported workers %d/%d, want 1/4", alg, sstats.Workers, pstats.Workers)
		}
	}
}

// TestExecOptionsResolution pins the ExecOptions semantics: 0 resolves
// to GOMAXPROCS, explicit counts are reported back through ExecStats.
func TestExecOptionsResolution(t *testing.T) {
	q := tpch.Q3()
	data := tpch.GenerateTables(rand.New(rand.NewSource(1)), q, tpch.ExecutionScale("Q3"))
	res, err := core.Optimize(q, core.Options{Algorithm: core.AlgH1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := engine.ExecProfiledOpts(q, res.Plan, data, engine.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if want := runtime.GOMAXPROCS(0); stats.Workers != want {
		t.Errorf("Workers 0: got %d, want GOMAXPROCS %d", stats.Workers, want)
	}
	_, stats, err = engine.ExecProfiledOpts(q, res.Plan, data, engine.ExecOptions{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Workers != 3 {
		t.Errorf("Workers 3: got %d", stats.Workers)
	}
}
