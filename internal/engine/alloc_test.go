package engine_test

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"eagg/internal/core"
	"eagg/internal/engine"
	"eagg/internal/tpch"
)

// allocPerExec returns the bytes allocated per execution, after a warm-up
// execution has filled the columnar caches and the scratch pools.
func allocPerExec(t *testing.T, name string, factor float64, opts engine.ExecOptions) float64 {
	t.Helper()
	q := tpch.Queries()[name]
	tables := tpch.GenerateTables(rand.New(rand.NewSource(1)), q, tpch.ExecutionScaleAt(name, factor))
	res, err := core.Optimize(q, core.Options{Algorithm: core.AlgEAPrune})
	if err != nil {
		t.Fatal(err)
	}
	// Keep the scratch pools warm for the measured window: a collection
	// empties them, and a goroutine that moves to another P misses what
	// it pooled on the first. (One P changes which goroutine runs a
	// task, never what a task allocates.)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const warm, runs = 3, 5
	var before, after runtime.MemStats
	for i := 0; i < warm+runs; i++ {
		if i == warm {
			runtime.ReadMemStats(&before)
		}
		if _, err := engine.ExecTablesOpts(q, res.Plan, tables, opts); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// TestParallelAllocBudget is the deterministic stand-in for a timing
// gate on the morsel-parallel batch arm: allocation per execution repeats
// to a fraction of a percent where wall time does not. Workers: 2 may
// allocate at most 1.25 × what Workers: 1 does — on Q3 and Ex at factor
// 100 under the default options (before PR 12: 2.0× and ~1000×; these
// inputs now lie below batchParallelCutoff, so the case also pins that
// small operators stay on the sequential arm), and on Q3 with an explicit
// morsel size, which forces every operator through the radix scatter, the
// per-partition tables and groupers and the rank merge.
func TestParallelAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation does not repeat under the race detector (sync.Pool drops items at random)")
	}
	for _, c := range []struct {
		query  string
		morsel int
	}{{"Q3", 0}, {"Ex", 0}, {"Q3", 4096}} {
		opts := engine.ExecOptions{Workers: 1, Runtime: engine.RuntimeBatch, MorselSize: c.morsel}
		w1 := allocPerExec(t, c.query, 100, opts)
		opts.Workers = 2
		w2 := allocPerExec(t, c.query, 100, opts)
		t.Logf("%s morsel=%d: workers=1 %.0f B, workers=2 %.0f B (%.2fx)", c.query, c.morsel, w1, w2, w2/w1)
		if w2 > 1.25*w1 {
			t.Errorf("%s morsel=%d: workers=2 allocates %.0f B per execution, over 1.25 x the %.0f B of workers=1",
				c.query, c.morsel, w2, w1)
		}
	}
}
