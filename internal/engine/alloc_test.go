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

// allocPerExec returns the bytes and the objects allocated per execution
// of the query's EA-Prune plan on the given physical layer, after warm-up
// executions have filled the columnar caches and the scratch pools.
func allocPerExec(t *testing.T, name string, factor float64, phys core.PhysMode, opts engine.ExecOptions) (bytes, objects float64) {
	t.Helper()
	return allocPerExecRuns(t, name, factor, phys, opts, 3, 5)
}

// allocPerExecRuns is allocPerExec over the given number of warm-up and
// measured executions (the collector is off for all of them: keep the
// product of executions and data size small).
func allocPerExecRuns(t *testing.T, name string, factor float64, phys core.PhysMode, opts engine.ExecOptions, warm, runs int) (bytes, objects float64) {
	t.Helper()
	q := tpch.Queries()[name]
	tables := tpch.GenerateTables(rand.New(rand.NewSource(1)), q, tpch.ExecutionScaleAt(name, factor))
	res, err := core.Optimize(q, core.Options{Algorithm: core.AlgEAPrune, Phys: phys})
	if err != nil {
		t.Fatal(err)
	}
	// Keep the scratch pools warm for the measured window: a collection
	// empties them, and a goroutine that moves to another P misses what
	// it pooled on the first. (One P changes which goroutine runs a
	// task, never what a task allocates.)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
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
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs), float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// TestParallelAllocBudget is the deterministic stand-in for a timing
// gate on the morsel-parallel batch arm: allocation per execution repeats
// to a fraction of a percent where wall time does not. Workers: 2 may
// allocate at most 1.25 × what Workers: 1 does — on Q3 and Ex at factor
// 100 under the default options (before PR 12: 2.0× and ~1000×; these
// inputs now lie below batchParallelCutoff, so the case also pins that
// small operators stay on the sequential arm), and on Q3 with an explicit
// morsel size, which forces every operator through the scatter, the
// per-partition tables and groupers and the rank merge — and an absolute
// byte budget on Q3 at factor 1000, the repo benchmark's size.
func TestParallelAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation does not repeat under the race detector (sync.Pool drops items at random)")
	}
	for _, c := range []struct {
		query  string
		morsel int
	}{{"Q3", 0}, {"Ex", 0}, {"Q3", 4096}} {
		opts := engine.ExecOptions{Workers: 1, Runtime: engine.RuntimeBatch, MorselSize: c.morsel}
		w1, _ := allocPerExec(t, c.query, 100, core.PhysModeHash, opts)
		opts.Workers = 2
		w2, _ := allocPerExec(t, c.query, 100, core.PhysModeHash, opts)
		t.Logf("%s morsel=%d: workers=1 %.0f B, workers=2 %.0f B (%.2fx)", c.query, c.morsel, w1, w2, w2/w1)
		if w2 > 1.25*w1 {
			t.Errorf("%s morsel=%d: workers=2 allocates %.0f B per execution, over 1.25 x the %.0f B of workers=1",
				c.query, c.morsel, w2, w1)
		}
	}
	if testing.Short() {
		return
	}
	// The benchmark's size (400k-row lineitem), where every key column is
	// direct-addressed: 70.6 MB at workers=1 and 67.3 MB at workers=2 per
	// execution (109.2 and 110.5 MB on the hash tables alone).
	const budget = 76e6
	for _, workers := range []int{1, 2} {
		opts := engine.ExecOptions{Workers: workers, Runtime: engine.RuntimeBatch}
		b, _ := allocPerExecRuns(t, "Q3", 1000, core.PhysModeHash, opts, 1, 2)
		t.Logf("Q3 factor 1000 workers=%d: %.0f B", workers, b)
		if b > budget {
			t.Errorf("Q3 factor 1000 workers=%d allocates %.0f B per execution, over the %.0f B budget", workers, b, budget)
		}
	}
}

// TestSortAllocBudget is the same kind of gate for the columnar sort
// layer, against the hash layer on the same data: the sort-merge joins
// and sort-groups may add their pointer-free sort scratch and nothing per
// row beyond it. Q3 (wide join outputs dominate either way) may allocate
// at most 2 × the hash plan's bytes, in at most 10k objects (the row
// sort layer took 4.2× and 382k at factor 500). Ex, whose hash form
// allocates almost nothing (25 groups), may add at most 32 bytes per
// sorted input row — supplier and customer, each sorted once on its
// nation key (it was ~175× the hash figure).
func TestSortAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation does not repeat under the race detector (sync.Pool drops items at random)")
	}
	exScale := tpch.ExecutionScaleAt("Ex", 100)
	exSorted := float64(exScale["supplier"] + exScale["customer"])
	for _, workers := range []int{1, 2} {
		opts := engine.ExecOptions{Workers: workers, Runtime: engine.RuntimeBatch}
		hash, _ := allocPerExec(t, "Q3", 100, core.PhysModeHash, opts)
		sorted, objects := allocPerExec(t, "Q3", 100, core.PhysModeSort, opts)
		t.Logf("Q3 workers=%d: hash %.0f B, sort %.0f B (%.2fx) in %.0f objects", workers, hash, sorted, sorted/hash, objects)
		if sorted > 2*hash || objects > 10_000 {
			t.Errorf("Q3 workers=%d: sort plan allocates %.0f B in %.0f objects per execution, over 2 x the hash plan's %.0f B or 10k objects",
				workers, sorted, objects, hash)
		}
		hash, _ = allocPerExec(t, "Ex", 100, core.PhysModeHash, opts)
		sorted, _ = allocPerExec(t, "Ex", 100, core.PhysModeSort, opts)
		t.Logf("Ex workers=%d: hash %.0f B, sort %.0f B: %.1f B per sorted row", workers, hash, sorted, (sorted-hash)/exSorted)
		if sorted > hash+32*exSorted {
			t.Errorf("Ex workers=%d: sort plan allocates %.0f B per execution, over the hash plan's %.0f B + 32 B x %.0f sorted rows",
				workers, sorted, hash, exSorted)
		}
	}
}
