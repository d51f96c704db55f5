package engine_test

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"eagg/internal/algebra"
	"eagg/internal/core"
	"eagg/internal/engine"
	"eagg/internal/tpch"
)

// allocPerExec returns the bytes and the objects allocated per execution
// of the query's EA-Prune plan on the given physical layer, after warm-up
// executions have filled the columnar caches and the scratch pools.
func allocPerExec(t *testing.T, name string, factor float64, phys core.PhysMode, opts engine.ExecOptions) (bytes, objects float64) {
	t.Helper()
	bytes, objects, _ = allocPerExecRuns(t, name, factor, phys, opts, 3, 5)
	return bytes, objects
}

// allocPerExecRuns is allocPerExec over the given number of warm-up and
// measured executions (the collector is off for all of them: keep the
// product of executions and data size small), with the last result.
func allocPerExecRuns(t *testing.T, name string, factor float64, phys core.PhysMode, opts engine.ExecOptions, warm, runs int) (bytes, objects float64, res *algebra.Table) {
	t.Helper()
	q := tpch.Queries()[name]
	tables := tpch.GenerateTables(rand.New(rand.NewSource(1)), q, tpch.ExecutionScaleAt(name, factor))
	opt, err := core.Optimize(q, core.Options{Algorithm: core.AlgEAPrune, Phys: phys})
	if err != nil {
		t.Fatal(err)
	}
	// Keep the free lists and scratch pools warm for the measured window: a
	// collection empties them, and a goroutine that moves to another P
	// misses what it pooled on the first. (One P changes which goroutine
	// runs a task, never what a task allocates.)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	for i := 0; i < warm+runs; i++ {
		if i == warm {
			runtime.ReadMemStats(&before)
		}
		if res, _, err = engine.ExecProfiledOpts(q, opt.Plan, tables, opts); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs), float64(after.Mallocs-before.Mallocs) / float64(runs), res
}

// TestParallelAllocBudget is the deterministic stand-in for a timing
// gate on the morsel-parallel batch arm: allocation per execution repeats
// to a fraction of a percent where wall time does not. Workers: 2 may
// allocate at most 1.25 × what Workers: 1 does — on Q3 and Ex at factor
// 100 under the default options (before PR 12: 2.0× and ~1000×; these
// inputs now lie below batchParallelCutoff, so the case also pins that
// small operators stay on the sequential arm), and on Q3 with an explicit
// morsel size, which forces every probe, gather and emit to fan out — and
// absolute byte budgets on Q3, Q10 and Q5 at factor 1000, the repo
// benchmark's size.
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
	// The benchmark's size (400k-row lineitem for Q3), where every key column
	// is direct-addressed, joins hand on views (late materialization) and
	// every intermediate buffer is recycled from the execution before:
	// measured, workers 1 / 2, Q3 23.4 / 24.3 MB per execution (48.3 / 49.2
	// while each execution allocated its intermediates afresh), Q10 13.3 /
	// 13.7 (29.8 / 30.0), Q5 9.7 / 7.2 (19.6 / 19.4). A warm Q3 execution
	// allocates its result's rows and little else: at most 1.15 × the row
	// slab, 40 B per value and a 24-byte row header.
	for _, c := range []struct {
		query  string
		budget float64
	}{{"Q3", 28e6}, {"Q10", 16e6}, {"Q5", 11.5e6}} {
		for _, workers := range []int{1, 2} {
			opts := engine.ExecOptions{Workers: workers, Runtime: engine.RuntimeBatch}
			b, _, res := allocPerExecRuns(t, c.query, 1000, core.PhysModeHash, opts, 1, 2)
			slab := float64(res.Card()) * float64(40*res.Schema.Len()+24)
			t.Logf("%s factor 1000 workers=%d: %.0f B, %.2f x the result's %.0f B row slab", c.query, workers, b, b/slab, slab)
			if b > c.budget {
				t.Errorf("%s factor 1000 workers=%d allocates %.0f B per execution, over the %.0f B budget", c.query, workers, b, c.budget)
			}
			if c.query == "Q3" && b > 1.15*slab {
				t.Errorf("Q3 factor 1000 workers=%d allocates %.0f B per execution, over 1.15 x its result's %.0f B row slab", workers, b, slab)
			}
		}
	}
}

// TestUnreadColumnsNeverGathered counts the columns gathered out of join
// outputs (algebra.HashTableStats.GatherCols) on the EA-Prune hash plans of
// the benchmark's shapes against the number read off each plan: a join's
// output is a view of its inputs, and only a column that an operator above
// reads is ever copied.
func TestUnreadColumnsNeverGathered(t *testing.T) {
	for _, c := range []struct {
		query string
		cols  int64
		plan  string
	}{
		// Π(c ⋈ (o ⋈ Γ(l))): the upper join reads o_custkey of the lower
		// one's output, Π its three grouping columns and the revenue sum.
		// c_custkey and o_orderkey are read off the base tables only; all
		// other carried columns — nine of the upper join's fourteen — never.
		{"Q3", 1 + 4, "join reads o_custkey; Π reads 3 grouping columns + 1 sum"},
		// Π((c ⋈ Γ{o_custkey}(o ⋈ l)) ⋈ n): Γ reads its key and its one
		// argument, the top join c_nationkey, Π three grouping columns and
		// the revenue sum.
		{"Q10", 2 + 1 + 4, "Γ reads 2; join reads c_nationkey; Π reads 4"},
		// Γ(final)(((c ⋈ o) ⋈ l) ⋈ (s ⋈ (n ⋈ r))): o_orderkey; n_nationkey of
		// n ⋈ r; both key columns of either side of the two-column join
		// with the suppliers; the final Γ's key and argument.
		{"Q5", 1 + 1 + 4 + 2, "joins read 1 + 1 + 4; Γ(final) reads 2"},
	} {
		q := tpch.Queries()[c.query]
		tables := tpch.GenerateTables(rand.New(rand.NewSource(1)), q, tpch.ExecutionScaleAt(c.query, 100))
		res, err := core.Optimize(q, core.Options{Algorithm: core.AlgEAPrune, Phys: core.PhysModeHash})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			opts := engine.ExecOptions{Workers: workers, Runtime: engine.RuntimeBatch, MorselSize: 1024}
			_, stats, err := engine.ExecProfiledOpts(q, res.Plan, tables, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := stats.Hash.GatherCols; got != c.cols {
				t.Errorf("%s workers=%d: %d columns gathered, want %d (%s)\n%s", c.query, workers, got, c.cols, c.plan, res.Plan)
			}
		}
	}
}

// TestSortAllocBudget is the same kind of gate for the columnar sort
// layer, against the hash layer on the same data: the sort-merge joins
// and sort-groups may add their pointer-free sort scratch and nothing per
// row beyond it. Q3 may allocate at most 2 × the hash plan's bytes, in at
// most 10k objects (the row sort layer took 4.2× and 382k at factor 500);
// since intermediates are recycled (PR 25) both plans allocate about their
// result's rows alone, and the sort plan reads 0.98 × the hash plan's
// bytes in ~180 objects. Ex, whose hash form allocates almost nothing (25
// groups), may add at most 32 bytes per sorted input row — supplier and
// customer, each sorted once on its nation key (it was ~175× the hash
// figure; it now adds none).
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
