package engine_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"eagg/internal/algebra"
	"eagg/internal/core"
	"eagg/internal/engine"
	"eagg/internal/query"
	"eagg/internal/tpch"
)

// TestResultSurvivesReuse: an execution's intermediates go back to the
// free lists when it returns (algebra.Exec.Release), so a result must
// share no memory with them. Q3's result is kept while Q10, Q5 and Q3
// again run on both physical layers and worker counts — every pooled
// buffer is served again and overwritten — and must still equal the row
// oracle value for value, as must every result along the way. The
// repeated Q3 must be served at least 90 % of its buffers from the lists.
func TestResultSurvivesReuse(t *testing.T) {
	// For the reuse check: a collection empties the free lists, and a
	// sync.Pool's per-P private slot is out of reach from the other Ps.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	type shape struct {
		q      *query.Query
		tables engine.TableData
		plans  map[core.PhysMode]*core.Result
	}
	shapes := map[string]*shape{}
	for _, name := range []string{"Q3", "Q10", "Q5"} {
		q := tpch.Queries()[name]
		sh := &shape{q: q, tables: tpch.GenerateTables(rand.New(rand.NewSource(3)), q, tpch.ExecutionScaleAt(name, 100)),
			plans: map[core.PhysMode]*core.Result{}}
		for _, phys := range []core.PhysMode{core.PhysModeHash, core.PhysModeSort} {
			res, err := core.Optimize(q, core.Options{Algorithm: core.AlgEAPrune, Phys: phys})
			if err != nil {
				t.Fatal(err)
			}
			sh.plans[phys] = res
		}
		shapes[name] = sh
	}
	run := func(name string, phys core.PhysMode, workers int) (*algebra.Table, *engine.ExecStats) {
		t.Helper()
		sh := shapes[name]
		tab, stats, err := engine.ExecProfiledOpts(sh.q, sh.plans[phys].Plan, sh.tables, engine.ExecOptions{Workers: workers})
		if err != nil {
			t.Fatalf("%s %v workers=%d: %v", name, phys, workers, err)
		}
		return tab, stats
	}
	oracle := func(name string, phys core.PhysMode) *algebra.Table {
		t.Helper()
		sh := shapes[name]
		tab, _, err := engine.ExecProfiledOpts(sh.q, sh.plans[phys].Plan, sh.tables, engine.RowOracle)
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}

	first, _ := run("Q3", core.PhysModeHash, 1)
	for _, name := range []string{"Q10", "Q5", "Q3"} {
		for _, phys := range []core.PhysMode{core.PhysModeSort, core.PhysModeHash} {
			for _, workers := range []int{2, 1} {
				got, _ := run(name, phys, workers)
				identicalTables(t, fmt.Sprintf("%s %v workers=%d", name, phys, workers), oracle(name, phys), got)
			}
		}
	}
	again, stats := run("Q3", core.PhysModeHash, 1)
	want := oracle("Q3", core.PhysModeHash)
	identicalTables(t, "the kept Q3 result", want, first)
	identicalTables(t, "Q3 repeated", want, again)

	h := stats.Hash
	t.Logf("repeated Q3: %.2f of %.2f MB served from the free lists", float64(h.BufReused)/1e6, float64(h.BufBytes)/1e6)
	if h.BufBytes == 0 {
		t.Fatal("Q3 took no buffer through the recycler")
	}
	if !raceEnabled && float64(h.BufReused) < 0.9*float64(h.BufBytes) {
		t.Errorf("repeated Q3 reused %d of %d bytes, under 90 %%", h.BufReused, h.BufBytes)
	}
}
