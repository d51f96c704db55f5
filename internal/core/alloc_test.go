package core

import (
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"eagg/internal/query"
	"eagg/internal/randquery"
)

// dpAllocs runs the DP driver at Workers 1 over the query — scans, pair
// enumeration and query analysis happen before the measured window — and
// returns the bytes and objects it allocated with the run's counters.
func dpAllocs(t *testing.T, q *query.Query, alg Algorithm) (bytes, objects uint64, stats Stats) {
	t.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	g := newGenerator(q, Options{Algorithm: alg, Workers: 1})
	g.scans()
	pairs := g.det.Graph.CsgCmpPairs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g.runLevels(pairs, 1)
	runtime.ReadMemStats(&after)
	for _, e := range g.table {
		g.stats.TablePlans += len(e.plans)
	}
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs, g.stats
}

// rand14dot2 rebuilds rand14.2 of the benchmark's optimize_cold population
// (bench/optimize.go: populationSeed 1, ten queries each at n = 6, 8, …).
func rand14dot2() *query.Query {
	rng := rand.New(rand.NewSource(1))
	var q *query.Query
	for i := 0; i <= 42; i++ {
		q = randquery.Generate(rng, randquery.Params{Relations: 6 + 2*(i/10)})
	}
	return q
}

// TestEAPruneAllocBudget is the deterministic stand-in for a timing gate
// on the DP's candidate path: allocation repeats to a fraction of a
// percent where wall time does not. Candidates are estimated in scratch
// and only survivors become nodes, and a frontier's rows move into the
// buffer an earlier entry handed back, so an EA-Prune run may allocate at
// most the bytes per plan built below — 10 % over what was measured; it
// was ≈ 1,000 when every candidate was a node with its own key, profile and
// predicate slices, and 114/102 while every frontier regrew its own rows —
// and a single-plan generator at most one object per retained plan — its
// entry's slot; the nodes come out of the arena — plus a constant per
// level.
func TestEAPruneAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation does not repeat under the race detector")
	}
	for _, c := range []struct {
		name   string
		q      *query.Query
		budget float64
	}{{"rand14.2", rand14dot2(), 81}, {"star12", randquery.Star(12), 94}} {
		bytes, _, stats := dpAllocs(t, c.q, AlgEAPrune)
		per := float64(bytes) / float64(stats.PlansBuilt)
		t.Logf("%s/EA-Prune: %d B for %d plans built (%d retained): %.0f B per plan built", c.name, bytes, stats.PlansBuilt, stats.TablePlans, per)
		if per > c.budget {
			t.Errorf("%s/EA-Prune allocates %.0f B per plan built, over %.0f", c.name, per, c.budget)
		}
	}
	// The counters are process-wide; the least of three runs sheds what a
	// runtime goroutine allocated meanwhile.
	_, objects, stats := dpAllocs(t, randquery.Chain(12), AlgH1)
	for i := 0; i < 2; i++ {
		_, o, _ := dpAllocs(t, randquery.Chain(12), AlgH1)
		objects = min(objects, o)
	}
	budget := uint64(stats.TablePlans + 4*len(stats.Levels))
	t.Logf("chain12/H1: %d objects for %d retained plans over %d levels", objects, stats.TablePlans, len(stats.Levels))
	if objects > budget {
		t.Errorf("chain12/H1 allocates %d objects, over one per retained plan (%d) + 4 per level (%d)", objects, stats.TablePlans, len(stats.Levels))
	}

	// chain64/H1 is the bitset.VSet path, measured over the whole of
	// Optimize — the pair enumeration is half of what it allocates. It took
	// 88.7 MB and 28 objects per csg-cmp-pair while the enumeration kept a
	// de-duplication map and a second, sorted copy of its 128-byte pairs,
	// and every pair walked the edge list and rebuilt attribute sets.
	chain64 := randquery.Chain(64)
	var bytes, pairs uint64
	objects = math.MaxUint64
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := Optimize(chain64, Options{Algorithm: AlgH1, Workers: 1})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		bytes, pairs = after.TotalAlloc-before.TotalAlloc, uint64(res.Stats.CsgCmpPairs)
		objects = min(objects, after.Mallocs-before.Mallocs)
	}
	t.Logf("chain64/H1: %.1f MB and %d objects for %d pairs: %.1f objects per pair", float64(bytes)/1e6, objects, pairs, float64(objects)/float64(pairs))
	if bytes > 45e6 || objects > 8*pairs {
		t.Errorf("chain64/H1 allocates %.1f MB and %.1f objects per pair, over 45 MB or 8 per pair", float64(bytes)/1e6, float64(objects)/float64(pairs))
	}
}

// TestSteadyStateOptimizeAllocs gates what a small optimization allocates
// once the process is warm, the case of a plan-cache miss in a serving
// engine: the DP arenas come back from the pool with their chunks, so one
// Optimize of rand6.0 (EA-Prune, Workers 1) allocates its result, the
// query analysis, the pair list and the table, ≈ 19 KB. With an arena of
// fresh chunks per run it allocated ≈ 68 KB.
func TestSteadyStateOptimizeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	q := randquery.Generate(rand.New(rand.NewSource(1)), randquery.Params{Relations: 6})
	opts := Options{Algorithm: AlgEAPrune, Workers: 1}
	if _, err := Optimize(q, opts); err != nil {
		t.Fatal(err)
	}
	// The least of three: a goroutine that moved to another P since the
	// last Put misses that P's pooled arena once.
	least := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Optimize(q, opts); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("rand6.0/EA-Prune: %d B per Optimize once warm", least)
	if least > 32<<10 {
		t.Errorf("rand6.0/EA-Prune allocates %d B per Optimize once warm, over 32 KiB", least)
	}
}
