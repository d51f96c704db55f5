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

// dpAllocs runs the exact DP at Workers 1 over the query, through the entry
// run() calls, so EA-Prune's H1 pass is measured with it — scans, pair
// enumeration and query analysis happen before the measured window — and
// returns the bytes and objects it allocated with the run's counters.
func dpAllocs(t *testing.T, q *query.Query, alg Algorithm) (bytes, objects uint64, stats Stats) {
	t.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	g := pooledGenerator(q, Options{Algorithm: alg, Workers: 1})
	g.scans()
	pairs := g.det.Graph.CsgCmpPairs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g.exact(pairs, 1)
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
// and only survivors become nodes, so an EA-Prune run, the H1 pass that
// bounds it included, may allocate at most the bytes below: 313 KB for
// rand14.2 and 12.6 MB for star12, 1.18 times the 264 KB and 10.6 MB
// measured once plan.Plan shrank from 312 to 272 bytes (they were 282 KB
// and 11.4 MB before, gated at 334 KB and 13.6 MB). The incumbent bound
// (see excluded) stopped building the trees no entry could keep without
// moving the bytes: the trees did (2,863 → 1,841 and 156,477 → 145,224),
// so a per-tree budget would have loosened. Per tree built it was
// ≈ 1,000 B when every candidate was a node with its own key, profile and
// predicate slices, and rand14.2 allocated 3.2 MB before the H1 pass. A
// single-plan generator allocates a constant per level: its nodes come out
// of the arena, and an entry keeps its one plan in its own slot (107
// objects for chain12/H1 while each entry allocated a list, 39 since).
func TestEAPruneAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation does not repeat under the race detector")
	}
	for _, c := range []struct {
		name    string
		q       *query.Query
		ceiling uint64
	}{{"rand14.2", rand14dot2(), 313e3}, {"star12", randquery.Star(12), 12.6e6}} {
		bytes, _, stats := dpAllocs(t, c.q, AlgEAPrune)
		built := stats.PlansBuilt + stats.BoundPlansBuilt
		t.Logf("%s/EA-Prune: %d B for %d plans built (%d by the H1 pass; %d retained): %.0f B per plan built",
			c.name, bytes, built, stats.BoundPlansBuilt, stats.TablePlans, float64(bytes)/float64(built))
		if bytes > c.ceiling {
			t.Errorf("%s/EA-Prune allocates %d B, over %d", c.name, bytes, c.ceiling)
		}
	}
	// The counters are process-wide; the least of three runs sheds what a
	// runtime goroutine allocated meanwhile.
	_, objects, stats := dpAllocs(t, randquery.Chain(12), AlgH1)
	for i := 0; i < 2; i++ {
		_, o, _ := dpAllocs(t, randquery.Chain(12), AlgH1)
		objects = min(objects, o)
	}
	budget := uint64(4 * len(stats.Levels))
	t.Logf("chain12/H1: %d objects for %d retained plans over %d levels", objects, stats.TablePlans, len(stats.Levels))
	if objects > budget {
		t.Errorf("chain12/H1 allocates %d objects, over 4 per level (%d levels)", objects, len(stats.Levels))
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
// engine: the DP workers come back from the pool with their scratch,
// buffers and arena chunks, so one Optimize of rand6.0 (EA-Prune, Workers
// 1) allocates its result (four slabs), the query analysis, the pair list
// and the table: ≈ 11.3 KB in 90 objects. With only the arenas pooled it
// was ≈ 17.8 KB in 206 objects (a fresh worker, a heap scan leaf per
// relation, a list per single-plan entry, four allocations per result
// node), and with an arena of fresh chunks per run ≈ 68 KB.
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
	// last Put misses that P's pooled worker once.
	least, objects := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Optimize(q, opts); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
		objects = min(objects, after.Mallocs-before.Mallocs)
	}
	t.Logf("rand6.0/EA-Prune: %d B in %d objects per Optimize once warm", least, objects)
	if least > 20<<10 || objects > 128 {
		t.Errorf("rand6.0/EA-Prune allocates %d B in %d objects per Optimize once warm, over 20 KiB or 128 objects", least, objects)
	}
}
