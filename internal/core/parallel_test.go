package core

import (
	"math/rand"
	"runtime"
	"testing"

	"eagg/internal/bitset"
	"eagg/internal/cost"
	"eagg/internal/hypergraph"
	"eagg/internal/plan"
	"eagg/internal/query"
	"eagg/internal/randquery"
)

// TestParallelDeterminism is the central contract of the parallel driver:
// for every algorithm, optimizing with Workers: 8 must return a plan that
// is bit-identical (structure, cardinalities, costs, keys) to the
// sequential reference path, with identical search-effort counters. The
// loop covers well over 50 random queries across relation counts.
func TestParallelDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(20152))
	type algCfg struct {
		alg  Algorithm
		f    float64
		maxN int
	}
	algs := []algCfg{
		{AlgDPhyp, 0, 10},
		{AlgH1, 0, 10},
		{AlgH2, 1.03, 10},
		{AlgBeam, 0, 10},
		{AlgEAPrune, 0, 9},
		{AlgEAAll, 0, 7},
	}
	queries := 0
	for n := 3; n <= 10; n++ {
		for trial := 0; trial < 8; trial++ {
			q := randquery.Generate(rng, randquery.Params{Relations: n})
			queries++
			for _, c := range algs {
				if n > c.maxN {
					continue
				}
				seq, err := Optimize(q, Options{Algorithm: c.alg, F: c.f, Workers: 1})
				if err != nil {
					t.Fatalf("n=%d trial=%d %v sequential: %v", n, trial, c.alg, err)
				}
				par, err := Optimize(q, Options{Algorithm: c.alg, F: c.f, Workers: 8})
				if err != nil {
					t.Fatalf("n=%d trial=%d %v parallel: %v", n, trial, c.alg, err)
				}
				if !plan.Equal(seq.Plan, par.Plan) {
					t.Fatalf("n=%d trial=%d %v: parallel plan differs\nsequential (cost %.17g):\n%v\nparallel (cost %.17g):\n%v",
						n, trial, c.alg, seq.Plan.Cost, seq.Plan, par.Plan.Cost, par.Plan)
				}
				if seq.Stats.PlansBuilt != par.Stats.PlansBuilt ||
					seq.Stats.TablePlans != par.Stats.TablePlans ||
					seq.Stats.CsgCmpPairs != par.Stats.CsgCmpPairs {
					t.Fatalf("n=%d trial=%d %v: stats diverged: sequential %+v parallel %+v",
						n, trial, c.alg, seq.Stats, par.Stats)
				}
			}
		}
	}
	if queries < 50 {
		t.Fatalf("workload too small: %d queries", queries)
	}
}

// TestWorkersOption pins the Workers semantics: 0 resolves to GOMAXPROCS,
// explicit counts are reported back, and every level is reported.
func TestWorkersOption(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	q := randquery.Generate(rng, randquery.Params{Relations: 6})

	res, err := Optimize(q, Options{Algorithm: AlgH1})
	if err != nil {
		t.Fatal(err)
	}
	if want := runtime.GOMAXPROCS(0); res.Stats.Workers != want {
		t.Errorf("Workers 0: got %d workers, want GOMAXPROCS %d", res.Stats.Workers, want)
	}

	res, err = Optimize(q, Options{Algorithm: AlgH1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Workers != 1 {
		t.Errorf("Workers 1: got %d", res.Stats.Workers)
	}
	if len(res.Stats.Levels) == 0 {
		t.Error("no per-level stats recorded")
	}
	pairs := 0
	for _, l := range res.Stats.Levels {
		pairs += l.Pairs
		if l.Level < 2 || l.Level > 6 {
			t.Errorf("implausible level %d", l.Level)
		}
		if l.Subsets <= 0 || l.Subsets > l.Pairs {
			t.Errorf("level %d: %d subsets for %d pairs", l.Level, l.Subsets, l.Pairs)
		}
	}
	if pairs != res.Stats.CsgCmpPairs {
		t.Errorf("level pairs sum %d != enumerated pairs %d", pairs, res.Stats.CsgCmpPairs)
	}
}

// TestSingleRelationStats pins the Stats contract on the trivial path: a
// single-relation query enumerates no pairs, so the driver is trivially
// sequential and must report Workers == 1 regardless of the option.
func TestSingleRelationStats(t *testing.T) {
	q := query.New()
	r := q.AddRelation("only", 1000)
	q.AddAttr(r, "only.a", 10)
	q.Root = &query.OpNode{Kind: query.KindScan, Rel: r}
	res, err := Optimize(q, Options{Algorithm: AlgH1, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Workers != 1 {
		t.Errorf("single-relation query reported Workers %d, want 1", res.Stats.Workers)
	}
}

// TestGroupBySubset checks the parallel work-unit construction: keys keep
// first-appearance order, pair order within a key is preserved, and the
// tasks partition the chunk.
func TestGroupBySubset(t *testing.T) {
	mk := func(a, b uint64) hypergraph.CsgCmpPair[bitset.Set64] {
		return hypergraph.CsgCmpPair[bitset.Set64]{S1: bitset.Set64(a), S2: bitset.Set64(b)}
	}
	chunk := []hypergraph.CsgCmpPair[bitset.Set64]{
		mk(0b0011, 0b0100), // union 0b0111
		mk(0b1001, 0b0110), // union 0b1111
		mk(0b0101, 0b0010), // union 0b0111 again
		mk(0b0110, 0b0001), // union 0b0111 again
	}
	tasks := groupBySubset(chunk)
	if len(tasks) != 2 {
		t.Fatalf("got %d tasks, want 2", len(tasks))
	}
	if tasks[0].s != 0b0111 || tasks[1].s != 0b1111 {
		t.Fatalf("task keys out of order: %v, %v", tasks[0].s, tasks[1].s)
	}
	if len(tasks[0].pairs) != 3 || len(tasks[1].pairs) != 1 {
		t.Fatalf("pair partition wrong: %d + %d", len(tasks[0].pairs), len(tasks[1].pairs))
	}
	if tasks[0].pairs[0] != chunk[0] || tasks[0].pairs[1] != chunk[2] || tasks[0].pairs[2] != chunk[3] {
		t.Error("pair order within a task not preserved")
	}
}

// TestParallelExercisesPool makes sure the determinism guarantee is not
// vacuous at the default cutoff: on a query whose levels are wide enough,
// at least one level must cross dpParallelCutoff and fan out, and the run
// must still match Workers: 1. levelWork over the finished table counts
// the crossing levels exactly, since each level reads only sealed lower
// ones.
func TestParallelExercisesPool(t *testing.T) {
	q := randquery.Star(12)
	seq, err := Optimize(q, Options{Algorithm: AlgEAPrune, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := newGenerator(q, Options{Algorithm: AlgEAPrune, Workers: 4})
	g.parallelCutoff = dpParallelCutoff
	par, err := g.run()
	if err != nil {
		t.Fatal(err)
	}
	if par.Stats.Workers != 4 {
		t.Fatalf("got %d workers", par.Stats.Workers)
	}
	pooled := 0
	forEachLevel(g.det.Graph.CsgCmpPairs(), func(_ int, chunk []hypergraph.CsgCmpPair[bitset.Set64]) {
		if g.levelWork(chunk, dpParallelCutoff) >= dpParallelCutoff {
			pooled++
		}
	})
	if pooled == 0 {
		t.Error("no level crossed dpParallelCutoff; pool never exercised")
	}
	if !plan.Equal(seq.Plan, par.Plan) || seq.Stats.PlansBuilt != par.Stats.PlansBuilt || seq.Stats.TablePlans != par.Stats.TablePlans {
		t.Fatalf("pooled run diverges: sequential %d built, %d retained; pool %d built, %d retained",
			seq.Stats.PlansBuilt, seq.Stats.TablePlans, par.Stats.PlansBuilt, par.Stats.TablePlans)
	}
	t.Logf("%d of %d levels pooled", pooled, len(par.Stats.Levels))
}

// TestParallelDeterminismWithStats extends the determinism contract to
// the stats-provider seam: optimizer workers share one read-only
// FeedbackOverlay across their estimator clones, and any worker count
// must return plans bit-identical to the sequential path under the same
// overlay. The overlay is synthesized from a first (model-only) run by
// perturbing every costed operator's estimate, so lookups actually fire
// on hot paths.
func TestParallelDeterminismWithStats(t *testing.T) {
	rng := rand.New(rand.NewSource(8841))
	for n := 3; n <= 9; n++ {
		for trial := 0; trial < 4; trial++ {
			q := randquery.Generate(rng, randquery.Params{Relations: n})
			base, err := Optimize(q, Options{Algorithm: AlgEAPrune, Workers: 1})
			if err != nil {
				t.Fatalf("n=%d trial=%d base: %v", n, trial, err)
			}
			overlay := cost.NewFeedbackOverlay()
			var harvest func(p *plan.Plan)
			harvest = func(p *plan.Plan) {
				if p == nil {
					return
				}
				if key, ok := cost.KeyOf(p); ok {
					overlay.Set(key, p.Card/3+1) // a "measurement" ≠ the model
				}
				harvest(p.Left)
				harvest(p.Right)
			}
			harvest(base.Plan)
			if overlay.Len() == 0 {
				continue
			}
			seq, err := Optimize(q, Options{Algorithm: AlgEAPrune, Workers: 1, Stats: overlay})
			if err != nil {
				t.Fatalf("n=%d trial=%d seq overlay: %v", n, trial, err)
			}
			par, err := Optimize(q, Options{Algorithm: AlgEAPrune, Workers: 8, Stats: overlay})
			if err != nil {
				t.Fatalf("n=%d trial=%d par overlay: %v", n, trial, err)
			}
			if !plan.Equal(seq.Plan, par.Plan) {
				t.Fatalf("n=%d trial=%d: overlay plans diverge\nseq:\n%v\npar:\n%v", n, trial, seq.Plan, par.Plan)
			}
		}
	}
}
