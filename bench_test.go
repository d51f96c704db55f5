// Benchmarks regenerating the paper's evaluation (Sec. 5), one family per
// table and figure. Run them with
//
//	go test -bench=. -benchmem
//
// Figures 15/17 are plan-quality experiments: their benchmarks measure the
// optimizers and additionally report the average relative plan cost via
// the "relcost" metric (the y-axis of the figure). Figures 16/18 are
// runtime experiments: the benchmark time itself is the y-axis. The
// full series (all relation counts, printable rows) come from cmd/eabench.
package eagg_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"eagg/internal/aggfn"
	"eagg/internal/bitset"
	"eagg/internal/conflict"
	"eagg/internal/core"
	"eagg/internal/engine"
	"eagg/internal/experiments"
	"eagg/internal/obs"
	"eagg/internal/query"
	"eagg/internal/randquery"
	"eagg/internal/service"
	"eagg/internal/tpch"
)

// workload generates a fixed batch of queries for a relation count.
func workload(n, count int) []*query.Query {
	rng := rand.New(rand.NewSource(int64(1000 + n)))
	out := make([]*query.Query, count)
	for i := range out {
		out[i] = randquery.Generate(rng, randquery.Params{Relations: n})
	}
	return out
}

// optimizeAll pins Workers: 1: the figure benchmarks reproduce the
// paper's single-threaded measurement conditions; parallel scaling is
// measured separately by BenchmarkOptimizeParallel.
func optimizeAll(b *testing.B, qs []*query.Query, alg core.Algorithm, f float64) float64 {
	b.Helper()
	var lastCost float64
	for _, q := range qs {
		res, err := core.Optimize(q, core.Options{Algorithm: alg, F: f, Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		lastCost = res.Plan.Cost
	}
	return lastCost
}

// BenchmarkFig15 measures the gain of eager aggregation: per relation
// count, it optimizes the workload with DPhyp and EA-Prune and reports the
// average cost ratio (the paper's Fig. 15 y-axis, growing to ≈18× at 13
// relations).
func BenchmarkFig15(b *testing.B) {
	for _, n := range []int{4, 6, 8, 10} {
		b.Run(fmt.Sprintf("relations=%d", n), func(b *testing.B) {
			qs := workload(n, 8)
			ratioSum, samples := 0.0, 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, q := range qs {
					d, err := core.Optimize(q, core.Options{Algorithm: core.AlgDPhyp, Workers: 1})
					if err != nil {
						b.Fatal(err)
					}
					p, err := core.Optimize(q, core.Options{Algorithm: core.AlgEAPrune, Workers: 1})
					if err != nil {
						b.Fatal(err)
					}
					ratioSum += d.Plan.Cost / p.Plan.Cost
					samples++
				}
			}
			b.ReportMetric(ratioSum/float64(samples), "relcost")
		})
	}
}

// BenchmarkFig16 measures optimization runtime per algorithm and relation
// count (the paper's Fig. 16): EA-All explodes first, EA-Prune later,
// DPhyp and H1 stay fast with H1 a small constant factor above DPhyp.
func BenchmarkFig16(b *testing.B) {
	type cfgT struct {
		name string
		alg  core.Algorithm
		maxN int
	}
	cfgs := []cfgT{
		{"DPhyp", core.AlgDPhyp, 14},
		{"H1", core.AlgH1, 14},
		{"EA-Prune", core.AlgEAPrune, 10},
		{"EA-All", core.AlgEAAll, 7},
	}
	for _, cfg := range cfgs {
		for _, n := range []int{4, 7, 10, 14} {
			if n > cfg.maxN {
				continue
			}
			b.Run(fmt.Sprintf("%s/relations=%d", cfg.name, n), func(b *testing.B) {
				qs := workload(n, 4)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					optimizeAll(b, qs, cfg.alg, 0)
				}
			})
		}
	}
}

// BenchmarkFig17 measures the heuristics' plan quality relative to the
// EA-Prune optimum (the paper's Fig. 17: H2 with F=1.03 lands within a few
// percent).
func BenchmarkFig17(b *testing.B) {
	type hT struct {
		name string
		alg  core.Algorithm
		f    float64
	}
	hs := []hT{
		{"H1", core.AlgH1, 0},
		{"H2_F1.01", core.AlgH2, 1.01},
		{"H2_F1.03", core.AlgH2, 1.03},
		{"H2_F1.05", core.AlgH2, 1.05},
		{"H2_F1.10", core.AlgH2, 1.10},
	}
	n := 8
	qs := workload(n, 8)
	opt := make([]float64, len(qs))
	for i, q := range qs {
		res, err := core.Optimize(q, core.Options{Algorithm: core.AlgEAPrune, Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		opt[i] = res.Plan.Cost
	}
	for _, h := range hs {
		b.Run(fmt.Sprintf("%s/relations=%d", h.name, n), func(b *testing.B) {
			ratioSum, samples := 0.0, 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for qi, q := range qs {
					res, err := core.Optimize(q, core.Options{Algorithm: h.alg, F: h.f, Workers: 1})
					if err != nil {
						b.Fatal(err)
					}
					ratioSum += res.Plan.Cost / opt[qi]
					samples++
				}
			}
			b.ReportMetric(ratioSum/float64(samples), "relcost")
		})
	}
}

// BenchmarkFig18 measures H2 relative to H1 (the paper's Fig. 18: nearly
// identical, H2 often slightly faster). Compare the two sub-benchmarks'
// ns/op.
func BenchmarkFig18(b *testing.B) {
	for _, n := range []int{6, 10, 14} {
		qs := workload(n, 4)
		b.Run(fmt.Sprintf("H1/relations=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				optimizeAll(b, qs, core.AlgH1, 0)
			}
		})
		b.Run(fmt.Sprintf("H2/relations=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				optimizeAll(b, qs, core.AlgH2, 1.03)
			}
		})
	}
}

// BenchmarkTable1 executes the Fig. 11 example trees (the C_out
// walk-through behind Table 1).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Table1()
		if r.CoutGroupLazy != 10 || r.CoutGroupEager != 9 {
			b.Fatal("Table 1 values drifted")
		}
	}
}

// BenchmarkTable2 optimizes the TPC-H queries with each algorithm (the
// optimization-time columns of Table 2).
func BenchmarkTable2(b *testing.B) {
	for name, q := range tpch.Queries() {
		for _, alg := range []struct {
			name string
			a    core.Algorithm
			f    float64
		}{
			{"EA", core.AlgEAPrune, 0},
			{"H1", core.AlgH1, 0},
			{"H2", core.AlgH2, 1.03},
			{"DPhyp", core.AlgDPhyp, 0},
		} {
			b.Run(name+"/"+alg.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := core.Optimize(q, core.Options{Algorithm: alg.a, F: alg.f, Workers: 1}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// starQuery builds an n-relation star: a large fact relation inner-joined
// to n-1 keyed dimensions through foreign keys, grouped on a fact
// attribute. Star graphs are the parallel driver's best case: level L
// holds C(n-1, L-1) distinct subproblem keys, so every level fans out.
func starQuery(n int) *query.Query {
	q := query.New()
	fact := q.AddRelation("fact", 1_000_000)
	g := q.AddAttr(fact, "fact.g", 50)
	v := q.AddAttr(fact, "fact.v", 500_000)
	root := &query.OpNode{Kind: query.KindScan, Rel: fact}
	for i := 1; i < n; i++ {
		card := float64(100 * i)
		d := q.AddRelation(fmt.Sprintf("dim%d", i), card)
		pk := q.AddAttr(d, fmt.Sprintf("dim%d.pk", i), card)
		q.AddKey(d, pk)
		fk := q.AddAttr(fact, fmt.Sprintf("fact.fk%d", i), card)
		root = &query.OpNode{
			Kind:  query.KindJoin,
			Left:  root,
			Right: &query.OpNode{Kind: query.KindScan, Rel: d},
			Pred:  &query.Predicate{Left: []int{fk}, Right: []int{pk}, Selectivity: 1 / card},
		}
	}
	q.Root = root
	q.SetGrouping([]int{g}, aggfn.Vector{
		{Out: "cnt", Kind: aggfn.CountStar},
		{Out: "total", Kind: aggfn.Sum, Arg: q.AttrNames[v]},
	})
	return q
}

// chainQuery builds an n-relation chain R0 ⋈ R1 ⋈ … ⋈ R(n-1), grouped on
// attributes of both endpoints. Chains are the parallel driver's hardest
// case: level L holds only n-L+1 intervals, so the fan-out is narrow.
func chainQuery(n int) *query.Query {
	q := query.New()
	cards := make([]float64, n)
	for i := 0; i < n; i++ {
		cards[i] = float64(1000 * (1 + (i*7919)%97))
		q.AddRelation(fmt.Sprintf("R%d", i), cards[i])
	}
	root := &query.OpNode{Kind: query.KindScan, Rel: 0}
	for i := 1; i < n; i++ {
		la := q.AddAttr(i-1, fmt.Sprintf("R%d.j%d", i-1, i), cards[i-1]/2)
		ra := q.AddAttr(i, fmt.Sprintf("R%d.j%d", i, i), cards[i]/2)
		root = &query.OpNode{
			Kind:  query.KindJoin,
			Left:  root,
			Right: &query.OpNode{Kind: query.KindScan, Rel: i},
			Pred:  &query.Predicate{Left: []int{la}, Right: []int{ra}, Selectivity: 2 / cards[i]},
		}
	}
	q.Root = root
	g0 := q.AddAttr(0, "R0.g", 20)
	gn := q.AddAttr(n-1, fmt.Sprintf("R%d.g", n-1), 20)
	v := q.AddAttr(0, "R0.v", cards[0])
	q.SetGrouping([]int{g0, gn}, aggfn.Vector{
		{Out: "cnt", Kind: aggfn.CountStar},
		{Out: "total", Kind: aggfn.Sum, Arg: q.AttrNames[v]},
	})
	return q
}

// BenchmarkOptimizeParallel measures the DP driver's pool
// (Options.Workers) on 12-relation chain and star workloads. Workers: 1 is
// the inline reference; plans are bit-identical for every worker
// count, so the ns/op ratio between the sub-benchmarks is a pure speedup
// measurement. Run on a multi-core machine to see the scaling (per-level
// barriers bound the speedup by the widest level's task count; star
// queries fan out much wider than chains).
func BenchmarkOptimizeParallel(b *testing.B) {
	shapes := []struct {
		name string
		q    *query.Query
	}{
		{"star12", starQuery(12)},
		{"chain12", chainQuery(12)},
	}
	algs := []struct {
		name string
		alg  core.Algorithm
	}{
		{"H1", core.AlgH1},
		{"EA-Prune", core.AlgEAPrune},
	}
	for _, sh := range shapes {
		for _, a := range algs {
			for _, w := range []int{1, 2, 4, 8} {
				b.Run(fmt.Sprintf("%s/%s/workers=%d", sh.name, a.name, w), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if _, err := core.Optimize(sh.q, core.Options{Algorithm: a.alg, Workers: w}); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkOptimizeHeavyCells times the five cells that decided the repo
// benchmark's optimize_cold workload (together ≈ 80 % of a 261-cell pass
// until EA-Prune's H1 bound cut the three random ones 4–15×): EA-Prune on
// rand16.5, rand14.2, rand14.6 and star12 — dominance pruning — and
// H1 on chain64, the bitset.VSet path. The random queries
// are that benchmark's frozen population, redrawn from its seed in its
// order; workers are left at the default, as the workload leaves them.
// The CI smoke's 'Optimize' pattern picks it up with -benchmem, so the
// cells' ns/op and B/op land in BENCH_ci.json.
func BenchmarkOptimizeHeavyCells(b *testing.B) {
	type cell struct {
		name string
		q    *query.Query
		alg  core.Algorithm
	}
	heavy := map[string]bool{"rand16.5": true, "rand14.2": true, "rand14.6": true}
	var cells []cell
	rng := rand.New(rand.NewSource(1)) // bench/optimize.go: populationSeed
	for n := 6; n <= 16; n += 2 {
		for i := 0; i < 10; i++ {
			q := randquery.Generate(rng, randquery.Params{Relations: n})
			if name := fmt.Sprintf("rand%d.%d", n, i); heavy[name] {
				cells = append(cells, cell{name, q, core.AlgEAPrune})
			}
		}
	}
	cells = append(cells, cell{"star12", randquery.Star(12), core.AlgEAPrune}, cell{"chain64", randquery.Chain(64), core.AlgH1})
	for _, c := range cells {
		b.Run(fmt.Sprintf("%s/%v", c.name, c.alg), func(b *testing.B) {
			built := 0
			for i := 0; i < b.N; i++ {
				res, err := core.Optimize(c.q, core.Options{Algorithm: c.alg})
				if err != nil {
					b.Fatal(err)
				}
				built = res.Stats.PlansBuilt
			}
			b.ReportMetric(float64(built), "built")
		})
	}
}

// BenchmarkLargeEnumeration measures the wide set representation past
// the 63-relation fast path: 100-relation chain and star shapes under
// the generators that stay feasible at that scale, sequentially and with
// the parallel DP. The chain/H1 configurations enumerate exactly
// (166,650 csg-cmp-pairs through the real parallel driver); the star
// configurations and the beam search run against a 20,000-pair budget
// and measure the enumeration-abort + deterministic greedy fallback —
// exact beam DP on a 100-chain builds ~16 trees per pair and would
// dominate the smoke by minutes, and exact star enumeration is
// exponential at any width. Plans are bit-identical across worker
// counts, budgets included.
func BenchmarkLargeEnumeration(b *testing.B) {
	shapes := []struct {
		name string
		q    *query.Query
	}{
		{"chain100", randquery.Chain(100)},
		{"star100", randquery.Star(100)},
	}
	algs := []struct {
		name  string
		alg   core.Algorithm
		width int
	}{
		{"H1", core.AlgH1, 0},
		{"Beam", core.AlgBeam, 4},
	}
	for _, sh := range shapes {
		for _, a := range algs {
			budget := 20000
			if sh.name == "chain100" && a.alg == core.AlgH1 {
				budget = 0 // exact: the default large-query budget covers a 100-chain
			}
			for _, w := range []int{1, 4} {
				b.Run(fmt.Sprintf("%s/%s/workers=%d", sh.name, a.name, w), func(b *testing.B) {
					var pairs int
					for i := 0; i < b.N; i++ {
						res, err := core.Optimize(sh.q, core.Options{
							Algorithm: a.alg, BeamWidth: a.width, Workers: w, PairBudget: budget,
						})
						if err != nil {
							b.Fatal(err)
						}
						pairs = res.Stats.CsgCmpPairs
					}
					b.ReportMetric(float64(pairs), "pairs")
				})
			}
		}
	}
}

// BenchmarkCsgCmpEnumeration isolates the DPhyp substrate (ablation:
// enumeration cost without plan construction).
func BenchmarkCsgCmpEnumeration(b *testing.B) {
	for _, n := range []int{8, 12, 16} {
		qs := workload(n, 1)
		b.Run(fmt.Sprintf("relations=%d", n), func(b *testing.B) {
			det := detectOf(b, qs[0])
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(det.Graph.CsgCmpPairs()) == 0 {
					b.Fatal("no pairs")
				}
			}
		})
	}
}

func detectOf(b *testing.B, q *query.Query) *conflict.Detection[bitset.Set64] {
	b.Helper()
	return conflict.Detect[bitset.Set64](q)
}

// BenchmarkAblationPruning quantifies the paper's central engineering
// choice (Sec. 4.6): how many plans the dominance pruning keeps versus the
// exhaustive table, at identical final plan quality. Reported metrics:
// plans retained across the DP table ("kept") and operator trees
// constructed ("built").
func BenchmarkAblationPruning(b *testing.B) {
	for _, n := range []int{5, 7, 8} {
		qs := workload(n, 3)
		for _, cfg := range []struct {
			name string
			alg  core.Algorithm
		}{
			{"EA-All", core.AlgEAAll},
			{"EA-Prune", core.AlgEAPrune},
		} {
			b.Run(fmt.Sprintf("%s/relations=%d", cfg.name, n), func(b *testing.B) {
				var kept, built float64
				for i := 0; i < b.N; i++ {
					kept, built = 0, 0
					for _, q := range qs {
						res, err := core.Optimize(q, core.Options{Algorithm: cfg.alg, Workers: 1})
						if err != nil {
							b.Fatal(err)
						}
						kept += float64(res.Stats.TablePlans)
						built += float64(res.Stats.PlansBuilt)
					}
				}
				b.ReportMetric(kept/float64(len(qs)), "kept/query")
				b.ReportMetric(built/float64(len(qs)), "built/query")
			})
		}
	}
}

// BenchmarkAblationEagerVariants measures the enumeration overhead the
// eager-aggregation variants add on top of plain join ordering: DPhyp
// builds one tree per (pair, operator), H1 up to four (Fig. 8).
func BenchmarkAblationEagerVariants(b *testing.B) {
	for _, n := range []int{8, 12} {
		qs := workload(n, 4)
		for _, cfg := range []struct {
			name string
			alg  core.Algorithm
		}{
			{"base-trees-only", core.AlgDPhyp},
			{"with-eager-variants", core.AlgH1},
		} {
			b.Run(fmt.Sprintf("%s/relations=%d", cfg.name, n), func(b *testing.B) {
				var built float64
				for i := 0; i < b.N; i++ {
					built = 0
					for _, q := range qs {
						res, err := core.Optimize(q, core.Options{Algorithm: cfg.alg, Workers: 1})
						if err != nil {
							b.Fatal(err)
						}
						built += float64(res.Stats.PlansBuilt)
					}
				}
				b.ReportMetric(built/float64(len(qs)), "built/query")
			})
		}
	}
}

// BenchmarkExecution runs the motivating query's lazy and eager plans on
// generated data — the execution-side counterpart of the paper's HyPer
// measurements (2140 ms vs 1.51 ms at SF-1).
func BenchmarkExecution(b *testing.B) {
	q := tpch.Ex()
	data := tpch.GenerateData(rand.New(rand.NewSource(1)), q, tpch.ExecutionScale("Ex"))
	for _, cfg := range []struct {
		name string
		alg  core.Algorithm
	}{
		{"lazy-DPhyp", core.AlgDPhyp},
		{"eager-EA-Prune", core.AlgEAPrune},
	} {
		res, err := core.Optimize(q, core.Options{Algorithm: cfg.alg, Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := engine.Exec(q, res.Plan, data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExecute measures the execution runtime itself on the
// 3-relation join-aggregate core of TPC-H Q3 (customer ⋈ orders ⋈
// lineitem, grouped with a sum) at three data scales. Two axes:
//
//   - engine=slot is the live executor (schema-resolved slots, hash
//     joins, typed hash aggregation on the batch runtime, one worker);
//     engine=seed is the frozen
//     map-tuple/nested-loop reference executor it replaced. Their ns/op
//     ratio at equal plan and scale is the runtime speedup (the
//     acceptance bar is ≥5x at the largest scale).
//   - plan=lazy (DPhyp) vs plan=eager (EA-Prune) separates the plan
//     effect from the runtime effect.
//
// Data generation is excluded from timing; the slot engine consumes
// columnar tables directly, the seed engine its map-tuple conversion.
func BenchmarkExecute(b *testing.B) {
	q := tpch.Q3()
	plans := []struct {
		name string
		alg  core.Algorithm
	}{
		{"lazy", core.AlgDPhyp},
		{"eager", core.AlgEAPrune},
	}
	for _, sf := range []float64{1, 4, 16} {
		tables := tpch.GenerateTables(rand.New(rand.NewSource(1)), q, tpch.ExecutionScaleAt("Q3", sf))
		data := engine.Data{}
		for id, tab := range tables {
			data[id] = tab.Rel()
		}
		for _, pl := range plans {
			res, err := core.Optimize(q, core.Options{Algorithm: pl.alg, Workers: 1})
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("engine=slot/plan=%s/sf=%g", pl.name, sf), func(b *testing.B) {
				var rows float64
				for i := 0; i < b.N; i++ {
					tab, stats, err := engine.ExecProfiledOpts(q, res.Plan, tables, engine.ExecOptions{Workers: 1})
					if err != nil {
						b.Fatal(err)
					}
					if tab.Card() == 0 {
						b.Fatal("empty result")
					}
					rows += stats.ActualCout
				}
				if secs := b.Elapsed().Seconds(); secs > 0 {
					b.ReportMetric(rows/secs, "rows/s")
				}
			})
			b.Run(fmt.Sprintf("engine=seed/plan=%s/sf=%g", pl.name, sf), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					rel, err := engine.ExecRef(q, res.Plan, data)
					if err != nil {
						b.Fatal(err)
					}
					if rel.Card() == 0 {
						b.Fatal("empty result")
					}
				}
			})
		}
	}
}

// BenchmarkBatchVsRow measures the vectorized batch runtime against the
// sequential row-at-a-time reference on the Q3 and Q5 cores: eager plans at sf 1
// and 4, single-threaded (the two runtimes produce bit-identical
// results, so the ns/op and rows/s ratios are pure runtime speedups).
// The batch axis varies the rows-per-batch granularity around the
// default (1024). The acceptance bar is ≥2x rows/s over runtime=row on
// the Q3 core at sf ≥ 4.
func BenchmarkBatchVsRow(b *testing.B) {
	type rtCase struct {
		name string
		opts engine.ExecOptions
	}
	cases := []rtCase{
		{"runtime=row", rowOracle},
		{"runtime=batch/batch=256", engine.ExecOptions{Workers: 1, Runtime: engine.RuntimeBatch, BatchSize: 256}},
		{"runtime=batch/batch=1024", engine.ExecOptions{Workers: 1, Runtime: engine.RuntimeBatch, BatchSize: 1024}},
		{"runtime=batch/batch=4096", engine.ExecOptions{Workers: 1, Runtime: engine.RuntimeBatch, BatchSize: 4096}},
	}
	for _, qn := range []string{"Q3", "Q5"} {
		q := tpch.Queries()[qn]
		res, err := core.Optimize(q, core.Options{Algorithm: core.AlgEAPrune, Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		for _, sf := range []float64{1, 4} {
			tables := tpch.GenerateTables(rand.New(rand.NewSource(1)), q, tpch.ExecutionScaleAt(qn, sf))
			for _, c := range cases {
				b.Run(fmt.Sprintf("query=%s/sf=%g/%s", qn, sf, c.name), func(b *testing.B) {
					b.ReportAllocs()
					var rows float64
					for i := 0; i < b.N; i++ {
						_, stats, err := engine.ExecProfiledOpts(q, res.Plan, tables, c.opts)
						if err != nil {
							b.Fatal(err)
						}
						// The final result can be legitimately empty at a
						// small scale factor (Q5's filters at sf 1); zero
						// rows at every operator means it didn't run.
						if stats.ActualCout == 0 {
							b.Fatal("plan produced no rows at any operator")
						}
						rows += stats.ActualCout
					}
					if secs := b.Elapsed().Seconds(); secs > 0 {
						b.ReportMetric(rows/secs, "rows/s")
					}
				})
			}
		}
	}
}

// BenchmarkBeamWidths evaluates the beam-search extension (our
// contribution in the paper's future-work direction): per width, the
// runtime is the benchmark time and the reported metric is the average
// relative plan cost against EA-Prune.
func BenchmarkBeamWidths(b *testing.B) {
	n := 8
	qs := workload(n, 6)
	opt := make([]float64, len(qs))
	for i, q := range qs {
		res, err := core.Optimize(q, core.Options{Algorithm: core.AlgEAPrune, Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		opt[i] = res.Plan.Cost
	}
	for _, k := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("width=%d/relations=%d", k, n), func(b *testing.B) {
			ratioSum, samples := 0.0, 0
			for i := 0; i < b.N; i++ {
				for qi, q := range qs {
					res, err := core.Optimize(q, core.Options{Algorithm: core.AlgBeam, BeamWidth: k, Workers: 1})
					if err != nil {
						b.Fatal(err)
					}
					ratioSum += res.Plan.Cost / opt[qi]
					samples++
				}
			}
			b.ReportMetric(ratioSum/float64(samples), "relcost")
		})
	}
}

// BenchmarkFeedback measures the cardinality feedback loop
// (engine.Reoptimize) end to end on TPC-H Q5 — the query whose plan the
// measured cardinalities actually flip — at two data scales × two worker
// counts (workers drive both the optimizer and the morsel-driven
// execution in every round). Reported metrics: rounds to convergence,
// whether feedback changed the plan (1/0), and the plan-level C_out
// q-error reduction of the final round versus the model-only baseline
// (the acceptance bar is ≥10x with a changed plan at sf=1).
func BenchmarkFeedback(b *testing.B) {
	q := tpch.Queries()["Q5"]
	for _, sf := range []float64{1, 4} {
		tables := tpch.GenerateTables(rand.New(rand.NewSource(1)), q, tpch.ExecutionScaleAt("Q5", sf))
		for _, w := range []int{1, 4} {
			b.Run(fmt.Sprintf("sf=%g/workers=%d", sf, w), func(b *testing.B) {
				var rounds, changed int
				var reduction float64
				for i := 0; i < b.N; i++ {
					res, err := engine.Reoptimize(q, tables, engine.FeedbackOptions{
						Opt:  core.Options{Algorithm: core.AlgEAPrune, Workers: w},
						Exec: engine.ExecOptions{Workers: w},
					})
					if err != nil {
						b.Fatal(err)
					}
					if !res.Converged {
						b.Fatal("feedback loop did not converge")
					}
					rounds = len(res.Rounds)
					changed = 0
					if res.PlanChanged() {
						changed = 1
					}
					reduction = res.First().Stats.CoutQError() / res.Final().Stats.CoutQError()
				}
				b.ReportMetric(float64(rounds), "rounds")
				b.ReportMetric(float64(changed), "plan-changed")
				b.ReportMetric(reduction, "qerr-reduction")
			})
		}
	}
}

// BenchmarkSortVsHash measures the sort-based physical layer against the
// hash layer at a size where it means something: the four TPC-H shapes
// at factor 500 (the benchmark's tpch_sort_large data: 200k-row lineitem
// for Q3, 300k customers for Ex) on the batch runtime, workers 1/2.
// phys=hash is the baseline, phys=sort forces sort-merge join /
// sort-group aggregation wherever supported. Results are identical
// across both modes (the differential suites enforce it); ns/op and B/op
// isolate the physical-layer effect and the reported metrics show how
// many sorts the chosen plan performs versus eliminates by reusing
// interesting orders.
func BenchmarkSortVsHash(b *testing.B) {
	modes := []struct {
		name string
		mode core.PhysMode
	}{
		{"hash", core.PhysModeHash},
		{"sort", core.PhysModeSort},
	}
	for _, qn := range []string{"Q3", "Q10", "Q5", "Ex"} {
		q := tpch.Queries()[qn]
		tables := tpch.GenerateTables(rand.New(rand.NewSource(1)), q, tpch.ExecutionScaleAt(qn, 500))
		for _, m := range modes {
			res, err := core.Optimize(q, core.Options{Algorithm: core.AlgEAPrune, Workers: 1, Phys: m.mode})
			if err != nil {
				b.Fatal(err)
			}
			perf, elim := res.Plan.SortStats()
			for _, w := range []int{1, 2} {
				opts := engine.ExecOptions{Workers: w, Runtime: engine.RuntimeBatch}
				b.Run(fmt.Sprintf("%s/phys=%s/workers=%d", qn, m.name, w), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						tab, _, err := engine.ExecProfiledOpts(q, res.Plan, tables, opts)
						if err != nil {
							b.Fatal(err)
						}
						if tab.Card() == 0 {
							b.Fatal("empty result")
						}
					}
					b.ReportMetric(float64(perf), "sorts-performed")
					b.ReportMetric(float64(elim), "sorts-eliminated")
				})
			}
		}
	}
}

// BenchmarkServiceThroughput drives the embedded query-service layer
// with concurrent sessions replaying the Q3 and Q5 shapes against one
// shared engine. cache=cold issues NoCache requests, so every request
// pays the full EA-Prune enumeration; cache=warm primes the plan cache
// first, so every measured request skips DP and goes straight to
// execution. The qps metric is completed requests per second — CI
// records both variants, and the warm/cold ratio is the cache's payoff
// on repeated shapes. The instance is small (sf 0.2) and the physical
// mode is sort (plan classes keyed by order, the pricier enumeration)
// so the workload is optimization-bound — the regime the plan cache is
// for; at large scale factors execution dominates and the ratio
// approaches 1 regardless of the cache. cache=hit, below, is the other
// end: requests so small that the fixed cost of a hit is what is timed.
func BenchmarkServiceThroughput(b *testing.B) {
	type shape struct {
		name string
		q    *query.Query
		data engine.TableData
	}
	var shapes []shape
	for _, name := range []string{"Q3", "Q5"} {
		q := tpch.Queries()[name]
		data := tpch.GenerateTables(rand.New(rand.NewSource(1)), q, tpch.ExecutionScaleAt(name, 0.2))
		shapes = append(shapes, shape{name, q, data})
	}
	for _, cache := range []string{"cold", "warm"} {
		warm := cache == "warm"
		for _, sessions := range []int{1, 4} {
			b.Run(fmt.Sprintf("cache=%s/sessions=%d", cache, sessions), func(b *testing.B) {
				eng := service.NewEngine(service.EngineOptions{Workers: 2, MaxConcurrent: sessions})
				defer eng.Close()
				for _, sh := range shapes {
					eng.Register(sh.name, sh.data)
				}
				issue := func(sess *service.Session, i int) {
					sh := shapes[i%len(shapes)]
					_, err := sess.Execute(sh.q, service.Request{
						Opt:     core.Options{Algorithm: core.AlgEAPrune, Workers: 1, Phys: core.PhysModeSort},
						Dataset: sh.name,
						NoCache: !warm,
					})
					if err != nil {
						b.Error(err)
					}
				}
				if warm {
					sess := eng.NewSession()
					for i := range shapes {
						issue(sess, i)
					}
				}
				b.ResetTimer()
				var next atomic.Int64
				var wg sync.WaitGroup
				wg.Add(sessions)
				for s := 0; s < sessions; s++ {
					go func() {
						defer wg.Done()
						sess := eng.NewSession()
						for {
							i := int(next.Add(1)) - 1
							if i >= b.N {
								return
							}
							issue(sess, i)
						}
					}()
				}
				wg.Wait()
				if secs := b.Elapsed().Seconds(); secs > 0 {
					b.ReportMetric(float64(b.N)/secs, "qps")
				}
			})
		}
	}
	// cache=hit is what a request costs when the cache answers and the
	// kernels have next to nothing to do: 4…8-relation random shapes over
	// 8-row tables, one session, every plan cached. allocs/op is the
	// figure to watch (~136; 240 while every request compiled its plan) —
	// the key encoding and lookup contribute none, and the cached program
	// compiles nothing. TestServiceHitAllocs gates it at 140.
	b.Run("cache=hit", func(b *testing.B) {
		eng := service.NewEngine(service.EngineOptions{Workers: 2})
		defer eng.Close()
		sess := eng.NewSession()
		rng := rand.New(rand.NewSource(1))
		qs := make([]*query.Query, 16)
		names := make([]string, len(qs))
		issue := func(i int) {
			_, err := sess.Execute(qs[i], service.Request{
				Opt:     core.Options{Algorithm: core.AlgEAPrune},
				Dataset: names[i],
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		for i := range qs {
			qs[i] = randquery.Generate(rng, randquery.Params{Relations: 4 + i%5})
			names[i] = fmt.Sprintf("s%d", i)
			eng.Register(names[i], engine.RandomData(rng, qs[i], 8).Tables())
			issue(i)
		}
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			issue(i % len(qs))
		}
		if m := eng.Metrics(); m.PlanCacheMiss != int64(len(qs)) {
			b.Fatalf("%d plan-cache misses, want %d: the arm must measure hits", m.PlanCacheMiss, len(qs))
		}
	})
}

// BenchmarkTraceOverhead measures the cost of the observability layer on
// plan execution: the tracing=off arm is the untraced hot path (one
// nil-pointer test per operator) and must stay within 2% of it — the CI
// benchmark lane records both arms so a regression of the off arm is
// visible as a plain ns/op jump. The tracing=on arm bounds the opt-in
// cost: spans are recorded per operator barrier by the driver goroutine,
// so overhead is O(plan nodes), not O(rows).
func BenchmarkTraceOverhead(b *testing.B) {
	for _, name := range []string{"Q3", "Q5"} {
		q := tpch.Queries()[name]
		tables := tpch.GenerateTables(rand.New(rand.NewSource(1)), q, tpch.ExecutionScaleAt(name, 4))
		res, err := core.Optimize(q, core.Options{Algorithm: core.AlgEAPrune})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("query=%s/tracing=off", name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := engine.ExecProfiledOpts(q, res.Plan, tables, engine.ExecOptions{Workers: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("query=%s/tracing=on", name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tr := obs.NewTrace()
				if _, _, err := engine.ExecProfiledOpts(q, res.Plan, tables, engine.ExecOptions{Workers: 1, Trace: tr}); err != nil {
					b.Fatal(err)
				}
				if tr.Len() == 0 {
					b.Fatal("no spans recorded")
				}
			}
		})
	}
}

// BenchmarkBatchParallelScaling is the morsel-parallel batch runtime's
// scaling table: the four TPC-H shapes at factor 1000 (the benchmark's
// tpch_hash_large data: 400k-row lineitem for Q3), EA-Prune plans on the
// hash layer, workers 1/2 (and 4 where the machine has them). Results
// are bit-identical across worker counts, so the ns/op ratio between the
// arms of one shape is the parallel speedup and B/op the price paid for
// it. Since the shapes' key columns are direct-addressed (PR 19) the
// sequential arm lost most of what the second worker used to share —
// hashing, scattering, slot probing — and a dense build or aggregation is
// always a one-goroutine operator, so the workers=2 ÷ workers=1 ratio is
// no longer a parallel-scaling promise for these shapes. Measured, parent →
// PR 19, workers 1 / workers 2: Q3 124 / 99 ms → 66 / 55 ms (ratio 0.80 →
// 0.83), Q10 98 / 72 ms → 43 / 38 ms (0.73 → 0.89), Q5 92 / 61 → 57 / 43
// (0.66 → 0.75), Ex 14.9 / 10.4 → 7.8 / 6.6 (0.70 → 0.85). The bar that
// remains: workers=2 never above workers=1, and both arms at these absolute
// figures, not the hashed ones (DESIGN.md "Direct-addressed keys"). B/op is
// what joins copy: 70.6 / 67.3 MB (Q3), 53.7 / 48.7 (Q10), 40.8 / 37.5 (Q5)
// while they gathered every column, 49.3 / 48.7, 29.8 / 30.0, 19.6 / 19.4
// since they hand on views (DESIGN.md "Late materialization").
func BenchmarkBatchParallelScaling(b *testing.B) {
	workers := []int{1, 2}
	if runtime.GOMAXPROCS(0) >= 4 {
		workers = append(workers, 4)
	}
	for _, name := range []string{"Q3", "Q10", "Q5", "Ex"} {
		q := tpch.Queries()[name]
		tables := tpch.GenerateTables(rand.New(rand.NewSource(1)), q, tpch.ExecutionScaleAt(name, 1000))
		res, err := core.Optimize(q, core.Options{Algorithm: core.AlgEAPrune})
		if err != nil {
			b.Fatal(err)
		}
		for _, w := range workers {
			opts := engine.ExecOptions{Workers: w, Runtime: engine.RuntimeBatch}
			b.Run(fmt.Sprintf("query=%s/workers=%d", name, w), func(b *testing.B) {
				b.ReportAllocs()
				var rows float64
				for i := 0; i < b.N; i++ {
					_, stats, err := engine.ExecProfiledOpts(q, res.Plan, tables, opts)
					if err != nil {
						b.Fatal(err)
					}
					rows += stats.ActualCout
				}
				if secs := b.Elapsed().Seconds(); secs > 0 {
					b.ReportMetric(rows/secs, "rows/s")
				}
			})
		}
	}
}
