package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"eagg/internal/bitset"
	"eagg/internal/hypergraph"
	"eagg/internal/query"
	"eagg/internal/randquery"
)

// BenchmarkDPParallelCrossover is the sweep behind dpParallelCutoff: one
// DP level at a time, at level works from 10² to 10⁵, run inline on one
// worker (workers=1) and forced through the two-worker pool (workers=2).
// The levels are real ones — of chains and stars for H1, of stars and
// random queries for EA-Prune — picked by their levelWork; everything
// below the measured level is sealed once, outside the timer, and the
// level's entries are dropped again after every iteration. The cutoff is
// the smallest work from which workers=2 stays ahead.
func BenchmarkDPParallelCrossover(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var rand14, rand16 *query.Query
	for i := 0; i < 60; i++ { // the optimize_cold population: 40 = rand14.0, 50 = rand16.0
		q := randquery.Generate(rng, randquery.Params{Relations: 6 + 2*(i/10)})
		switch i {
		case 42:
			rand14 = q
		case 55:
			rand16 = q
		}
	}
	cases := []struct {
		alg  Algorithm
		name string
		q    *query.Query
	}{
		{AlgH1, "chain16", randquery.Chain(16)}, {AlgH1, "chain32", randquery.Chain(32)}, {AlgH1, "chain63", randquery.Chain(63)},
		{AlgH1, "star12", randquery.Star(12)}, {AlgH1, "star16", randquery.Star(16)}, {AlgH1, "star18", randquery.Star(18)},
		{AlgEAPrune, "chain12", randquery.Chain(12)}, {AlgEAPrune, "star10", randquery.Star(10)}, {AlgEAPrune, "star12", randquery.Star(12)},
		{AlgEAPrune, "star14", randquery.Star(14)}, {AlgEAPrune, "rand14.2", rand14}, {AlgEAPrune, "rand16.5", rand16},
	}
	var levels []crossoverLevel
	for _, c := range cases {
		for _, l := range crossoverLevels(c.q, c.alg) {
			l.name = c.name
			levels = append(levels, l)
		}
	}
	for _, alg := range []Algorithm{AlgH1, AlgEAPrune} {
		for _, target := range []float64{1e2, 3e2, 1e3, 3e3, 1e4, 3e4, 1e5} {
			// The level whose work is nearest the target, within 2×.
			off := func(l *crossoverLevel) float64 { return math.Abs(math.Log(float64(l.work) / target)) }
			var best *crossoverLevel
			for i := range levels {
				if l := &levels[i]; l.alg == alg && off(l) < math.Log(2) && (best == nil || off(l) < off(best)) {
					best = l
				}
			}
			if best == nil {
				continue
			}
			for _, workers := range []int{1, 2} {
				b.Run(fmt.Sprintf("alg=%v/work=%.0e/level=%s.%d/workers=%d", alg, target, best.name, best.level, workers), func(b *testing.B) {
					best.run(b, workers)
				})
			}
		}
	}
}

// crossoverLevel is one DP level of a query with everything below it
// sealed in g.table.
type crossoverLevel struct {
	name  string
	q     *query.Query
	alg   Algorithm
	level int
	work  int
}

// crossoverLevels lists the levels of the query with their works.
func crossoverLevels(q *query.Query, alg Algorithm) []crossoverLevel {
	g := newGenerator(q, Options{Algorithm: alg})
	g.scans()
	pairs := g.det.Graph.CsgCmpPairs()
	var out []crossoverLevel
	forEachLevel(pairs, func(level int, chunk []hypergraph.CsgCmpPair[bitset.Set64]) {
		if work := g.levelWork(chunk, math.MaxInt); level < len(q.Relations) {
			out = append(out, crossoverLevel{q: q, alg: alg, level: level, work: work})
		}
		g.runLevelInline(chunk)
	})
	return out
}

func (l *crossoverLevel) run(b *testing.B, workers int) {
	g := newGenerator(l.q, Options{Algorithm: l.alg})
	g.scans()
	pairs := g.det.Graph.CsgCmpPairs()
	var measured []hypergraph.CsgCmpPair[bitset.Set64]
	forEachLevel(pairs, func(level int, chunk []hypergraph.CsgCmpPair[bitset.Set64]) {
		if level < l.level {
			g.runLevelInline(chunk)
		} else if level == l.level {
			measured = chunk
		}
	})
	built := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.stats = Stats{}
		if workers == 1 {
			g.runLevelInline(measured)
		} else {
			g.runLevels(measured, workers) // parallelCutoff 0: forced through the pool
		}
		built = g.stats.PlansBuilt
		b.StopTimer()
		for _, pr := range measured {
			delete(g.table, pr.S1.Union(pr.S2))
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(l.work), "work")
	b.ReportMetric(float64(built), "plans-built")
}
