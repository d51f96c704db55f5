package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"
)

// The optimize_cold mix, per pass: random queries of the paper's
// construction (Sec. 5) through the four plan generators, the paper's four
// TPC-H queries (Table 2), and the fixed chain, star and 64-relation cells.
//
// The random queries are a frozen suite: ten each at n = 6, 8, ..., 16,
// drawn in that order from populationSeed, whatever --seed is. The
// construction is heavy-tailed (four of these sixty take EA-Prune 0.15 to
// 1.3 s, the median takes it 1 ms), so a population drawn from --seed makes
// every timing a property of two or three draws. --seed orders the pass.
const (
	populationSeed = 1
	randomPerSize  = 10
	// optimumMaxN bounds the complete EA-All search that gives the small
	// random queries an optimum to check against.
	optimumMaxN = 8
)

var (
	randomSizes = []int{6, 8, 10, 12, 14, 16}
	fourAlgs    = []string{algDPhyp, algH1, algH2, algEAPrune}
)

// knownBeaten lists the queries of the mix on which EA-Prune's plan costs
// more than another generator's at the commit that defined the benchmark.
// The paper has EA-Prune at or below DPhyp, H1 and H2 everywhere; these are
// findings, kept out of fail_share so that it stays 0, and counted in
// core.prune_beaten_queries. Any other query on which EA-Prune is beaten
// fails its EA-Prune operations.
var knownBeaten = map[string]bool{
	"rand16.0": true, // DPhyp 1509, EA-Prune and H1 10079, H2 10089
}

// optQuery is one query of the mix with what the oracle knows about it.
type optQuery struct {
	label string
	q     *Query
	// optimum is EA-All's cost (random queries of at most optimumMaxN
	// relations), else 0.
	optimum float64
	// ceiling is the lowest cost any other generator reached in the
	// warm-up pass; EA-Prune must not exceed it.
	ceiling float64
}

// optCell is one (query, algorithm) operation of the mix.
type optCell struct {
	*optQuery
	alg string
	// kind selects the per-layer sample the cell feeds: "dense"
	// (star12/EA-Prune) or "wide" (chain64/H1, the bitset.Wide path).
	kind string
	// ref is the plan cost the warm-up pass saw; optimization is
	// deterministic, so every later run must return it bit for bit.
	ref float64
}

// optimizeWorkload is the paper's own experiment: direct core.Optimize
// calls, no engine, no data.
type optimizeWorkload struct {
	seed       int64
	queries    []*optQuery
	cells      []*optCell
	seq        []int
	generateMS float64
	oracleMS   float64
	suboptimal int // small random queries where EA-Prune misses EA-All's optimum
	beaten     int // queries where another generator's plan is cheaper than EA-Prune's
}

func newOptimize() workload { return &optimizeWorkload{} }

func (w *optimizeWorkload) clients() int             { return 1 }
func (w *optimizeWorkload) opsPerPass(int) int       { return len(w.seq) }
func (w *optimizeWorkload) beginPass(n int)          { shufflePass(w.seq, w.seed, n) }
func (w *optimizeWorkload) counters() sharedCounters { return sharedCounters{} }
func (w *optimizeWorkload) tearDown()                { *w = optimizeWorkload{} }

// add appends one query's cells and returns the last of them.
func (w *optimizeWorkload) add(label string, q *Query, algs ...string) *optCell {
	oq := &optQuery{label: label, q: q, ceiling: math.Inf(1)}
	w.queries = append(w.queries, oq)
	for _, alg := range algs {
		w.cells = append(w.cells, &optCell{optQuery: oq, alg: alg})
	}
	return w.cells[len(w.cells)-1]
}

// build lays out the pass and returns the random queries small enough for
// the complete search.
func (w *optimizeWorkload) build() (small []*optQuery) {
	rng := rand.New(rand.NewSource(populationSeed))
	t0 := time.Now()
	for _, n := range randomSizes {
		for i := 0; i < randomPerSize; i++ {
			c := w.add(fmt.Sprintf("rand%d.%d", n, i), randomQuery(rng, n), fourAlgs...)
			if n <= optimumMaxN {
				small = append(small, c.optQuery)
			}
		}
	}
	w.generateMS = ms(time.Since(t0))
	for _, name := range []string{"Ex", "Q3", "Q5", "Q10"} {
		w.add(name, tpchQuery(name), fourAlgs...)
	}
	w.add("chain12", chainQuery(12), algH1, algEAPrune)
	w.add("star12", starQuery(12), algH1, algEAPrune).kind = "dense"
	w.add("chain64", chainQuery(64), algH1).kind = "wide"
	for i := range w.cells {
		w.seq = append(w.seq, i)
	}
	return small
}

func (w *optimizeWorkload) setUp(seed int64) error {
	*w = optimizeWorkload{seed: seed}
	small := w.build()
	w.beginPass(0)

	// Oracle: the complete search on the small random queries.
	t0 := time.Now()
	for _, oq := range small {
		p, _, err := optimize(oq.q, algEAAll, "hash", 0, nil)
		if err != nil {
			return fmt.Errorf("EA-All %s: %w", oq.label, err)
		}
		oq.optimum = p.Cost
	}
	w.oracleMS = ms(time.Since(t0))

	// Warm-up pass: fixes each cell's reference cost and, per query, the
	// cost EA-Prune has to stay at or below.
	for _, c := range w.cells {
		p, _, err := optimize(c.q, c.alg, "hash", 0, nil)
		if err != nil {
			return fmt.Errorf("warm-up %s/%s: %w", c.label, c.alg, err)
		}
		c.ref = p.Cost
		if c.alg != algEAPrune {
			c.ceiling = min(c.ceiling, p.Cost)
		}
	}
	for _, c := range w.cells {
		if c.alg != algEAPrune {
			continue
		}
		if c.optimum > 0 && c.ref > c.optimum*(1+costTolerance) {
			w.suboptimal++
		}
		if c.ref > c.ceiling*(1+costTolerance) {
			w.beaten++
		}
		if !w.verify(c, c.ref) {
			fmt.Fprintf(os.Stderr, "optimize_cold: %s: EA-Prune cost %g, optimum %g, cheapest other generator %g: its operations will fail\n",
				c.label, c.ref, c.optimum, c.ceiling)
		}
	}
	// Self-test: a cost off by one unit in the last place must fail, and so
	// must an EA-Prune cost above another generator's.
	c := w.cells[0]
	if w.verify(c, math.Nextafter(c.ref, math.Inf(1))) {
		return fmt.Errorf("self-test: the oracle accepted a corrupted cost")
	}
	for _, c := range w.cells {
		if c.alg == algEAPrune && c.optimum == 0 && !knownBeaten[c.label] {
			worse := *c
			worse.ref = c.ceiling * 1.01
			if w.verify(&worse, worse.ref) {
				return fmt.Errorf("self-test: the oracle accepted an EA-Prune plan costlier than another generator's")
			}
			return nil
		}
	}
	return fmt.Errorf("self-test: no EA-Prune cell to corrupt")
}

// costTolerance absorbs floating-point reassociation between two plans
// of equal cost.
const costTolerance = 1e-9

// verify checks one optimization. Every cost is finite, positive, equal to
// the warm-up pass's, and not below the optimum of the complete search.
// EA-Prune's must also equal that optimum where it is known, and must not
// exceed what DPhyp, H1 or H2 reached on the query (the paper's claim),
// except on the queries listed in knownBeaten.
func (w *optimizeWorkload) verify(c *optCell, cost float64) bool {
	if math.IsNaN(cost) || math.IsInf(cost, 0) || cost <= 0 || cost != c.ref {
		return false
	}
	if c.optimum > 0 && cost < c.optimum*(1-costTolerance) {
		return false
	}
	if c.alg != algEAPrune || knownBeaten[c.label] {
		return true
	}
	if c.optimum > 0 && cost > c.optimum*(1+costTolerance) {
		return false
	}
	return cost <= c.ceiling*(1+costTolerance)
}

func (w *optimizeWorkload) do(_, i int, a *acc, tr *Trace) {
	c := w.cells[w.seq[i]]
	o := startOp(tr)
	p, stats, err := optimize(c.q, c.alg, "hash", 0, tr)
	o.returned()
	o.verified(a, err == nil && w.verify(c, p.Cost))
	if a.detail && err == nil {
		a.noteOptimizer(stats)
		switch c.kind {
		case "dense":
			a.denseMS = append(a.denseMS, ms(o.lat))
		case "wide":
			a.wideMS = append(a.wideMS, ms(o.lat))
		}
	}
}

// probe adds what set-up measured, the paper's quality axis over the
// queries every generator ran on (the warm-up pass's costs), and the
// direct optimizer timings.
func (w *optimizeWorkload) probe(m metricSet) {
	m["randquery.generate_ms"] = w.generateMS
	m["engine.oracle_ms"] = w.oracleMS
	m["core.prune_suboptimal_queries"] = float64(w.suboptimal)
	m["core.prune_beaten_queries"] = float64(w.beaten)

	cost := map[*optQuery]map[string]float64{}
	for _, c := range w.cells {
		if cost[c.optQuery] == nil {
			cost[c.optQuery] = map[string]float64{}
		}
		cost[c.optQuery][c.alg] = c.ref
	}
	var pruneOverDPhyp, h1OverPrune []float64
	var qs []*Query
	for _, oq := range w.queries {
		c := cost[oq]
		if len(c) < len(fourAlgs) {
			continue // chain and star cells run H1 and EA-Prune only
		}
		qs = append(qs, oq.q)
		pruneOverDPhyp = append(pruneOverDPhyp, c[algEAPrune]/c[algDPhyp])
		h1OverPrune = append(h1OverPrune, c[algH1]/c[algEAPrune])
	}
	m["core.cost_rel_eaprune_dphyp"] = geomean(pruneOverDPhyp)
	m["core.cost_rel_h1_eaprune"] = geomean(h1OverPrune)
	probeOptimizer(m, qs, "hash", 3*time.Second)
}
