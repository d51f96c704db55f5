// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec. 5). Each experiment returns its data series so that both
// the eabench command and the benchmark suite can print the same rows the
// paper reports.
package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"eagg/internal/core"
	"eagg/internal/obs"
	"eagg/internal/query"
	"eagg/internal/randquery"
)

// Config controls workload sizes. The paper uses 10,000 queries per
// relation count; the defaults are smaller so the whole suite runs in
// seconds, and callers can restore the paper's scale.
type Config struct {
	// Queries per relation count (paper: 10000).
	Queries int
	// Seed for the workload generator.
	Seed int64
	// MaxNExhaustive bounds EA-All (paper stops at 7-8).
	MaxNExhaustive int
	// MaxNPrune bounds EA-Prune (paper stops at ~13; >1 s per query
	// beyond 11).
	MaxNPrune int
	// MaxN bounds the fast algorithms (paper: 20).
	MaxN int
	// Workers is the worker count passed to core.Options.Workers for
	// optimization and — in the -exec mode — to engine.ExecOptions for
	// morsel-driven plan execution. Unlike core, 0 here selects the
	// sequential default (1) so the runtime experiments keep
	// reproducing the paper's single-threaded conditions unless
	// parallelism is explicitly requested. Results are bit-identical
	// for every value; only the runtime figures change.
	Workers int
	// Phys selects the physical algebra for the -exec and -feedback
	// modes (hash, sort-based, or both competing per plan class). The
	// zero value keeps the hash layer, the paper's conditions.
	Phys core.PhysMode
	// Trace, when non-nil, collects spans from the -exec and -feedback
	// evaluations: one "query" span per (query, plan-generator) cell with
	// the optimizer phases and executor operators nested under it — the
	// tree eabench -trace writes as Chrome trace-event JSON. Nil (the
	// default) keeps every experiment on the untraced hot path.
	Trace *obs.Trace
}

// Defaults fills unset fields.
func (c Config) Defaults() Config {
	if c.Queries == 0 {
		c.Queries = 20
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.MaxNExhaustive == 0 {
		c.MaxNExhaustive = 7
	}
	if c.MaxNPrune == 0 {
		c.MaxNPrune = 10
	}
	if c.MaxN == 0 {
		c.MaxN = 16
	}
	if c.Workers == 0 {
		c.Workers = 1
	}
	return c
}

// queriesFor deterministically generates the workload for one relation
// count.
func queriesFor(cfg Config, n int) []*query.Query {
	rng := rand.New(rand.NewSource(cfg.Seed + int64(n)*7919))
	out := make([]*query.Query, cfg.Queries)
	for i := range out {
		out[i] = randquery.Generate(rng, randquery.Params{Relations: n})
	}
	return out
}

func mustOptimize(q *query.Query, alg core.Algorithm, f float64, workers int) *core.Result {
	return mustOptimizePhys(q, alg, f, workers, core.PhysModeHash)
}

func mustOptimizePhys(q *query.Query, alg core.Algorithm, f float64, workers int, phys core.PhysMode) *core.Result {
	res, err := core.Optimize(q, core.Options{Algorithm: alg, F: f, Workers: workers, Phys: phys})
	if err != nil {
		panic(fmt.Sprintf("experiments: %v failed: %v", alg, err))
	}
	return res
}

// Point is one x-position of a figure: the relation count plus one value
// per series.
type Point struct {
	N      int
	Values map[string]float64
}

// Figure is a reproduced figure: named series over relation counts.
type Figure struct {
	Title  string
	Series []string
	Points []Point
}

// Format renders the figure as aligned text rows (one per relation count).
func (f *Figure) Format() string {
	out := fmt.Sprintf("%s\n%-4s", f.Title, "n")
	for _, s := range f.Series {
		out += fmt.Sprintf(" %16s", s)
	}
	out += "\n"
	for _, p := range f.Points {
		out += fmt.Sprintf("%-4d", p.N)
		for _, s := range f.Series {
			if v, ok := p.Values[s]; ok {
				out += fmt.Sprintf(" %16.6g", v)
			} else {
				out += fmt.Sprintf(" %16s", "-")
			}
		}
		out += "\n"
	}
	return out
}

// Fig15 reproduces Figure 15: the average plan cost of DPhyp (no eager
// aggregation) relative to the optimum found by EA-Prune/EA-All, for 3…13
// relations. Values grow with the relation count (the paper reaches ≈18×
// at 13 relations, with extreme outliers far beyond).
func Fig15(cfg Config) *Figure {
	cfg = cfg.Defaults()
	fig := &Figure{
		Title:  "Figure 15: relative plan cost, DPhyp vs EA-Prune (1.0 = optimal)",
		Series: []string{"DPhyp/EA-Prune", "geomean", "max outlier"},
	}
	for n := 3; n <= cfg.MaxNPrune; n++ {
		sum, logSum, maxRatio := 0.0, 0.0, 0.0
		qs := queriesFor(cfg, n)
		for _, q := range qs {
			d := mustOptimize(q, core.AlgDPhyp, 0, cfg.Workers)
			p := mustOptimize(q, core.AlgEAPrune, 0, cfg.Workers)
			r := d.Plan.Cost / p.Plan.Cost
			sum += r
			logSum += math.Log(r)
			if r > maxRatio {
				maxRatio = r
			}
		}
		fig.Points = append(fig.Points, Point{N: n, Values: map[string]float64{
			"DPhyp/EA-Prune": sum / float64(len(qs)),
			"geomean":        math.Exp(logSum / float64(len(qs))),
			"max outlier":    maxRatio,
		}})
	}
	return fig
}

// Fig16 reproduces Figure 16: average optimization runtime in seconds for
// DPhyp, EA-Prune, EA-All and H1. EA-All stops at MaxNExhaustive and
// EA-Prune at MaxNPrune, mirroring the feasibility limits of the paper.
func Fig16(cfg Config) *Figure {
	cfg = cfg.Defaults()
	fig := &Figure{
		Title:  "Figure 16: optimization runtime [s]",
		Series: []string{"DPhyp", "EA-Prune", "EA-All", "H1"},
	}
	for n := 2; n <= cfg.MaxN; n++ {
		qs := queriesFor(cfg, n)
		vals := map[string]float64{}
		run := func(name string, alg core.Algorithm) {
			start := time.Now()
			for _, q := range qs {
				mustOptimize(q, alg, 0, cfg.Workers)
			}
			vals[name] = time.Since(start).Seconds() / float64(len(qs))
		}
		run("DPhyp", core.AlgDPhyp)
		run("H1", core.AlgH1)
		if n <= cfg.MaxNPrune {
			run("EA-Prune", core.AlgEAPrune)
		}
		if n <= cfg.MaxNExhaustive {
			run("EA-All", core.AlgEAAll)
		}
		fig.Points = append(fig.Points, Point{N: n, Values: vals})
	}
	return fig
}

// Fig17 reproduces Figure 17: plan cost of the heuristics H1 and H2 (for
// the paper's tolerance factors) relative to the optimum of EA-Prune. The
// paper's best heuristic is H2 with F = 1.03, within ≈7% of optimal at 13
// relations.
func Fig17(cfg Config) *Figure {
	cfg = cfg.Defaults()
	factors := []float64{1.01, 1.03, 1.05, 1.1}
	fig := &Figure{Title: "Figure 17: relative plan cost of the heuristics (1.0 = EA-Prune optimum)"}
	fig.Series = []string{"H1"}
	for _, f := range factors {
		fig.Series = append(fig.Series, fmt.Sprintf("H2 F=%.2f", f))
	}
	for n := 2; n <= cfg.MaxNPrune; n++ {
		qs := queriesFor(cfg, n)
		sums := map[string]float64{}
		for _, q := range qs {
			opt := mustOptimize(q, core.AlgEAPrune, 0, cfg.Workers).Plan.Cost
			sums["H1"] += mustOptimize(q, core.AlgH1, 0, cfg.Workers).Plan.Cost / opt
			for _, f := range factors {
				key := fmt.Sprintf("H2 F=%.2f", f)
				sums[key] += mustOptimize(q, core.AlgH2, f, cfg.Workers).Plan.Cost / opt
			}
		}
		vals := map[string]float64{}
		for k, s := range sums {
			vals[k] = s / float64(len(qs))
		}
		fig.Points = append(fig.Points, Point{N: n, Values: vals})
	}
	return fig
}

// Fig18 reproduces Figure 18: the runtime of H2 relative to H1. The two
// are nearly identical, with H2 often slightly faster because preferring
// eager plans strengthens key constraints and removes groupings further up
// (Sec. 5.3).
func Fig18(cfg Config) *Figure {
	cfg = cfg.Defaults()
	fig := &Figure{
		Title:  "Figure 18: runtime of H2 (F=1.03) relative to H1",
		Series: []string{"H2/H1"},
	}
	for n := 2; n <= cfg.MaxN; n++ {
		qs := queriesFor(cfg, n)
		startH1 := time.Now()
		for _, q := range qs {
			mustOptimize(q, core.AlgH1, 0, cfg.Workers)
		}
		h1 := time.Since(startH1).Seconds()
		startH2 := time.Now()
		for _, q := range qs {
			mustOptimize(q, core.AlgH2, 1.03, cfg.Workers)
		}
		h2 := time.Since(startH2).Seconds()
		fig.Points = append(fig.Points, Point{N: n, Values: map[string]float64{"H2/H1": h2 / h1}})
	}
	return fig
}

// SortedSeriesNames is a helper for deterministic printing of map-based
// series.
func SortedSeriesNames(vals map[string]float64) []string {
	names := make([]string, 0, len(vals))
	for k := range vals {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
