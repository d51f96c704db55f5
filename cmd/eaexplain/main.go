// Command eaexplain optimizes a query with the plan generators of the
// paper and prints the resulting operator trees with their estimated
// cardinalities and C_out costs.
//
// Usage:
//
//	eaexplain -demo ex            # the paper's motivating query
//	eaexplain -demo q3|q5|q10     # the TPC-H evaluation queries
//	eaexplain -demo q5 -analyze   # EXPLAIN ANALYZE: execute on synthetic
//	                              # data, print est-vs-actual per operator
//	                              # before and after cardinality feedback
//	eaexplain -demo q5 -analyze -sf 2   # ... at scale factor 2
//	eaexplain -spec query.json    # a JSON query specification
//	eaexplain -spec - < q.json    # spec from stdin
//	eaexplain -demo chain100      # 100-relation chain on the wide set representation
//	eaexplain -demo star100 -pair-budget 50000
//
// The chain100/star100/clique100 demos optimize past the 63-relation
// fast path; they run only the generators feasible at that scale (H1
// and beam search). -pair-budget caps the exact csg-cmp-pair
// enumeration; beyond the cap the deterministic greedy fallback builds
// the plan (star and clique shapes always exceed any practical budget).
// Expect minutes at the default budget — most of it the beam search on
// chain100 — and under a minute with -pair-budget 50000.
//
// -analyze needs data to execute on, so it is limited to the TPC-H
// demos (ex, q3, q5, q10), whose synthetic instances the experiment
// harness generates deterministically.
//
// The JSON specification format is documented in spec.go (see also
// examples/quickstart for the programmatic API).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"eagg/internal/core"
	"eagg/internal/experiments"
	"eagg/internal/query"
	"eagg/internal/randquery"
	"eagg/internal/tpch"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its dependencies injected, so the misuse/exit-code
// contract is testable: 0 success, 1 runtime failure, 2 flag misuse.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("eaexplain", flag.ContinueOnError)
	fs.SetOutput(stderr)
	demo := fs.String("demo", "", "built-in query: ex, q3, q5, q10, chain100, star100, clique100")
	spec := fs.String("spec", "", "JSON query specification file ('-' for stdin)")
	factor := fs.Float64("f", 1.03, "H2 tolerance factor")
	workers := fs.Int("workers", 1, "optimizer workers (0 = GOMAXPROCS); the plans are identical for every value")
	levels := fs.Bool("levels", false, "print per-level DP timing (pairs, subsets, duration)")
	pairBudget := fs.Int("pair-budget", 0, "with a chain100/star100/clique100 demo: csg-cmp-pair enumeration budget (0 = the optimizer default; exceeding it switches to the deterministic greedy fallback)")
	analyze := fs.Bool("analyze", false, "EXPLAIN ANALYZE: execute the lazy and eager plans on synthetic data and print per-operator est-vs-actual cardinality and time, before and after cardinality feedback (TPC-H demos only)")
	sf := fs.Float64("sf", 1, "with -analyze: synthetic data scale factor")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *pairBudget < 0 {
		fmt.Fprintf(stderr, "eaexplain: -pair-budget must be ≥ 0, got %d\n", *pairBudget)
		return 2
	}
	if !*analyze && *sf != 1 {
		fmt.Fprintln(stderr, "eaexplain: -sf requires -analyze")
		return 2
	}
	if *analyze && *sf <= 0 {
		fmt.Fprintf(stderr, "eaexplain: -sf must be > 0, got %g\n", *sf)
		return 2
	}
	if *analyze && *spec != "" {
		fmt.Fprintln(stderr, "eaexplain: -analyze needs a TPC-H demo (ex, q3, q5, q10) — a -spec query has no data to execute on")
		return 2
	}

	largeDemos := map[string]func() *query.Query{
		"chain100": func() *query.Query { return randquery.Chain(100) },
		"star100":  func() *query.Query { return randquery.Star(100) },
		"clique100": func() *query.Query {
			return randquery.Clique(100)
		},
	}
	// The TPC-H demo names as the experiment harness knows them.
	tpchDemos := map[string]string{"ex": "Ex", "q3": "Q3", "q5": "Q5", "q10": "Q10"}

	var q *query.Query
	isLarge := false
	switch {
	case *demo != "":
		if build, ok := largeDemos[strings.ToLower(*demo)]; ok {
			q, isLarge = build(), true
			break
		}
		qs := tpch.Queries()
		name, ok := tpchDemos[strings.ToLower(*demo)]
		if !ok {
			fmt.Fprintf(stderr, "eaexplain: unknown demo %q (ex, q3, q5, q10, chain100, star100, clique100)\n", *demo)
			return 2
		}
		q = qs[name]
	case *spec != "":
		var err error
		q, err = loadSpec(*spec)
		if err != nil {
			fmt.Fprintf(stderr, "eaexplain: %v\n", err)
			return 1
		}
	default:
		fmt.Fprintln(stderr, "eaexplain: need -demo or -spec")
		fs.Usage()
		return 2
	}

	if isLarge && *analyze {
		fmt.Fprintln(stderr, "eaexplain: -analyze needs a TPC-H demo (ex, q3, q5, q10) — the 100-relation shapes have no executable data")
		return 2
	}
	if !isLarge && *pairBudget != 0 {
		fmt.Fprintln(stderr, "eaexplain: -pair-budget requires a chain100/star100/clique100 demo (small queries are always enumerated exactly)")
		return 2
	}

	if err := q.Validate(); err != nil {
		fmt.Fprintf(stderr, "eaexplain: invalid query: %v\n", err)
		return 1
	}

	if *analyze {
		cfg := experiments.Config{Workers: *workers}
		rep := experiments.AnalyzeEval(cfg, *sf, tpchDemos[strings.ToLower(*demo)])
		fmt.Fprint(stdout, rep.Format())
		for _, c := range rep.Cells {
			if !c.Match {
				return 1
			}
		}
		return 0
	}

	type run struct {
		name  string
		alg   core.Algorithm
		f     float64
		width int
	}
	runs := []run{
		{"DPhyp (no eager aggregation)", core.AlgDPhyp, 0, 0},
		{"EA-Prune (optimal)", core.AlgEAPrune, 0, 0},
		{"EA-All (optimal, exhaustive)", core.AlgEAAll, 0, 0},
		{"H1", core.AlgH1, 0, 0},
		{fmt.Sprintf("H2 (F=%.2f)", *factor), core.AlgH2, *factor, 0},
	}
	if isLarge {
		// Past ~13 relations the exact generators are infeasible; the
		// 100-relation demos run the two that scale. The first run is the
		// cost baseline, so the "× DPhyp" column becomes "× H1" here.
		runs = []run{
			{"H1", core.AlgH1, 0, 0},
			{"Beam (width 4)", core.AlgBeam, 0, 4},
		}
	}
	var base float64
	for i, r := range runs {
		res, err := core.Optimize(q, core.Options{Algorithm: r.alg, F: r.f, BeamWidth: r.width, Workers: *workers, PairBudget: *pairBudget})
		if err != nil {
			fmt.Fprintf(stderr, "eaexplain: %s: %v\n", r.name, err)
			return 1
		}
		if i == 0 {
			base = res.Plan.Cost
		}
		baseName := "DPhyp"
		if isLarge {
			baseName = "H1"
		}
		fmt.Fprintf(stdout, "=== %s ===\n", r.name)
		fmt.Fprintf(stdout, "cost %.6g (%.4g× %s), %d csg-cmp-pairs, %d trees built\n",
			res.Plan.Cost, res.Plan.Cost/base, baseName, res.Stats.CsgCmpPairs, res.Stats.PlansBuilt)
		if res.Stats.PairBudgetExceeded {
			fmt.Fprintf(stdout, "pair budget exceeded: plan built by the deterministic greedy fallback\n")
		}
		if res.Stats.Workers > 1 {
			fmt.Fprintf(stdout, "workers %d, %d levels\n", res.Stats.Workers, len(res.Stats.Levels))
		}
		if *levels {
			for _, l := range res.Stats.Levels {
				fmt.Fprintf(stdout, "  level %2d: %6d pairs over %6d subsets in %v\n",
					l.Level, l.Pairs, l.Subsets, l.Duration)
			}
		}
		fmt.Fprint(stdout, res.Plan.StringWithQuery(q))
		fmt.Fprintln(stdout)
	}
	return 0
}
