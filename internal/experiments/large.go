package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"eagg/internal/algebra"
	"eagg/internal/core"
	"eagg/internal/engine"
	"eagg/internal/query"
	"eagg/internal/randquery"
)

// eabench large: queries past the 63-relation fast path, optimized on
// the wide set representation and executed end-to-end. Chains stay
// exactly enumerable (the pair count is quadratic); stars and cliques
// trip the enumeration budget and fall back to the deterministic greedy
// construction. Either way the produced plan must reproduce the
// canonical result — the mode is the wide path's soak test, not just a
// stopwatch.

// LargeShapes maps the shape names accepted by -shape to their
// constructors. The relation count is part of the name so reports are
// self-describing.
var LargeShapes = map[string]func() *query.Query{
	"chain100":  func() *query.Query { return randquery.Chain(100) },
	"star100":   func() *query.Query { return randquery.Star(100) },
	"clique100": func() *query.Query { return randquery.Clique(100) },
}

// LargeShapeNames returns the accepted -shape names, sorted.
func LargeShapeNames() []string {
	names := make([]string, 0, len(LargeShapes))
	for name := range LargeShapes {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// largeAlgs is the algorithm axis of the large-query report: the greedy
// heuristic H1 and the beam search, the two generators that remain
// feasible at 100 relations (EA-All and EA-Prune are exponential in the
// relation count and stop around 8 and 13).
var largeAlgs = []struct {
	label string
	alg   core.Algorithm
	width int
}{
	{"H1", core.AlgH1, 0},
	{"Beam(4)", core.AlgBeam, 4},
}

// LargeRow is one optimized-and-executed plan of the large-query report.
type LargeRow struct {
	Shape     string
	Alg       string
	Relations int
	// OptMillis and ExecMillis split the wall time into planning and
	// execution; Pairs is the number of enumerated csg-cmp-pairs and
	// BudgetHit reports whether the enumeration budget aborted the exact
	// enumeration (the greedy fallback then produced the plan).
	OptMillis  float64
	ExecMillis float64
	Pairs      int
	BudgetHit  bool
	Cost       float64
	ResultRows int
	Match      bool
}

// LargeReport is the output of eabench large.
type LargeReport struct {
	Workers    int
	PairBudget int
	Rows       []LargeRow
}

// LargeEval optimizes each named shape with every feasible large-query
// algorithm on the wide set representation, executes the plans on small
// deterministic random data, and verifies each result against the
// canonical evaluation of the initial tree. pairBudget caps the exact
// enumeration (0 = the core default); cfg.Workers drives the optimizer
// and the execution runtime. Unknown shape names panic — the CLI
// validates them before calling.
func LargeEval(cfg Config, shapes []string, pairBudget int) *LargeReport {
	cfg = cfg.Defaults()
	rep := &LargeReport{Workers: cfg.Workers, PairBudget: pairBudget}
	if len(shapes) == 0 {
		shapes = LargeShapeNames()
	}
	for _, name := range shapes {
		build, ok := LargeShapes[name]
		if !ok {
			panic(fmt.Sprintf("experiments: unknown large shape %q", name))
		}
		q := build()
		data := LargeData(q, 6).Tables()
		want, err := engine.CanonicalTablesOpts(q, data, engine.ExecOptions{})
		if err != nil {
			panic(fmt.Sprintf("experiments: canonical %s: %v", name, err))
		}
		wantRel, attrs := want.Rel(), engine.OutputAttrs(q)

		for _, a := range largeAlgs {
			start := time.Now()
			res, err := core.Optimize(q, core.Options{
				Algorithm: a.alg, BeamWidth: a.width,
				Workers: cfg.Workers, PairBudget: pairBudget,
			})
			if err != nil {
				panic(fmt.Sprintf("experiments: optimize %s/%s: %v", name, a.label, err))
			}
			optMillis := float64(time.Since(start).Microseconds()) / 1000

			start = time.Now()
			tab, stats, err := engine.ExecProfiledOpts(q, res.Plan, data, engine.ExecOptions{Workers: cfg.Workers})
			if err != nil {
				panic(fmt.Sprintf("experiments: exec %s/%s: %v", name, a.label, err))
			}
			rep.Rows = append(rep.Rows, LargeRow{
				Shape:      name,
				Alg:        a.label,
				Relations:  len(q.Relations),
				OptMillis:  optMillis,
				ExecMillis: float64(time.Since(start).Microseconds()) / 1000,
				Pairs:      res.Stats.CsgCmpPairs,
				BudgetHit:  res.Stats.PairBudgetExceeded,
				Cost:       res.Plan.Cost,
				ResultRows: stats.ResultRows,
				Match:      algebra.EqualBags(wantRel, tab.Rel(), attrs),
			})
		}
	}
	return rep
}

// LargeData generates deterministic diagonal contents for a large-shape
// query: every key and join attribute of row i holds the value i, other
// attributes cycle through small groups with occasional NULLs. Random
// contents would not do here — a 100-relation inner-join chain keeps a
// tuple only if all 99 predicates match, so independently drawn values
// make the result empty with near certainty and the end-to-end
// verification vacuous. On the diagonal, row i of every relation joins
// row i of every other, the result carries exactly rows tuples, and the
// declared pk scan orders stay truthful (keys count up in row order).
func LargeData(q *query.Query, rows int) engine.Data {
	joinOrKey := map[int]bool{}
	var walk func(n *query.OpNode)
	walk = func(n *query.OpNode) {
		if n == nil || n.Kind == query.KindScan {
			return
		}
		for _, a := range n.Pred.Left {
			joinOrKey[a] = true
		}
		for _, a := range n.Pred.Right {
			joinOrKey[a] = true
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(q.Root)
	for _, rel := range q.Relations {
		for _, k := range rel.Keys {
			k.ForEach(func(a int) { joinOrKey[a] = true })
		}
	}

	data := engine.Data{}
	for ri := range q.Relations {
		rel := &q.Relations[ri]
		r := &algebra.Rel{}
		rel.Attrs.ForEach(func(a int) { r.Attrs = append(r.Attrs, q.AttrNames[a]) })
		for row := 0; row < rows; row++ {
			t := algebra.Tuple{}
			rel.Attrs.ForEach(func(a int) {
				name := q.AttrNames[a]
				switch {
				case joinOrKey[a]:
					t[name] = algebra.Int(int64(row))
				case row%5 == 4:
					t[name] = algebra.Null
				default:
					t[name] = algebra.Int(int64(row % 3))
				}
			})
			r.Tuples = append(r.Tuples, t)
		}
		data[ri] = r
	}
	return data
}

// AllMatch reports whether every large-query plan reproduced the
// canonical result.
func (r *LargeReport) AllMatch() bool {
	for _, row := range r.Rows {
		if !row.Match {
			return false
		}
	}
	return true
}

// Format renders the report as an aligned table.
func (r *LargeReport) Format() string {
	var b strings.Builder
	budget := "default"
	if r.PairBudget > 0 {
		budget = fmt.Sprintf("%d", r.PairBudget)
	}
	fmt.Fprintf(&b, "Large queries: wide-representation optimization + execution (workers %d, pair budget %s)\n", r.Workers, budget)
	fmt.Fprintf(&b, "%-10s %-8s %5s %12s %12s %10s %8s %12s %6s %6s\n",
		"shape", "alg", "rels", "opt ms", "exec ms", "pairs", "budget", "cost", "rows", "match")
	for _, row := range r.Rows {
		match := "ok"
		if !row.Match {
			match = "FAIL"
		}
		hit := "-"
		if row.BudgetHit {
			hit = "hit"
		}
		fmt.Fprintf(&b, "%-10s %-8s %5d %12.1f %12.1f %10d %8s %12.4g %6d %6s\n",
			row.Shape, row.Alg, row.Relations, row.OptMillis, row.ExecMillis,
			row.Pairs, hit, row.Cost, row.ResultRows, match)
	}
	return b.String()
}
