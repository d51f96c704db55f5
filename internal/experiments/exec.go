package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"eagg/internal/algebra"
	"eagg/internal/core"
	"eagg/internal/engine"
	"eagg/internal/query"
	"eagg/internal/tpch"
)

// ExecRow is one executed plan of the execution experiment.
type ExecRow struct {
	Query      string
	Plan       string // "lazy/DPhyp" or "eager/EA-Prune"
	Groupings  int    // pushed-down groupings in the plan
	Millis     float64
	ResultRows int
	// ActualCout and EstimatedCout compare the cost model against the
	// measured intermediate-result volume; QError is the clamped
	// q-error max(e,1)/max(a,1) folded over both directions (≥ 1, with
	// a zero-vs-nonzero mismatch degrading by its magnitude instead of
	// reading as perfect). QErrorTrivial marks the vacuous case — no
	// costed operators at all — which the report prints as "-".
	ActualCout    float64
	EstimatedCout float64
	QError        float64
	QErrorTrivial bool
	// WorstOpQError and WorstOp drill the plan-level aggregate down to
	// the per-operator cardinality profile: the largest single-operator
	// q-error and a description of the operator it occurs at (canonical
	// key rendered with relation/attribute names). The worst operator is
	// where the estimate actually went wrong — a plan-level number close
	// to 1 can hide large errors that cancel.
	WorstOpQError float64
	WorstOp       string
	// RowsPerSec is the runtime throughput: intermediate + final rows
	// produced per second of execution.
	RowsPerSec float64
	// SortsPerformed/SortsEliminated count the sorts of the plan's
	// sort-based operators: inputs that had to be sorted versus inputs
	// whose existing order was reused (the interesting-order win). Both
	// zero for pure hash plans.
	SortsPerformed, SortsEliminated int
	// Hash is the flat hash-table telemetry of the execution: builds,
	// mean load factor, worst probe distance and bloom-filter traffic.
	Hash algebra.HashTableStats
	// Match reports result equality against the canonical evaluation.
	Match bool
}

// ExecReport is the output of eabench exec: per TPC-H query, the
// canonical evaluation time plus one row per optimized plan.
type ExecReport struct {
	Factor      float64
	Workers     int           // execution workers (1 = sequential)
	Phys        core.PhysMode // physical algebra the plans were built for
	CanonMillis map[string]float64
	Rows        []ExecRow
}

// execAlgs is the plan-generator axis every execution experiment
// compares: the lazy baseline against the eager optimum.
var execAlgs = []struct {
	label string
	alg   core.Algorithm
}{
	{"lazy/DPhyp", core.AlgDPhyp},
	{"eager/EA-Prune", core.AlgEAPrune},
}

// execQueryNames resolves the query selection of an execution
// experiment: nil or empty selects every TPC-H query, sorted.
func execQueryNames(names []string) []string {
	if len(names) > 0 {
		return names
	}
	for name := range tpch.Queries() {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// execSetup prepares one named query for an execution experiment: the
// scaled synthetic instance (deterministic per cfg.Seed), the canonical
// reference result with its evaluation time, and the output schema. The
// scaling, seeding and canonical-evaluation rules live only here so the
// exec and feedback reports stay comparable.
func execSetup(cfg Config, factor float64, name string) (q *query.Query, data engine.TableData, wantRel *algebra.Rel, attrs []string, canonMillis float64) {
	q, ok := tpch.Queries()[name]
	if !ok {
		panic(fmt.Sprintf("experiments: unknown TPC-H query %q", name))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	data = tpch.GenerateTables(rng, q, tpch.ExecutionScaleAt(name, factor))
	start := time.Now()
	want, err := engine.CanonicalTables(q, data)
	if err != nil {
		panic(fmt.Sprintf("experiments: canonical %s: %v", name, err))
	}
	canonMillis = float64(time.Since(start).Microseconds()) / 1000
	return q, data, want.Rel(), engine.OutputAttrs(q), canonMillis
}

// ExecEval optimizes each named TPC-H query lazily (DPhyp) and eagerly
// (EA-Prune), executes both plans and the canonical tree on synthetic
// data scaled by factor, verifies result equality, and reports
// throughput and the C_out-vs-actual cardinality error. A nil or empty
// names list selects every query. cfg.Workers drives both the optimizer
// and the morsel-driven execution runtime; results are bit-identical
// for every worker count.
func ExecEval(cfg Config, factor float64, names []string) *ExecReport {
	cfg = cfg.Defaults()
	execOpts := engine.ExecOptions{Workers: cfg.Workers, Trace: cfg.Trace}
	rep := &ExecReport{Factor: factor, Workers: cfg.Workers, Phys: cfg.Phys, CanonMillis: map[string]float64{}}
	for _, name := range execQueryNames(names) {
		q, data, wantRel, attrs, canonMillis := execSetup(cfg, factor, name)
		rep.CanonMillis[name] = canonMillis

		for _, alg := range execAlgs {
			// With a trace attached, each (query, plan) cell gets one
			// "query" span; the optimizer phases (TraceOptimize) and the
			// executor's operator spans nest under it.
			cid := -1
			if cfg.Trace != nil {
				cid = cfg.Trace.Begin(name+" "+alg.label, "query")
			}
			res, err := engine.TraceOptimize(cfg.Trace, "optimize", func() (*core.Result, error) {
				return core.Optimize(q, core.Options{Algorithm: alg.alg, Workers: cfg.Workers, Phys: cfg.Phys})
			})
			if err != nil {
				panic(fmt.Sprintf("experiments: optimize %s/%s: %v", name, alg.label, err))
			}
			start := time.Now()
			tab, stats, err := engine.ExecProfiledOpts(q, res.Plan, data, execOpts)
			if err != nil {
				panic(fmt.Sprintf("experiments: exec %s/%s: %v", name, alg.label, err))
			}
			elapsed := time.Since(start)
			if cid >= 0 {
				cfg.Trace.SetRows(cid, -1, int64(stats.ResultRows))
				cfg.Trace.End(cid)
			}
			secs := elapsed.Seconds()
			row := ExecRow{
				Query:         name,
				Plan:          alg.label,
				Groupings:     res.Plan.CountGroupings(),
				Millis:        float64(elapsed.Microseconds()) / 1000,
				ResultRows:    stats.ResultRows,
				ActualCout:    stats.ActualCout,
				EstimatedCout: stats.EstimatedCout,
				QError:        stats.CoutQError(),
				QErrorTrivial: stats.CoutTrivial(),
				Hash:          stats.Hash,
				Match:         algebra.EqualBags(wantRel, tab.Rel(), attrs),
			}
			if w, ok := stats.WorstOp(); ok {
				row.WorstOpQError = w.QError()
				row.WorstOp = w.Key.Describe(q)
			}
			row.SortsPerformed, row.SortsEliminated = res.Plan.SortStats()
			if secs > 0 {
				row.RowsPerSec = stats.ActualCout / secs
			}
			rep.Rows = append(rep.Rows, row)
		}
	}
	return rep
}

// AllMatch reports whether every executed plan reproduced the canonical
// result — the go/no-go signal for scripted use of eabench exec.
func (r *ExecReport) AllMatch() bool {
	for _, row := range r.Rows {
		if !row.Match {
			return false
		}
	}
	return true
}

// Format renders the report as an aligned table. The q-error columns
// expose the per-operator cardinality profile: the plan-level aggregate
// plus the worst single operator (value and the operator it occurs at).
// The hash-table columns (mean load factor, worst probe distance, bloom
// pass rate) profile the flat tables of the batch runtime; "-" means no
// flat table (or no bloom filter) was built.
func (r *ExecReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Execution: optimized vs canonical plans on synthetic TPC-H data (scale factor %g, workers %d, phys %v)\n", r.Factor, r.Workers, r.Phys)
	fmt.Fprintf(&b, "%-6s %-15s %4s %7s %10s %10s %12s %12s %12s %7s %6s %5s %8s %9s %6s  %s\n",
		"query", "plan", "Γ", "sorts", "ms", "rows", "C_out act", "C_out est", "rows/s", "ht-load", "probe≤", "bloom", "q-err", "worst-op", "match", "worst operator")
	var names []string
	seen := map[string]bool{}
	for _, row := range r.Rows {
		if !seen[row.Query] {
			seen[row.Query] = true
			names = append(names, row.Query)
		}
	}
	for _, name := range names {
		for _, row := range r.Rows {
			if row.Query != name {
				continue
			}
			match := "ok"
			if !row.Match {
				match = "FAIL"
			}
			qerr := fmt.Sprintf("%8.2f", row.QError)
			worst := fmt.Sprintf("%9.2f", row.WorstOpQError)
			if row.QErrorTrivial {
				// no costed operators: nothing to estimate
				qerr = fmt.Sprintf("%8s", "-")
				worst = fmt.Sprintf("%9s", "-")
			}
			// sorts column: performed/eliminated on the sort-based
			// layer; "-" for pure hash plans.
			sorts := "-"
			if row.SortsPerformed+row.SortsEliminated > 0 {
				sorts = fmt.Sprintf("%d/%d", row.SortsPerformed, row.SortsEliminated)
			}
			// hash-table columns: flat-table builds happen only on the
			// batch runtime; a bloom rate only when a filter was gated in.
			htLoad, htProbe, htBloom := "-", "-", "-"
			if row.Hash.Builds > 0 {
				htLoad = fmt.Sprintf("%.2f", row.Hash.LoadFactor())
				htProbe = fmt.Sprintf("%d", row.Hash.MaxProbe)
				if row.Hash.BloomChecks > 0 {
					htBloom = fmt.Sprintf("%.0f%%", 100*row.Hash.BloomPassRate())
				}
			}
			fmt.Fprintf(&b, "%-6s %-15s %4d %7s %10.2f %10d %12.0f %12.0f %12.0f %7s %6s %5s %s %s %6s  %s\n",
				row.Query, row.Plan, row.Groupings, sorts, row.Millis, row.ResultRows,
				row.ActualCout, row.EstimatedCout, row.RowsPerSec, htLoad, htProbe, htBloom, qerr, worst, match, row.WorstOp)
		}
		fmt.Fprintf(&b, "%-6s %-15s %4s %7s %10.2f   (canonical evaluation of the initial tree)\n",
			name, "canonical", "-", "-", r.CanonMillis[name])
	}
	return b.String()
}
