// The EXPLAIN ANALYZE evaluation behind eaexplain -analyze: run the
// cardinality feedback loop on one TPC-H query with a fresh trace per
// executed round, and render the plan tree with estimated-vs-actual
// cardinality and per-operator wall time before and after feedback —
// the one-command view of what the measured cardinalities bought.
//
// The loop is run manually here rather than through engine.Reoptimize
// because EXPLAIN ANALYZE needs one trace per execution: the converged
// round never executes (its stats are assembled from the overlay), so
// the "after" tree must come from the last round that actually ran.
package experiments

import (
	"fmt"
	"strings"

	"eagg/internal/algebra"
	"eagg/internal/core"
	"eagg/internal/cost"
	"eagg/internal/engine"
	"eagg/internal/obs"
)

// AnalyzeCell is one plan generator's EXPLAIN ANALYZE: the annotated
// trees of the first and the last executed feedback round.
type AnalyzeCell struct {
	Plan        string // "lazy/DPhyp" or "eager/EA-Prune"
	Rounds      int    // executed rounds (the converged re-check not counted)
	Converged   bool
	PlanChanged bool
	// Before and After are the rendered trees of the first and the last
	// executed rounds (identical text when feedback never changed the
	// plan — the annotation line says so).
	Before, After string
	// QErrBefore/QErrAfter are the plan-level C_out q-errors of the same
	// two rounds.
	QErrBefore, QErrAfter float64
	Match                 bool
}

// AnalyzeReport is the output of eaexplain -analyze.
type AnalyzeReport struct {
	Query   string
	Factor  float64
	Workers int
	Phys    core.PhysMode
	Cells   []AnalyzeCell
}

// AnalyzeEval runs EXPLAIN ANALYZE for one named TPC-H query: per plan
// generator, the feedback loop to convergence (max
// engine.DefaultFeedbackRounds executed rounds) with every execution
// traced, each round's result verified against the canonical
// evaluation.
func AnalyzeEval(cfg Config, factor float64, name string) *AnalyzeReport {
	cfg = cfg.Defaults()
	q, data, wantRel, attrs, _ := execSetup(cfg, factor, name)
	rep := &AnalyzeReport{Query: name, Factor: factor, Workers: cfg.Workers, Phys: cfg.Phys}

	for _, alg := range execAlgs {
		overlay := cost.NewFeedbackOverlay()
		cell := AnalyzeCell{Plan: alg.label, Match: true}
		prevSig := ""
		var firstStats, lastStats *engine.ExecStats
		for round := 0; round < engine.DefaultFeedbackRounds; round++ {
			opt := core.Options{Algorithm: alg.alg, Workers: cfg.Workers, Phys: cfg.Phys}
			if round > 0 {
				opt.Stats = overlay
			}
			res, err := core.Optimize(q, opt)
			if err != nil {
				panic(fmt.Sprintf("experiments: analyze %s/%s round %d: %v", name, alg.label, round+1, err))
			}
			sig := res.Plan.Signature()
			if round > 0 && sig == prevSig {
				cell.Converged = true
				break
			}
			tr := obs.NewTrace()
			tab, stats, err := engine.ExecProfiledOpts(q, res.Plan, data, engine.ExecOptions{
				Workers: cfg.Workers, Trace: tr,
			})
			if err != nil {
				panic(fmt.Sprintf("experiments: analyze %s/%s round %d: %v", name, alg.label, round+1, err))
			}
			stats.HarvestInto(overlay)
			if !algebra.EqualBags(wantRel, tab.Rel(), attrs) {
				cell.Match = false
			}
			tree := engine.ExplainAnalyze(q, res.Plan, tr)
			if round == 0 {
				cell.Before, firstStats = tree, stats
			}
			cell.After, lastStats = tree, stats
			cell.Rounds = round + 1
			cell.PlanChanged = round > 0 // a later round ran ⇒ the plan changed
			prevSig = sig
		}
		cell.QErrBefore = firstStats.CoutQError()
		cell.QErrAfter = lastStats.CoutQError()
		rep.Cells = append(rep.Cells, cell)
	}
	return rep
}

// Format renders the report: per plan generator, the loop's outcome
// line, then the annotated tree before feedback (round 1, pure model)
// and — when feedback changed the plan — after it.
func (r *AnalyzeReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "EXPLAIN ANALYZE: %s (scale factor %g, workers %d, phys %v)\n",
		r.Query, r.Factor, r.Workers, r.Phys)
	for _, c := range r.Cells {
		match := "ok"
		if !c.Match {
			match = "FAIL"
		}
		conv := "converged"
		if !c.Converged {
			conv = "round-bounded"
		}
		fmt.Fprintf(&b, "\n=== %s ===\n", c.Plan)
		fmt.Fprintf(&b, "%d executed round(s), %s, C_out q-error %.2f → %.2f, match %s\n",
			c.Rounds, conv, c.QErrBefore, c.QErrAfter, match)
		fmt.Fprintf(&b, "--- before feedback (round 1, pure model) ---\n%s", c.Before)
		if c.PlanChanged {
			fmt.Fprintf(&b, "--- after feedback (round %d, measured cardinalities) ---\n%s", c.Rounds, c.After)
		} else {
			fmt.Fprintf(&b, "--- feedback confirmed the plan: no later round changed it ---\n")
		}
	}
	return b.String()
}
