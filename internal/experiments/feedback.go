package experiments

import (
	"fmt"
	"strings"
	"time"

	"eagg/internal/algebra"
	"eagg/internal/core"
	"eagg/internal/engine"
)

// FeedbackRow is one (query, plan-generator) cell of the feedback
// experiment: the cardinality feedback loop run to convergence, with the
// baseline (round 1, pure selectivity model) compared against the final
// (measured-cardinality) round.
type FeedbackRow struct {
	Query string
	Plan  string // "lazy/DPhyp" or "eager/EA-Prune"
	// Rounds is the number of optimize→execute rounds the loop ran;
	// Converged whether the plan reached its fixed point within them.
	Rounds    int
	Converged bool
	// PlanChanged reports whether feedback changed the chosen plan
	// (baseline vs final round, structural comparison).
	PlanChanged bool
	// QErrBefore/QErrAfter are the plan-level C_out q-errors of the
	// baseline and final rounds; WorstBefore/WorstAfter the worst
	// single-operator q-errors of the same rounds.
	QErrBefore, QErrAfter   float64
	WorstBefore, WorstAfter float64
	// CoutBefore/CoutAfter are the measured intermediate-result volumes:
	// the delta is the execution-side win (or cost) of re-optimizing.
	CoutBefore, CoutAfter float64
	Millis                float64 // total loop wall time (all rounds)
	// Match reports result equality of the final round against the
	// canonical evaluation.
	Match bool
}

// FeedbackReport is the output of eabench exec -feedback.
type FeedbackReport struct {
	Factor  float64
	Workers int
	Rows    []FeedbackRow
}

// FeedbackEval closes the cardinality feedback loop per TPC-H query and
// plan generator: optimize, execute on synthetic data scaled by factor,
// harvest the measured per-operator cardinalities, re-optimize under
// them, and iterate until the plan is stable. A nil or empty names list
// selects every query. cfg.Workers drives the optimizer and the
// morsel-driven execution runtime in every round.
func FeedbackEval(cfg Config, factor float64, names []string) *FeedbackReport {
	cfg = cfg.Defaults()
	rep := &FeedbackReport{Factor: factor, Workers: cfg.Workers}
	for _, name := range execQueryNames(names) {
		q, data, wantRel, attrs, _ := execSetup(cfg, factor, name)

		for _, alg := range execAlgs {
			// With a trace attached, each cell's feedback rounds (and the
			// optimize/operator spans within them) nest under one "query"
			// span — the Perfetto view of the loop converging.
			cid := -1
			if cfg.Trace != nil {
				cid = cfg.Trace.Begin(name+" "+alg.label, "query")
			}
			start := time.Now()
			res, err := engine.Reoptimize(q, data, engine.FeedbackOptions{
				Opt:  core.Options{Algorithm: alg.alg, Workers: cfg.Workers, Phys: cfg.Phys},
				Exec: engine.ExecOptions{Workers: cfg.Workers, Trace: cfg.Trace},
			})
			if err != nil {
				panic(fmt.Sprintf("experiments: feedback %s/%s: %v", name, alg.label, err))
			}
			if cid >= 0 {
				cfg.Trace.SetRows(cid, -1, int64(res.Final().Stats.ResultRows))
				cfg.Trace.End(cid)
			}
			first, final := res.First().Stats, res.Final().Stats
			row := FeedbackRow{
				Query:       name,
				Plan:        alg.label,
				Rounds:      len(res.Rounds),
				Converged:   res.Converged,
				PlanChanged: res.PlanChanged(),
				QErrBefore:  first.CoutQError(),
				QErrAfter:   final.CoutQError(),
				CoutBefore:  first.ActualCout,
				CoutAfter:   final.ActualCout,
				Millis:      float64(time.Since(start).Microseconds()) / 1000,
				Match:       algebra.EqualBags(wantRel, res.Result.Rel(), attrs),
			}
			if w, ok := first.WorstOp(); ok {
				row.WorstBefore = w.QError()
			}
			if w, ok := final.WorstOp(); ok {
				row.WorstAfter = w.QError()
			}
			rep.Rows = append(rep.Rows, row)
		}
	}
	return rep
}

// AllMatch reports whether every final-round plan reproduced the
// canonical result — the go/no-go signal for scripted use.
func (r *FeedbackReport) AllMatch() bool {
	for _, row := range r.Rows {
		if !row.Match {
			return false
		}
	}
	return true
}

// AnyPlanChanged reports whether feedback changed at least one chosen
// plan (the loop's raison d'être at small scale factors, where the model
// is off by orders of magnitude).
func (r *FeedbackReport) AnyPlanChanged() bool {
	for _, row := range r.Rows {
		if row.PlanChanged {
			return true
		}
	}
	return false
}

// Format renders the report as an aligned table: per query and plan
// generator, the q-error of the C_out estimate before (pure model) and
// after feedback, whether the plan changed, and the measured
// intermediate-volume delta.
func (r *FeedbackReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Cardinality feedback: optimize → execute → re-optimize until stable (scale factor %g, workers %d)\n", r.Factor, r.Workers)
	fmt.Fprintf(&b, "%-6s %-15s %6s %5s %8s %9s %9s %9s %9s %12s %12s %10s %6s\n",
		"query", "plan", "rounds", "conv", "changed", "q-err:1st", "q-err:fin", "worst:1st", "worst:fin",
		"C_out:1st", "C_out:fin", "ms", "match")
	for _, row := range r.Rows {
		match := "ok"
		if !row.Match {
			match = "FAIL"
		}
		changed := "-"
		if row.PlanChanged {
			changed = "yes"
		}
		conv := "yes"
		if !row.Converged {
			conv = "NO"
		}
		fmt.Fprintf(&b, "%-6s %-15s %6d %5s %8s %9.2f %9.2f %9.2f %9.2f %12.0f %12.0f %10.2f %6s\n",
			row.Query, row.Plan, row.Rounds, conv, changed,
			row.QErrBefore, row.QErrAfter, row.WorstBefore, row.WorstAfter,
			row.CoutBefore, row.CoutAfter, row.Millis, match)
	}
	return b.String()
}
