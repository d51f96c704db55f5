// The cardinality feedback loop: execute an optimized plan, harvest the
// measured per-operator output cardinalities (the quantities C_out
// estimates), overlay them on the estimator, and re-optimize — iterating
// until the chosen plan is stable or a round bound is hit.
//
// The loop can change which plan is chosen, never what it computes: every
// round's plan is a valid plan for the same query, so the equivalence
// guarantees of the optimizer and the runtime carry over unchanged (the
// fuzz suite enforces it). Convergence is a fixed point by construction:
// once a round re-selects the previous round's plan, every operator of
// that plan was estimated from its own measured cardinality, so the
// plan-level C_out q-error of the final round collapses to 1.
package engine

import (
	"fmt"

	"eagg/internal/algebra"
	"eagg/internal/core"
	"eagg/internal/cost"
	"eagg/internal/plan"
	"eagg/internal/query"
)

// DefaultFeedbackRounds bounds the optimize→execute iterations of
// Reoptimize when FeedbackOptions.MaxRounds is unset. Round 1 is the
// model-only baseline; in practice the plan is stable by round 2 or 3,
// so the default allows one extra round for profiles whose canonical
// keys only get covered after a plan change.
const DefaultFeedbackRounds = 4

// FeedbackOptions configures a Reoptimize run.
type FeedbackOptions struct {
	// Opt is the optimizer configuration used in every round; round 1
	// runs it as given (Opt.Stats overlays an externally harvested
	// profile, nil starts from the pure model), later rounds override
	// Opt.Stats with the accumulated measured profile.
	Opt core.Options
	// Exec is the execution configuration used in every round.
	Exec ExecOptions
	// MaxRounds bounds the optimize→execute rounds (0 selects
	// DefaultFeedbackRounds; the minimum of 2 means one baseline and
	// one re-optimization).
	MaxRounds int
}

// FeedbackRound is one optimize→execute→harvest iteration.
type FeedbackRound struct {
	// Plan is the plan the round chose; its Card/Cost estimates reflect
	// the profile the round optimized under.
	Plan *plan.Plan
	// Stats is the round's execution profile.
	Stats *ExecStats
	// PlanChanged reports whether the plan differs structurally from the
	// previous round's (always false for the first round).
	PlanChanged bool
}

// FeedbackResult is the outcome of a Reoptimize run.
type FeedbackResult struct {
	// Rounds holds every executed round in order; the first is the
	// baseline, the last the final (converged or round-bounded) plan.
	Rounds []FeedbackRound
	// Converged reports that the last round re-selected the previous
	// round's plan — the loop's fixed point.
	Converged bool
	// Result is the final round's result table (every round computes the
	// same logical result; re-executions are bit-identical per the
	// engine's determinism contract).
	Result *algebra.Table
	// Profile is the accumulated measured-cardinality overlay, ready to
	// seed another Reoptimize or a plain core.Optimize via Options.Stats.
	Profile *cost.FeedbackOverlay
}

// First returns the baseline round (pure model, or Opt.Stats as given).
func (r *FeedbackResult) First() *FeedbackRound { return &r.Rounds[0] }

// Final returns the last executed round.
func (r *FeedbackResult) Final() *FeedbackRound { return &r.Rounds[len(r.Rounds)-1] }

// PlanChanged reports whether the final plan differs structurally from
// the baseline plan.
func (r *FeedbackResult) PlanChanged() bool {
	return r.First().Plan.Signature() != r.Final().Plan.Signature()
}

// Reoptimize closes the cardinality feedback loop on one query: optimize,
// execute with profiling, feed the measured per-operator cardinalities
// back into the estimator through a FeedbackOverlay, and re-optimize —
// until the chosen plan is stable (Converged) or MaxRounds is exhausted.
// When Opt.Stats carries an externally harvested FeedbackOverlay (e.g. a
// previous run's Profile), its measurements seed the loop's accumulator,
// so nothing already learned is forgotten after round 1. The converged
// round does not re-execute: the stable plan is structurally identical
// to the one just executed, so by the engine's determinism contract its
// Stats are assembled from the overlay — the corrected estimates against
// the very measurements they came from.
func Reoptimize(q *query.Query, data TableData, opts FeedbackOptions) (*FeedbackResult, error) {
	maxRounds := opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = DefaultFeedbackRounds
	}
	if maxRounds < 2 {
		maxRounds = 2
	}

	overlay := cost.NewFeedbackOverlay()
	if seed := opts.Opt.Stats; seed != nil {
		overlay.Merge(seed)
	}
	out := &FeedbackResult{Profile: overlay}
	prevSig := ""
	// With a trace attached to the execution options, every round gets a
	// "feedback" span; the optimizer spans (TraceOptimize) and the
	// executor's operator spans nest under it through the trace's open-
	// span stack, so a Reoptimize run opens in Perfetto as rounds of
	// optimize → execute bars.
	tr := opts.Exec.Trace
	for round := 0; round < maxRounds; round++ {
		rid := -1
		if tr != nil {
			rid = tr.Begin(fmt.Sprintf("feedback round %d", round+1), "feedback")
		}
		o := opts.Opt
		if round > 0 {
			o.Stats = overlay
		}
		res, err := TraceOptimize(tr, "optimize", func() (*core.Result, error) { return core.Optimize(q, o) })
		if err != nil {
			if rid >= 0 {
				tr.End(rid)
			}
			return nil, fmt.Errorf("engine: feedback round %d: %w", round+1, err)
		}
		sig := res.Plan.Signature()
		if round > 0 && sig == prevSig {
			prev := out.Rounds[len(out.Rounds)-1].Stats
			out.Rounds = append(out.Rounds, FeedbackRound{
				Plan:  res.Plan,
				Stats: statsFromOverlay(res.Plan, overlay, prev),
			})
			out.Converged = true
			if rid >= 0 {
				tr.Annotate(rid, "converged", "plan stable; stats assembled from the overlay, no re-execution")
				tr.End(rid)
			}
			break
		}
		tab, stats, err := ExecProfiledOpts(q, res.Plan, data, opts.Exec)
		if err != nil {
			if rid >= 0 {
				tr.End(rid)
			}
			return nil, fmt.Errorf("engine: feedback round %d: %w", round+1, err)
		}
		stats.HarvestInto(overlay)
		changed := round > 0 && sig != prevSig
		out.Rounds = append(out.Rounds, FeedbackRound{
			Plan:        res.Plan,
			Stats:       stats,
			PlanChanged: changed,
		})
		out.Result = tab
		prevSig = sig
		if rid >= 0 {
			if changed {
				tr.Annotate(rid, "plan_changed", "feedback changed the chosen plan")
			}
			tr.End(rid)
		}
	}
	return out, nil
}

// statsFromOverlay assembles the ExecStats a re-execution of p would
// measure, from the overlay's harvested cardinalities. Valid only when a
// structurally identical plan was just executed and harvested (the
// converged round): every costed operator of p then has its key in the
// overlay, and determinism guarantees a real execution would reproduce
// exactly these numbers. Operators are walked in the executor's
// compile order (post-order, left before right), so the Ops profile is
// ordered identically to a recorded one.
func statsFromOverlay(p *plan.Plan, overlay *cost.FeedbackOverlay, prev *ExecStats) *ExecStats {
	s := &ExecStats{EstimatedCout: p.Cost, ResultRows: prev.ResultRows, Workers: prev.Workers}
	var walk func(n *plan.Plan)
	walk = func(n *plan.Plan) {
		if n == nil {
			return
		}
		walk(n.Left)
		walk(n.Right)
		if key, ok := cost.KeyOf(n); ok {
			act, found := overlay.Lookup(key)
			if !found {
				act = n.Card // unreachable at a fixed point; degrade to the estimate
			}
			s.ActualCout += act
			s.Ops = append(s.Ops, OpCard{Key: key, Est: n.Card, Act: act})
		}
	}
	walk(p)
	return s
}
