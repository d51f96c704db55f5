// Package engine executes optimized plans on concrete data, so that plans
// using eager aggregation can be verified to produce exactly the same
// results as the canonical (lazy) plan — and timed against it.
//
// Execution is slot-based: Prepare resolves every attribute name an
// operator touches against its input Schema once, into a Program that
// Run executes any number of times (program.go). Plans run on the batch
// runtime — columnar vectors, typed per-column kernels, morsel-parallel
// under ExecOptions.Workers (internal/algebra's
// ColTable operators); equi-joins (the only join form the optimizer
// emits) run as build/probe hash joins or sort-merge joins, groupings as
// hash or sort-group aggregation. Two independent implementations of the
// same compilation are kept as differential-testing oracles: the
// sequential row runtime (flat []Value rows on Go maps; RuntimeRow, and
// what Canonical evaluates the unoptimized tree on) and the frozen
// map-tuple/nested-loop executor in reference.go (ExecRef, CanonicalRef).
//
// The compilation realizes the mechanics behind the paper's equivalences
// in composed form. Every pushed-down grouping Γ_{G⁺} computes
//
//   - partial states for the aggregates whose sources lie inside the
//     grouped subtree (F¹ of the decompositions of Sec. 2.1.2), and
//   - one weight attribute: the count(*)-style multiplicity each grouped
//     row stands for (the c of the Groupby-Count equivalences).
//
// Joins concatenate weights; re-grouping re-aggregates partials weighted
// by the weights of *other* collapsed sides (the ⊗ operator), and the
// final grouping combines everything into the original aggregation
// vector F. Left and full outerjoins pad grouped sides with the default
// vectors F¹({⊥}) and c:1 exactly as the generalized operators of
// Sec. 2.2 demand.
package engine

import (
	"fmt"
	"math"

	"eagg/internal/aggfn"
	"eagg/internal/algebra"
	"eagg/internal/bitset"
	"eagg/internal/cost"
	"eagg/internal/obs"
	"eagg/internal/plan"
	"eagg/internal/query"
)

// Data maps relation ids to their contents in the map-tuple boundary
// representation.
type Data map[int]*algebra.Rel

// TableData maps relation ids to slot-based tables — the representation
// the runtime actually executes on. Convert once with Data.Tables, or
// generate tables directly (internal/tpch does).
type TableData map[int]*algebra.Table

// Tables converts boundary relations into slot-based tables.
func (d Data) Tables() TableData {
	out := make(TableData, len(d))
	for id, rel := range d {
		out[id] = algebra.TableOf(rel)
	}
	return out
}

// ExecOptions configures plan execution.
type ExecOptions struct {
	// Workers is the number of goroutines the batch runtime uses inside
	// each operator: 0 (or negative) selects GOMAXPROCS, 1 runs every
	// operator on the calling goroutine, larger counts enable the
	// morsel-parallel operator arms. Results are bit-identical for every
	// value (see DESIGN.md's determinism argument). The row runtime is
	// sequential whatever this says, and so ignores MorselSize and Pool.
	Workers int
	// MorselSize overrides the rows-per-morsel granularity (0 = the
	// adaptive default: several morsels per worker, clamped to
	// [64, algebra.DefaultMorselSize]). Setting it also disables the
	// small-operator sequential cutoff, forcing the parallel machinery
	// onto every operator — the tests rely on that to exercise
	// parallelism on tiny inputs. Leave it 0 in production; results
	// are identical for every size.
	MorselSize int
	// Pool, when set, supplies the goroutines for every operator
	// fan-out from a shared scheduler instead of spawning fresh ones —
	// the handoff the service layer uses to multiplex one worker pool
	// across concurrent queries. Workers still controls the (purely
	// size-derived) work decomposition, so results are bit-identical
	// with and without a pool.
	Pool *algebra.Pool
	// Runtime is RuntimeBatch (the zero value: batch-at-a-time columnar
	// execution) unless a test or a benchmark oracle names RuntimeRow,
	// the sequential row-at-a-time reference. Results are bit-identical.
	Runtime Runtime
	// BatchSize overrides the rows-per-batch granularity of the batch
	// runtime (0 = algebra.DefaultBatchSize). Results are identical for
	// every size.
	BatchSize int
	// Trace, when set, records one span per plan node (operator wall
	// time, rows in/out, estimates, hash/sort telemetry) into the given
	// trace. Spans are recorded by the driver goroutine at the operator
	// barriers the profiler already uses, so collection never perturbs
	// results: the deterministic span fields (structure, names, row
	// counts — obs.Trace.Fingerprint) are bit-identical for every worker
	// count, and timing lives in separate fields excluded from the
	// determinism comparisons. Nil (the default) skips all recording; the
	// only residue is one pointer test per operator.
	Trace *obs.Trace
}

// exec resolves the options into operator execution settings. The row
// runtime runs no operator on it and reports one worker.
func (o ExecOptions) exec() *algebra.Exec {
	if o.Runtime == RuntimeRow {
		return algebra.NewExec(1)
	}
	e := algebra.NewExec(o.Workers)
	if o.MorselSize > 0 {
		e = e.WithMorselSize(o.MorselSize)
	}
	if o.Pool != nil {
		e = e.WithPool(o.Pool)
	}
	if o.BatchSize > 0 {
		e = e.WithBatchSize(o.BatchSize)
	}
	return e
}

// runtime resolves the options into the operator runtime a Program runs
// on.
func (o ExecOptions) runtime(ex *algebra.Exec) (runtimeOps, error) {
	switch o.Runtime {
	case RuntimeBatch:
		return batchRuntime{ex: ex}, nil
	case RuntimeRow:
		return rowRuntime{}, nil
	}
	return nil, fmt.Errorf("engine: unknown runtime %v", o.Runtime)
}

// ExecStats profiles one execution: a per-operator cardinality profile
// (each join and grouping operator's measured output under its canonical
// (relation-set, grouping-attrs) key — scans and the free projection
// excluded, matching the estimator) plus the plan-level aggregates
// derived from it.
type ExecStats struct {
	// ActualCout is Σ |output| over join and grouping operators — the
	// measured value of the quantity C_out estimates.
	ActualCout float64
	// EstimatedCout is the plan's C_out estimate (root cost).
	EstimatedCout float64
	// ResultRows is the cardinality of the final result.
	ResultRows int
	// Workers is the resolved per-operator worker count the execution
	// used (1 = sequential; always 1 under the row runtime).
	Workers int
	// Ops is the per-operator cardinality profile, one entry per costed
	// operator in execution (bottom-up) order. Relation bitsets survive
	// the binder, so keys are recorded at operator-completion time.
	Ops []OpCard
	// Hash aggregates the flat hash-table telemetry of the execution
	// (builds and bloom-filtered probes; zero-valued under the row
	// runtime's map-based hash operators).
	Hash algebra.HashTableStats
}

// OpCard is one operator's measured output cardinality with its canonical
// key and the plan's estimate for the same operator.
type OpCard struct {
	Key cost.CardKey
	Est float64 // the plan node's estimated output cardinality
	Act float64 // the measured output cardinality
}

// QError is the per-operator cardinality q-error, clamped like
// ExecStats.CoutQError.
func (c OpCard) QError() float64 {
	est := math.Max(c.Est, 1)
	act := math.Max(c.Act, 1)
	if est > act {
		return est / act
	}
	return act / est
}

// WorstOp returns the operator with the largest cardinality q-error, or
// ok=false for plans without costed operators. Ties keep the first
// (deepest) operator, where the error originates.
func (s *ExecStats) WorstOp() (OpCard, bool) {
	if len(s.Ops) == 0 {
		return OpCard{}, false
	}
	worst := s.Ops[0]
	for _, op := range s.Ops[1:] {
		if op.QError() > worst.QError() {
			worst = op
		}
	}
	return worst, true
}

// HarvestInto records every measured operator cardinality into the
// overlay — the harvest half of the execute→harvest→re-optimize loop.
func (s *ExecStats) HarvestInto(o *cost.FeedbackOverlay) {
	for _, op := range s.Ops {
		o.Set(op.Key, op.Act)
	}
}

// Profile returns the measured cardinalities as a fresh FeedbackOverlay,
// ready to be passed to a re-optimization via core.Options.Stats.
func (s *ExecStats) Profile() *cost.FeedbackOverlay {
	o := cost.NewFeedbackOverlay()
	s.HarvestInto(o)
	return o
}

// CoutQError returns the q-error of the C_out estimate:
// max(est, actual)/min(est, actual) with both sides clamped to ≥ 1, the
// standard guard that keeps the metric finite and monotone when either
// cardinality is zero. A perfect estimate (including "both zero") is 1;
// an estimate of n against a measured 0 — or vice versa — degrades as n
// instead of collapsing to a sentinel indistinguishable from perfect.
// Use CoutTrivial to tell the vacuous all-zero case apart.
func (s *ExecStats) CoutQError() float64 {
	est := math.Max(s.EstimatedCout, 1)
	act := math.Max(s.ActualCout, 1)
	if est > act {
		return est / act
	}
	return act / est
}

// CoutTrivial reports whether the plan had no costed operators at all
// (both the estimate and the measurement are zero), in which case the
// q-error is vacuously 1 and reports should print it as undefined.
func (s *ExecStats) CoutTrivial() bool {
	return s.ActualCout == 0 && s.EstimatedCout == 0
}

// aggState tracks one original aggregate through the plan.
type aggState struct {
	// partial is nil while the aggregate is still raw (its argument
	// attributes flow through unaggregated). Once a grouping collapses
	// its source relations it holds the partial attribute names:
	// [p] for sum/count/min/max-style states, [s, n] for avg.
	partial []string
	// defaults aligns with partial: the {⊥} value of each partial
	// attribute, used as outerjoin defaults.
	defaults []aggfn.Default
	// cover is the relation set whose multiplicity is folded into the
	// partial.
	cover bitset.VSet
}

// weight is one multiplicity attribute with the relation set it covers.
type weight struct {
	attr  string
	cover bitset.VSet
}

// binder is the representation-independent part of plan compilation: the
// query, fresh-name generation and the aggregate bookkeeping rewrites
// shared by Prepare and the reference executor.
type binder struct {
	q   *query.Query
	seq int
}

func (e *binder) fresh(prefix string) string {
	e.seq++
	return fmt.Sprintf("§%s%d", prefix, e.seq)
}

func (e *binder) attrNames(set bitset.VSet) []string {
	var out []string
	set.ForEach(func(a int) { out = append(out, e.q.AttrNames[a]) })
	return out
}

// Exec executes an optimized plan against boundary data with one worker
// and returns the result relation over G ∪ A(F) (or the plain operator
// result for grouping-free queries).
func Exec(q *query.Query, p *plan.Plan, data Data) (*algebra.Rel, error) {
	tab, _, err := ExecProfiledOpts(q, p, data.Tables(), ExecOptions{Workers: 1})
	if err != nil {
		return nil, err
	}
	return tab.Rel(), nil
}

// ExecProfiledOpts prepares the plan against data's schemas and runs it
// once under the given options (Prepare, Program.Run), returning the
// result and its execution statistics, including the measured
// counterpart of the plan's C_out estimate.
func ExecProfiledOpts(q *query.Query, p *plan.Plan, data TableData, opts ExecOptions) (*algebra.Table, *ExecStats, error) {
	prog, err := Prepare(q, p, data.Schemas())
	if err != nil {
		return nil, nil, err
	}
	return prog.Run(data, opts)
}

// joinKeys resolves the plan node's equi-predicates into paired key
// slots. Predicates may arrive in commuted orientation (the DP driver
// applies commutative operators both ways), so each attribute pair is
// oriented by schema membership. Attributes absent from both sides
// resolve to slot -1, which reads as NULL and — under strict join
// equality — matches nothing, mirroring the map runtime.
func joinKeys(q *query.Query, preds []*query.Predicate, ls, rs *algebra.Schema) (lk, rk []int) {
	slotIn := func(s *algebra.Schema, name string) int {
		if i, ok := s.Slot(name); ok {
			return i
		}
		return -1
	}
	for _, p := range preds {
		for i := range p.Left {
			ln, rn := q.AttrNames[p.Left[i]], q.AttrNames[p.Right[i]]
			if !ls.Has(ln) && ls.Has(rn) {
				ln, rn = rn, ln
			}
			lk = append(lk, slotIn(ls, ln))
			rk = append(rk, slotIn(rs, rn))
		}
	}
	return lk, rk
}

// mergeKeySlots resolves a sort-merge node's merge-key attribute ids
// (already oriented and permuted by the optimizer, plan.MergeL/MergeR)
// against the input schemas. Attributes dropped below (slot -1) read as
// NULL and match nothing, like in the hash path.
func mergeKeySlots(q *query.Query, p *plan.Plan, ls, rs *algebra.Schema) (lk, rk []int) {
	slotIn := func(s *algebra.Schema, a int) int {
		if i, ok := s.Slot(q.AttrNames[a]); ok {
			return i
		}
		return -1
	}
	for i := range p.MergeL {
		lk = append(lk, slotIn(ls, p.MergeL[i]))
		rk = append(rk, slotIn(rs, p.MergeR[i]))
	}
	return lk, rk
}

// padRow builds the outerjoin default row for a padded side: NULL
// everywhere except weights (1) and partial attributes ({⊥} defaults).
func padRow(c *compiled) algebra.Row {
	s := c.schema
	pad := algebra.NullRow(s)
	set := func(attr string, v algebra.Value) {
		if slot, ok := s.Slot(attr); ok {
			pad[slot] = v
		}
	}
	for _, w := range c.weights {
		set(w.attr, algebra.Int(1))
	}
	for _, st := range c.aggs {
		for i, attr := range st.partial {
			switch st.defaults[i] {
			case aggfn.DefaultOne:
				set(attr, algebra.Int(1))
			case aggfn.DefaultZero:
				set(attr, algebra.Int(0))
			}
		}
	}
	return pad
}

// findGroupJoin locates the original groupjoin node covering exactly the
// relations the plan node covers (the conflict detector keeps groupjoin
// operands fixed, so the match is unique).
func findGroupJoin(n *query.OpNode, rels bitset.VSet) *query.OpNode {
	if n == nil || n.Kind == query.KindScan {
		return nil
	}
	if n.Kind == query.KindGroupJoin && n.Rels() == rels {
		return n
	}
	if g := findGroupJoin(n.Left, rels); g != nil {
		return g
	}
	return findGroupJoin(n.Right, rels)
}
