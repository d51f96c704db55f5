// Package eagg is a plan generator that jointly reorders joins — including
// outer joins, semijoins, antijoins and groupjoins — and the placement of
// grouping (eager aggregation), reproducing Eich & Moerkotte, "Dynamic
// Programming: The Next Step" (ICDE 2015).
//
// The package is a thin facade over the building blocks in internal/:
//
//   - build a Query (relations, statistics, keys, an initial operator
//     tree, grouping attributes and an aggregation vector),
//   - Optimize it with one of the plan generators of the paper (DPhyp
//     baseline, EA-All, EA-Prune, H1, H2) or the beam-search extension,
//   - inspect the resulting Plan, and optionally
//   - Execute it on concrete data to cross-check results, or
//   - Reoptimize it in the cardinality feedback loop: execute, harvest
//     the measured per-operator cardinalities, re-optimize under them.
//
// A minimal end-to-end use:
//
//	q := eagg.NewQuery()
//	fact := q.AddRelation("fact", 1_000_000)
//	dim := q.AddRelation("dim", 100)
//	fk := q.AddAttr(fact, "fact.fk", 100)
//	g := q.AddAttr(fact, "fact.g", 10)
//	q.AddAttr(fact, "fact.v", 500_000)
//	pk := q.AddAttr(dim, "dim.pk", 100)
//	q.AddKey(dim, pk)
//	q.Root = eagg.Join(eagg.InnerJoin,
//		eagg.Scan(fact), eagg.Scan(dim), fk, pk, 1.0/100)
//	q.SetGrouping([]int{g}, eagg.Aggregates(
//		eagg.Count("cnt"), eagg.Sum("total", "fact.v")))
//	res, err := eagg.Optimize(q, eagg.Options{Algorithm: eagg.EAPrune})
//
// See examples/ for runnable programs and DESIGN.md for the system map.
package eagg

import (
	"eagg/internal/aggfn"
	"eagg/internal/algebra"
	"eagg/internal/core"
	"eagg/internal/cost"
	"eagg/internal/engine"
	"eagg/internal/obs"
	"eagg/internal/plan"
	"eagg/internal/query"
	"eagg/internal/service"
)

// Query is the optimizer input: relations with statistics, the initial
// operator tree, grouping attributes and aggregates.
type Query = query.Query

// OpNode is a node of the initial operator tree.
type OpNode = query.OpNode

// Predicate is an equi-join predicate with a selectivity estimate.
type Predicate = query.Predicate

// Plan is an optimized operator tree with logical properties.
type Plan = plan.Plan

// Options select the algorithm and its parameters, including Workers: the
// DP driver parallelizes across result-set levels (0 = GOMAXPROCS, 1 =
// sequential reference) and returns bit-identical plans for every worker
// count. See the README's "Parallel optimization" section.
type Options = core.Options

// Result carries the optimized plan and search statistics.
type Result = core.Result

// Algorithm identifies one of the paper's five plan generators.
type Algorithm = core.Algorithm

// Agg describes one aggregate function of the aggregation vector.
type Agg = aggfn.Agg

// Vector is an ordered aggregation vector F.
type Vector = aggfn.Vector

// Rel is a bag-semantics relation: the map-tuple boundary representation
// used to construct inputs and compare results.
type Rel = algebra.Rel

// Table is a slot-based relation: the flat-row representation the
// execution runtime works on. Convert with algebra.TableOf / Table.Rel,
// or build tables directly.
type Table = algebra.Table

// Data maps relation ids to contents for Execute.
type Data = engine.Data

// TableData maps relation ids to slot-based tables for
// ExecuteProfiledOpts; obtain it from Data.Tables() or a columnar
// generator.
type TableData = engine.TableData

// ExecStats profiles one execution: the per-operator cardinality profile
// and the measured intermediate-result volume (actual C_out) against the
// plan's estimate.
type ExecStats = engine.ExecStats

// OpCard is one profiled operator: its canonical key, estimated and
// measured output cardinality.
type OpCard = engine.OpCard

// CardKey canonically identifies a logical intermediate result — the
// (relation-set, grouping-attrs) key measured cardinalities are recorded
// and looked up under.
type CardKey = cost.CardKey

// FeedbackOverlay holds measured cardinalities, falling back to the
// selectivity model for every key it lacks; build one from
// ExecStats.Profile (or NewFeedbackOverlay + ExecStats.HarvestInto) and
// pass it via Options.Stats to re-optimize with corrected cardinalities.
type FeedbackOverlay = cost.FeedbackOverlay

// NewFeedbackOverlay returns an empty measured-cardinality overlay.
func NewFeedbackOverlay() *FeedbackOverlay { return cost.NewFeedbackOverlay() }

// FeedbackOptions configures a Reoptimize run (optimizer options,
// execution options, round bound).
type FeedbackOptions = engine.FeedbackOptions

// FeedbackRound is one optimize→execute→harvest iteration of Reoptimize.
type FeedbackRound = engine.FeedbackRound

// FeedbackResult is the outcome of a Reoptimize run: every round, the
// convergence flag, the final result table and the harvested profile.
type FeedbackResult = engine.FeedbackResult

// ExecOptions configures plan execution. Workers selects the batch
// runtime's per-operator worker count (0 = GOMAXPROCS, 1 = every
// operator on the calling goroutine); results are bit-identical for
// every value, mirroring how Options.Workers behaves for the optimizer.
type ExecOptions = engine.ExecOptions

// Trace is a per-query structured trace: optimizer phases (dp levels,
// feedback rounds, plan-cache outcome) and executor operators (wall
// time, rows in/out) recorded as spans at operator barriers, so
// collection never perturbs results. Pass one via ExecOptions.Trace or
// Request.Exec.Trace; a Trace is single-goroutine (one query at a
// time). Render with ExplainAnalyze or Trace.WriteChrome (Perfetto /
// chrome://tracing).
type Trace = obs.Trace

// NewTrace returns an empty trace ready to record one query.
func NewTrace() *Trace { return obs.NewTrace() }

// MetricsRegistry is an engine-wide registry of counters, gauges and
// latency histograms; Engine.Registry() exposes the engine's, and
// Registry.Handler serves it as Prometheus text (see the README's
// metrics-endpoint section).
type MetricsRegistry = obs.Registry

// ExplainAnalyze joins a traced execution with its plan: the plan tree
// annotated per operator with estimated vs measured cardinality,
// q-error and wall time. The trace must come from executing exactly p.
func ExplainAnalyze(q *Query, p *Plan, tr *Trace) string {
	return engine.ExplainAnalyze(q, p, tr)
}

// Engine is the embedded query service: one shared worker pool, plan
// cache and (optionally) global feedback overlay serving many concurrent
// queries against resident table data. Construct with NewEngine, then
// execute through Sessions from any number of goroutines; results are
// bit-identical to the one-shot Optimize + ExecuteProfiledOpts calls.
type Engine = service.Engine

// EngineOptions configures an Engine: shared worker count, admission
// bound, shared feedback, plan-cache size.
type EngineOptions = service.EngineOptions

// Session is one client's handle on an Engine (safe for concurrent use).
type Session = service.Session

// Request is one query submission to a Session: optimizer and execution
// options plus the input data (inline or a registered dataset name).
type Request = service.Request

// Response is one executed query: the result table, the plan, execution
// and optimizer statistics, and the cache/epoch provenance.
type Response = service.Response

// EngineMetrics is a point-in-time snapshot of an Engine's shared state
// (cache hit/miss counters, feedback epoch, pool activity).
type EngineMetrics = service.Metrics

// NewEngine starts an embedded query-service engine.
func NewEngine(opts EngineOptions) *Engine { return service.NewEngine(opts) }

// Pool is a shared morsel scheduler: one fixed worker set multiplexed
// across the operator fan-outs of concurrent plan executions (see
// ExecOptions.Pool). Engines manage their own pool; NewPool is for
// embedding the scheduler without the full service layer.
type Pool = algebra.Pool

// NewPool starts a shared execution worker pool.
func NewPool(workers int) *Pool { return algebra.NewPool(workers) }

// SharedOverlay is the concurrent counterpart of FeedbackOverlay: an
// epoch-versioned, copy-on-write accumulator of measured cardinalities
// shared across queries. Readers take immutable Snapshots; Publish only
// advances the epoch when a measurement actually changes.
type SharedOverlay = cost.SharedOverlay

// NewSharedOverlay returns an empty shared overlay at epoch 0.
func NewSharedOverlay() *SharedOverlay { return cost.NewSharedOverlay() }

// Fingerprint returns the canonical signature of a (query, options)
// pair — equal fingerprints guarantee the same chosen plan under the
// same statistics. Workers and Stats are excluded (plans are shareable
// across both); it is the query half of the service plan-cache key: an
// opaque byte string to compare, not a rendering to print or parse.
func Fingerprint(q *Query, opts Options) string { return core.Fingerprint(q, opts) }

// PhysMode selects the physical algebra the plan generator may use: the
// hash layer (default) or the sort-based layer (see Options.Phys and the
// README's "-phys" section).
type PhysMode = core.PhysMode

// The physical algebra modes.
const (
	// PhysHash builds plans for the hash layer only (the default).
	PhysHash = core.PhysModeHash
	// PhysSort builds sort-merge joins and sort-group aggregation
	// wherever they exist; ordered plans survive per plan class, so sorts
	// get eliminated where orders can be reused.
	PhysSort = core.PhysModeSort
)

// ParsePhysMode resolves "hash" or "sort" ("" = hash).
func ParsePhysMode(s string) (PhysMode, error) { return core.ParsePhysMode(s) }

// ExecRuntime is the type of ExecOptions.Runtime. Plans execute on the
// batch runtime — columnar vectors, morsel-parallel under
// ExecOptions.Workers — unless the options name the row runtime, the
// sequential reference the batch runtime is tested against; it ignores
// Workers, MorselSize and Pool. Results are bit-identical between the two.
type ExecRuntime = engine.Runtime

// The execution runtimes.
const (
	// RuntimeBatch executes plans batch at a time on columnar vectors
	// (the zero value, the default).
	RuntimeBatch = engine.RuntimeBatch
	// RuntimeRow executes plans row at a time on one goroutine: the
	// differential oracle, not a performance path.
	RuntimeRow = engine.RuntimeRow
)

// The plan generators: the paper's five (Sec. 4) plus the beam extension.
const (
	// DPhyp is the baseline: optimal join ordering, grouping stays on top.
	DPhyp = core.AlgDPhyp
	// EAAll explores the complete eager-aggregation search space.
	EAAll = core.AlgEAAll
	// EAPrune is EA-All with optimality-preserving dominance pruning.
	EAPrune = core.AlgEAPrune
	// H1 keeps the locally cheapest tree per plan class: per relation
	// set, and per order under PhysSort.
	H1 = core.AlgH1
	// H2 is H1 with the eagerness-biased comparison (set Options.F).
	H2 = core.AlgH2
	// Beam keeps the K cheapest plans per plan class (set
	// Options.BeamWidth) — an extension interpolating between H1 (K = 1,
	// the same plans) and EA-All.
	Beam = core.AlgBeam
)

// Operator kinds for the initial tree.
const (
	InnerJoin     = query.KindJoin
	SemiJoin      = query.KindSemiJoin
	AntiJoin      = query.KindAntiJoin
	LeftOuterJoin = query.KindLeftOuter
	FullOuterJoin = query.KindFullOuter
	GroupJoin     = query.KindGroupJoin
)

// NewQuery returns an empty query.
func NewQuery() *Query { return query.New() }

// Scan builds a base-relation leaf.
func Scan(rel int) *OpNode { return &OpNode{Kind: query.KindScan, Rel: rel} }

// Join builds an operator node with a single-pair equi-join predicate.
func Join(kind query.OpKind, left, right *OpNode, leftAttr, rightAttr int, selectivity float64) *OpNode {
	return &OpNode{
		Kind: kind, Left: left, Right: right,
		Pred: &Predicate{Left: []int{leftAttr}, Right: []int{rightAttr}, Selectivity: selectivity},
	}
}

// Aggregates builds an aggregation vector.
func Aggregates(aggs ...Agg) Vector { return Vector(aggs) }

// Count returns a count(*) aggregate.
func Count(out string) Agg { return Agg{Out: out, Kind: aggfn.CountStar} }

// CountOf returns a count(attr) aggregate.
func CountOf(out, attr string) Agg { return Agg{Out: out, Kind: aggfn.Count, Arg: attr} }

// Sum returns a sum(attr) aggregate.
func Sum(out, attr string) Agg { return Agg{Out: out, Kind: aggfn.Sum, Arg: attr} }

// Min returns a min(attr) aggregate.
func Min(out, attr string) Agg { return Agg{Out: out, Kind: aggfn.Min, Arg: attr} }

// Max returns a max(attr) aggregate.
func Max(out, attr string) Agg { return Agg{Out: out, Kind: aggfn.Max, Arg: attr} }

// Avg returns an avg(attr) aggregate.
func Avg(out, attr string) Agg { return Agg{Out: out, Kind: aggfn.Avg, Arg: attr} }

// Optimize runs the selected plan generator.
func Optimize(q *Query, opts Options) (*Result, error) {
	return core.Optimize(q, opts)
}

// Execute runs an optimized plan on concrete data, returning the result
// relation over G ∪ A(F). Execution is slot-based and columnar: equi-joins
// run as build/probe hash joins and groupings as typed hash aggregation on
// the batch runtime (see DESIGN.md).
func Execute(q *Query, p *Plan, data Data) (*Rel, error) {
	return engine.Exec(q, p, data)
}

// ExecuteProfiledOpts is Execute on slot-based tables under explicit
// execution options — the entry point for morsel-driven parallel
// execution — returning the result table and execution statistics: the
// actual intermediate-result volume to compare against the plan's C_out
// estimate.
func ExecuteProfiledOpts(q *Query, p *Plan, data TableData, opts ExecOptions) (*Table, *ExecStats, error) {
	return engine.ExecProfiledOpts(q, p, data, opts)
}

// Reoptimize closes the cardinality feedback loop: optimize, execute
// with profiling, overlay the measured per-operator cardinalities on the
// estimator, and re-optimize — until the chosen plan is stable or the
// round bound is hit. Feedback may change the chosen plan, never the
// result (the equivalence suites enforce it).
func Reoptimize(q *Query, data TableData, opts FeedbackOptions) (*FeedbackResult, error) {
	return engine.Reoptimize(q, data, opts)
}

// Canonical evaluates the query as written (initial tree + top grouping):
// the reference result for Execute.
func Canonical(q *Query, data Data) (*Rel, error) {
	return engine.Canonical(q, data)
}

// OutputAttrs returns the result schema of the query.
func OutputAttrs(q *Query) []string { return engine.OutputAttrs(q) }

// SameResult compares two results as bags over the query's output schema.
func SameResult(q *Query, a, b *Rel) bool {
	return algebra.EqualBags(a, b, engine.OutputAttrs(q))
}
