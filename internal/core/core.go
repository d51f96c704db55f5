// Package core implements the paper's plan generators (Sec. 4): the
// DP-based driver over csg-cmp-pairs, the OpTrees expansion that adds the
// eager-aggregation variants of Fig. 8, the NeedsGrouping test (Fig. 7),
// the complete generators EA-All (Fig. 9) and EA-Prune (Figs. 13/14), and
// the heuristics H1 (Fig. 10) and H2 (Fig. 12).
package core

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"time"

	"eagg/internal/bitset"
	"eagg/internal/conflict"
	"eagg/internal/cost"
	"eagg/internal/hypergraph"
	"eagg/internal/plan"
	"eagg/internal/query"
)

// Algorithm selects the plan generator variant.
type Algorithm int

const (
	// AlgDPhyp is the baseline: optimal operator ordering, no eager
	// aggregation (the grouping stays on top).
	AlgDPhyp Algorithm = iota
	// AlgEAAll keeps every subplan: the complete search space of Sec. 4.3.
	AlgEAAll
	// AlgEAPrune is EA-All plus the optimality-preserving dominance
	// pruning of Sec. 4.6.
	AlgEAPrune
	// AlgH1 keeps the single locally cheapest tree per plan class
	// (Sec. 4.4): per relation set, and per order in the sort mode.
	AlgH1
	// AlgH2 is H1 with the eagerness-biased cost comparison of Sec. 4.5.
	AlgH2
	// AlgBeam is an extension in the direction of the paper's future-work
	// remark ("discover better heuristic algorithms"): it keeps the K
	// cheapest plans per plan class, interpolating between H1 (K = 1) and
	// EA-All (K = ∞) — a tunable quality/price dial. Ties keep the
	// first-enumerated plan, as in H1.
	AlgBeam
)

var algNames = map[Algorithm]string{
	AlgDPhyp:   "DPhyp",
	AlgEAAll:   "EA-All",
	AlgEAPrune: "EA-Prune",
	AlgH1:      "H1",
	AlgH2:      "H2",
	AlgBeam:    "Beam",
}

func (a Algorithm) String() string {
	if s, ok := algNames[a]; ok {
		return s
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// PhysMode selects the physical algebra the plan generator may use. The
// physical kind of every operator is a function of the mode and the
// operator kind.
type PhysMode int

const (
	// PhysModeHash (the default) builds plans for the hash layer only —
	// the exact pre-existing behavior, bit for bit.
	PhysModeHash PhysMode = iota
	// PhysModeSort builds plans for the sort-based layer: every operator
	// with a sort-based form (inner/semi/anti/leftouter joins, all
	// groupings) uses it; full outer joins and groupjoins stay on the
	// hash layer. Plans compete per (relation set, order) plan class, by
	// PhysCost (see phys.go).
	PhysModeSort
)

var physNames = map[PhysMode]string{
	PhysModeHash: "hash",
	PhysModeSort: "sort",
}

func (m PhysMode) String() string {
	if s, ok := physNames[m]; ok {
		return s
	}
	return fmt.Sprintf("PhysMode(%d)", int(m))
}

// ParsePhysMode resolves the user-facing physical-mode names ("hash",
// "sort"; "" means hash).
func ParsePhysMode(s string) (PhysMode, error) {
	switch s {
	case "", "hash":
		return PhysModeHash, nil
	case "sort":
		return PhysModeSort, nil
	}
	return 0, fmt.Errorf("unknown physical mode %q (want hash or sort)", s)
}

// Options configure an optimization run.
type Options struct {
	Algorithm Algorithm
	// F is H2's tolerance factor (Sec. 4.5); the paper evaluates 1.01,
	// 1.03, 1.05 and 1.1. Values ≤ 1 make H2 behave like H1.
	F float64
	// BeamWidth is the number of plans AlgBeam retains per plan class
	// (default 4). BeamWidth 1 is H1: the same retention rule at k = 1,
	// so the same plans in both physical modes.
	BeamWidth int
	// Workers is the number of goroutines the DP driver uses. 0 selects
	// GOMAXPROCS; 1 runs every level inline, the reference path; a
	// negative count is an error. The
	// driver buckets csg-cmp-pairs by result-set cardinality and seals
	// one level at a time, so any worker count produces plans
	// bit-identical to the Workers: 1 run (see parallel.go).
	Workers int
	// Stats overrides the estimator's cardinality source (nil = the pure
	// selectivity model). Pass a cost.FeedbackOverlay built from an
	// execution profile to re-optimize with measured cardinalities
	// (engine.Reoptimize drives that loop). The source must be safe for
	// concurrent reads and must not change during the optimization:
	// parallel workers share it across their estimator clones.
	Stats cost.CardSource
	// Phys selects the physical algebra (hash or sort-based). The
	// default PhysModeHash reproduces the pre-existing plans exactly;
	// the sort mode additionally tracks contractual orders, keys DP plan
	// classes by them, and ranks plans by PhysCost.
	Phys PhysMode
	// PairBudget bounds the csg-cmp-pair enumeration. 0 means the
	// default: unlimited for queries of ≤63 relations, and
	// DefaultLargePairBudget beyond (graphs like large stars and
	// cliques have exponentially many connected subgraphs, so exact
	// enumeration must be cut off somewhere). When the budget is hit
	// the exact DP is abandoned and a deterministic greedy fallback
	// (beamed left-deep construction, see runGreedy) produces the plan;
	// Stats.PairBudgetExceeded reports that this happened.
	PairBudget int
}

// DefaultLargePairBudget is the csg-cmp-pair budget applied to queries
// beyond 63 relations when Options.PairBudget is unset. It admits the
// exact (and parallel) DP for a 100-relation chain (~167k pairs) while
// cutting off shapes with exponential connected-subgraph counts (a
// 100-relation star) after ~1M pairs.
const DefaultLargePairBudget = 1 << 20

// Stats reports search effort.
type Stats struct {
	CsgCmpPairs int // pairs enumerated
	PlansBuilt  int // operator trees constructed (incl. discarded)
	TablePlans  int // plans retained across all DP-table entries
	Workers     int // goroutines the DP driver used (1 = sequential)
	// BoundPlansBuilt counts the trees of the H1 pass that bounds EA-Prune
	// (see boundByH1); PlansBuilt leaves them out, so it stays comparable
	// across generators.
	BoundPlansBuilt int
	// SkippedTrees and SkippedPairs count the trees, and the csg-cmp-pairs
	// as a whole, that were never estimated because their inputs already
	// ranked too high to enter their entry or to stay within the H1 bound
	// (see excluded). Like PlansBuilt they leave out the H1 pass.
	SkippedTrees, SkippedPairs int
	// Levels holds one entry per sealed DP level, in processing order.
	Levels []LevelStat
	// PairBudgetExceeded reports that the csg-cmp-pair enumeration hit
	// its budget and the plan came from the greedy fallback instead of
	// the exact DP.
	PairBudgetExceeded bool
}

// LevelStat records the work done for one DP level: all csg-cmp-pairs
// whose result set |S1 ∪ S2| has the same cardinality.
type LevelStat struct {
	Level    int           // result-set cardinality
	Pairs    int           // csg-cmp-pairs processed
	Subsets  int           // distinct subproblem keys (the parallel task granularity)
	Duration time.Duration // wall-clock time to seal the level
}

// Result is an optimization outcome.
type Result struct {
	Plan  *plan.Plan
	Stats Stats
}

// Optimize runs the selected plan generator on the query.
func Optimize(q *query.Query, opts Options) (*Result, error) {
	if err := checkOptions(q, &opts); err != nil {
		return nil, err
	}
	// Representation dispatch: ≤63 relations run on Set64 (zero-overhead
	// fast path, bit-for-bit the pre-generics behavior); larger queries
	// run on the adaptive bitset.VSet. Everything downstream of the set
	// representation is shared, so the two paths retain identical plans.
	if len(q.Relations) <= 63 {
		return optimizeAs[bitset.Set64](q, opts)
	}
	return optimizeAs[bitset.VSet](q, opts)
}

// checkOptions validates the query and the options and fills in the
// defaults the options leave open.
func checkOptions(q *query.Query, opts *Options) error {
	if err := q.Validate(); err != nil {
		return err
	}
	if _, ok := algNames[opts.Algorithm]; !ok {
		return fmt.Errorf("core: undefined algorithm %v", opts.Algorithm)
	}
	if _, ok := physNames[opts.Phys]; !ok {
		return fmt.Errorf("core: undefined physical mode %v", opts.Phys)
	}
	// !(F > 0) holds for NaN too.
	if f := opts.F; opts.Algorithm == AlgH2 && (!(f > 0) || math.IsInf(f, 1)) {
		return fmt.Errorf("core: H2 requires a finite tolerance factor F > 0, got %v", f)
	}
	if opts.Workers < 0 {
		return fmt.Errorf("core: Workers must be ≥ 0 (0 selects GOMAXPROCS), got %d", opts.Workers)
	}
	if opts.Algorithm == AlgBeam && opts.BeamWidth <= 0 {
		opts.BeamWidth = 4
	}
	return nil
}

func optimizeAs[S bitset.RelSet[S]](q *query.Query, opts Options) (*Result, error) {
	g := newGenerator[S](q, opts)
	defer g.release()
	res, err := g.run()
	if err != nil {
		return nil, err
	}
	// Valid statistics can still overflow in a product of cardinalities;
	// a plan ranked +Inf or NaN was not chosen by its cost.
	if r := g.rank(res.Plan); math.IsInf(r, 0) || math.IsNaN(r) {
		return nil, fmt.Errorf("core: the best plan's cost is %v: the query's statistics overflow the cost model", r)
	}
	return res, nil
}

// newGenerator sets up one optimization run over checked options: the query
// analysis, the estimator and every default the run reads.
func newGenerator[S bitset.RelSet[S]](q *query.Query, opts Options) *generator[S] {
	est := cost.NewEstimator(q)
	if opts.Stats != nil {
		est.Source = opts.Stats
	}
	g := &generator[S]{
		q:              q,
		det:            conflict.Detect[S](q),
		est:            est,
		opts:           opts,
		all:            bitset.RangeIn[S](0, len(q.Relations)),
		parallelCutoff: dpParallelCutoff,
		bounded:        opts.Algorithm == AlgEAPrune,
		bound:          math.Inf(1),
		incumbent:      true,
	}
	g.allV = g.all.ToV()
	g.prepare()
	return g
}

// generator carries the state of one optimization run. It is generic in
// the relation-set representation S; attribute sets (and the relation
// sets stored inside plans) stay bitset.VSet, so the estimator and plan
// layers hold a single code path regardless of S.
type generator[S bitset.RelSet[S]] struct {
	q    *query.Query
	det  *conflict.Detection[S]
	est  *cost.Estimator
	opts Options
	all  S
	allV bitset.VSet // g.all in VSet form, for comparing plan.Plan.Rels

	// table maps a relation set to its retained plans. DPhyp, H1 and H2
	// keep one plan per plan class (one per entry in the hash mode), Beam
	// BeamWidth of them; EA-All/EA-Prune keep lists. The entry for the
	// complete set holds the single best top-level plan.
	table map[S]*entry

	// w0 is the worker of the driver's own goroutine: it runs the inline
	// levels and its share of the pooled ones. ws holds every worker of
	// the run, w0 first; the pool's clones join it when a level first
	// crosses the cutoff.
	w0 *worker
	ws []*worker
	// parallelCutoff is the level work (see levelWork) below which
	// runLevels runs a level inline: dpParallelCutoff, which tests set to
	// 0 to force every level through the pool.
	parallelCutoff int
	// bounded says whether the exact DP first runs the H1 pass that sets
	// bound (see boundByH1): for EA-Prune, and for whatever generator a
	// test asks it of. bound is the rank above which insert and consider
	// drop a plan, +Inf without the pass.
	bounded bool
	bound   float64
	// incumbent says whether consider and processPair skip what cannot
	// enter its entry (see excluded); only the differential test turns it
	// off.
	incumbent bool

	// aggSrc[i] is the set of relations aggregate i draws from; aggOK[i]
	// whether it is decomposable.
	aggSrc []bitset.VSet
	aggOK  []bool

	// predAttrs[i] caches op i's predicate attribute set, predL/predR[i]
	// its two sides and predRels[i] the relations those attributes come
	// from — constant per query, read per pair (joinPreds) and per table
	// entry (gPlus). finalKeyAttrs is the query-level FD closure of the
	// grouping attributes, which every complete tree's final-grouping
	// elimination tests its keys against.
	predAttrs, predL, predR []bitset.VSet
	predRels                []bitset.VSet
	finalKeyAttrs           bitset.VSet
	// pushes reports whether the run considers pushed groupings at all
	// (an eager generator on a query with a grouping).
	pushes bool

	// gjRight is the union of all groupjoin right-subtree relations;
	// groupings are never pushed there because they would aggregate away
	// the inputs of the groupjoin's own vector F̄.
	gjRight bitset.VSet

	stats Stats
}

func (g *generator[S]) prepare() {
	g.table = make(map[S]*entry)
	g.w0 = newWorker(g.est)
	g.ws = []*worker{g.w0}
	if g.q.HasGrouping {
		g.aggSrc = g.q.AggSourceRels()
		g.aggOK = make([]bool, len(g.q.Aggregates))
		for i, a := range g.q.Aggregates {
			g.aggOK[i] = a.Kind.Decomposable()
		}
		// At the top every predicate has been applied, so the closure of
		// G under the dependencies of the plans over every relation is
		// valid: a key *implied* by the grouping attributes eliminates the
		// final grouping just like one contained in them (Sec. 3.2 with
		// FD+ instead of the syntactic test).
		g.finalKeyAttrs = g.est.Local().Closure(g.allV, g.q.GroupBy)
	}
	g.pushes = g.opts.Algorithm != AlgDPhyp && g.q.HasGrouping
	n := len(g.det.Ops)
	sets := make([]bitset.VSet, 4*n)
	g.predAttrs, g.predL, g.predR, g.predRels = sets[:n:n], sets[n:2*n:2*n], sets[2*n:3*n:3*n], sets[3*n:]
	for i, op := range g.det.Ops {
		pa := op.Node.Pred.Attrs()
		g.predAttrs[i], g.predL[i], g.predR[i] = pa, op.Node.Pred.LeftAttrs(), op.Node.Pred.RightAttrs()
		g.predRels[i] = g.q.RelsOf(pa)
		if op.Node.Kind == query.KindGroupJoin {
			g.gjRight = g.gjRight.Union(op.RightRels.ToV())
		}
	}
}

// pairBudget resolves Options.PairBudget: explicit value if set,
// otherwise unlimited for ≤63-relation queries (keeping every small
// query — including the tests' wide-path differential runs — on the
// exact DP) and DefaultLargePairBudget beyond.
func (g *generator[S]) pairBudget() int {
	if g.opts.PairBudget > 0 {
		return g.opts.PairBudget
	}
	if len(g.q.Relations) > 63 {
		return DefaultLargePairBudget
	}
	return 0
}

// scans is component 1: initial access paths (Fig. 5, lines 1-2), entered
// through the retention policy like every other plan: estimated into the
// driver's scratch, kept in its arena.
func (g *generator[S]) scans() {
	w := g.w0
	for r := range g.q.Relations {
		w.est.EstimateScan(&w.fin, r)
		if g.physOn() {
			w.est.PhysifyScan(&w.fin) // contractual scan order, zero overhead
		}
		s := bitset.SingleIn[S](r)
		e := g.open(w, s)
		g.insert(w, e, &w.fin)
		g.table[s] = e
	}
}

// open returns a new table entry for the relation set s, carrying what
// every csg-cmp-pair with s on a side reads of it: its touch set — the
// edges with a relation of s in their TES, so a pair finds its connecting
// edges among touch(S1) ∩ touch(S2) instead of in the whole edge list — and,
// where groupings can be pushed, its G⁺.
func (g *generator[S]) open(w *worker, s S) *entry {
	e := w.newEntry()
	e.plans = e.first[:0]
	w.touch = g.det.Graph.Touch(w.touch[:0], s)
	e.touch = take(nil, &w.arena.words, w.touch, 512)
	if g.pushes {
		e.gp = g.gPlus(s.ToV(), e.touch)
	}
	return e
}

// gPlus computes G⁺ for a relation set S: the grouping attributes plus
// every join attribute of predicates not yet applied inside S, restricted
// to S's attributes (Sec. 3.1: G⁺ᵢ = Gᵢ ∪ Jᵢ, generalized to all
// predicates that still connect S to the rest of the query). Only a
// predicate in S's touch set has attributes in S at all.
func (g *generator[S]) gPlus(s bitset.VSet, touch []uint64) bitset.VSet {
	var buf [8]uint64
	ws := g.q.GroupBy.OrInto(buf[:1])
	for k, word := range touch {
		for t := word; t != 0; t &= t - 1 {
			i := g.det.Graph.Edges[k*64+bits.TrailingZeros64(t)].Payload
			if !g.predRels[i].SubsetOf(s) {
				ws = g.predAttrs[i].OrInto(ws)
			}
		}
	}
	return bitset.FromWords(ws).Intersect(g.q.AttrsOf(s))
}

func (g *generator[S]) run() (*Result, error) {
	g.scans()
	if len(g.q.Relations) == 1 {
		g.stats.Workers = 1 // no pairs to enumerate; trivially sequential
		top := &entry{}
		g.finalizeEach(g.w0, top, g.table[g.all].plans[0])
		return &Result{Plan: detach(top.plans[0]), Stats: g.stats}, nil
	}

	// Component 2: enumerate csg-cmp-pairs (Fig. 5, line 3). They come
	// back ordered by |S1 ∪ S2|, so the DP levels are contiguous runs.
	pairs, emitted, complete := g.det.Graph.CsgCmpPairsBudget(g.pairBudget())
	g.stats.CsgCmpPairs = emitted

	if !complete {
		// The enumeration was cut off: a partial pair list is useless for
		// DP (sub-pairs may be missing), so none comes back; build the
		// plan with the deterministic greedy fallback. It is sequential
		// regardless of Workers, so the workers-invariance contract holds
		// trivially.
		g.stats.PairBudgetExceeded = true
		g.stats.Workers = 1
		g.runGreedy()
	} else {
		workers := g.opts.Workers
		if workers == 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		g.stats.Workers = workers
		g.exact(pairs, workers)
	}

	for _, w := range g.ws {
		g.stats.SkippedTrees += w.skippedTrees
		g.stats.SkippedPairs += w.skippedPairs
	}
	best := g.table[g.all]
	if best == nil || len(best.plans) == 0 {
		return nil, errors.New("core: no plan found for the complete relation set (conflicting query graph)")
	}
	for s, e := range g.table {
		if s != g.all {
			g.stats.TablePlans += len(e.plans)
		}
	}
	g.stats.TablePlans++
	// The winner leaves the run's arenas, whose workers go back to the
	// pool when optimizeAs returns.
	return &Result{Plan: detach(best.plans[0]), Stats: g.stats}, nil
}

// release hands every worker back to the pool, on every path out of
// optimizeAs: nothing the DP table holds may be read afterwards.
func (g *generator[S]) release() {
	for _, w := range g.ws {
		w.release()
	}
}

// exact runs the exact DP over the complete pair list, after the H1 pass
// that bounds it when g.bounded is set.
func (g *generator[S]) exact(pairs []hypergraph.CsgCmpPair[S], workers int) {
	if g.bounded {
		g.boundByH1(pairs, workers)
	}
	g.runLevels(pairs, workers)
}

// boundByH1 runs H1 over the pair list, on the run's own estimator, conflict
// detection and workers, and sets g.bound to the rank U of its complete
// plan. It then resets the table to the scan entries for the generator
// proper, and the counters to what that run reports: the pass's plans move
// to Stats.BoundPlansBuilt, its levels are dropped.
//
// This is accumulated-cost bounding (Fender & Moerkotte, ICDE 2012) in the
// bottom-up DP. A tree's C_out is its cardinality plus its children's C_out
// (cost.EstimateOp, EstimateGroup), its PhysCost its cardinality and
// reorganization overheads plus its children's PhysCost (cost/phys.go), all
// terms non-negative; rounding is monotone, so a float sum of non-negative
// terms is never below any partial sum, and a tree ranks at least as high
// as its inputs' ranks summed. H1's plan lies in the search space, so no
// plan of the optimum ranks above U, and insert drops any candidate that
// does. A dropped candidate costs more than U; every plan it would have
// dominated costs at least as much (Def. 4 compares rank too), so it is
// dropped as well. The plans ranked at most U keep their dominance
// relations and their enumeration order, and ties break as without the
// bound: the retained plans at most U, and the plan, are those of the
// unbounded run.
func (g *generator[S]) boundByH1(pairs []hypergraph.CsgCmpPair[S], workers int) {
	alg := g.opts.Algorithm
	g.opts.Algorithm = AlgH1
	g.runLevels(pairs, workers)
	g.opts.Algorithm = alg
	if e := g.table[g.all]; e != nil && len(e.plans) > 0 {
		g.bound = g.rank(e.plans[0])
	}
	for s := range g.table {
		if s.Len() > 1 {
			delete(g.table, s)
		}
	}
	g.stats.BoundPlansBuilt, g.stats.PlansBuilt = g.stats.PlansBuilt, 0
	g.stats.Levels = g.stats.Levels[:0]
	for _, w := range g.ws {
		w.skippedTrees, w.skippedPairs = 0, 0
	}
}

// forEachLevel calls fn once per DP level with the contiguous slice of
// pairs whose result set has that cardinality.
func forEachLevel[S bitset.RelSet[S]](pairs []hypergraph.CsgCmpPair[S], fn func(level int, chunk []hypergraph.CsgCmpPair[S])) {
	for start := 0; start < len(pairs); {
		level := pairs[start].S1.Union(pairs[start].S2).Len()
		end := start + 1
		for end < len(pairs) && pairs[end].S1.Union(pairs[end].S2).Len() == level {
			end++
		}
		fn(level, pairs[start:end])
		start = end
	}
}

// runLevelInline processes one level's pairs in enumeration order on the
// driver's own worker, like the paper's Fig. 5 loop, and returns the
// number of distinct result sets. An entry is created at a result set's
// first pair (that is what counts the sets), so a set no operator applies
// to keeps an empty one.
func (g *generator[S]) runLevelInline(chunk []hypergraph.CsgCmpPair[S]) (subsets int) {
	for _, pr := range chunk {
		s := pr.S1.Union(pr.S2)
		e := g.table[s]
		if e == nil {
			e = g.open(g.w0, s)
			g.table[s] = e
			subsets++
		}
		g.stats.PlansBuilt += g.processPair(g.w0, e, pr, s == g.all)
	}
	return subsets
}

// processPair is the per-pair step of every exact driver and of the greedy
// fallback (one copy, so the commutativity guard cannot diverge between
// them): component 3 of Fig. 5 over one pair — the applicability test per
// operator whose edge connects it (lines 4-5) — with every applicable
// orientation's trees folded through the retention policy into e, the
// entry of the pair's result set. It returns the number of trees built.
func (g *generator[S]) processPair(w *worker, e *entry, pr hypergraph.CsgCmpPair[S], topLevel bool) int {
	e1, e2 := g.table[pr.S1], g.table[pr.S2]
	if e1 == nil || e2 == nil || len(e1.plans) == 0 || len(e2.plans) == 0 {
		// The enumeration may emit pairs whose components are not
		// buildable (or were blocked by applicability); skip them.
		return 0
	}
	// Every tree of the pair ranks at least as high as the cheapest plans
	// of its two sides together, so when those cannot enter e no tree can.
	if g.incumbent {
		if lo := g.minRank(e1) + g.minRank(e2); lo > g.bound || g.excluded(e, lo, -1, topLevel) {
			w.skippedPairs++
			return 0
		}
	}
	// The connecting edges, ascending, found once per pair: they select
	// the operators below and carry the predicates of every tree built —
	// all of them at once, so cyclic query graphs apply every cross
	// predicate.
	w.edges = g.det.Graph.Connecting(w.edges[:0], e1.touch, e2.touch, pr.S1, pr.S2)
	w.jp.Reset()
	w.preds = nil
	for _, i := range w.edges {
		p := g.det.Graph.Edges[i].Payload
		w.jp.Add(g.det.OpForEdge(p).Node.Pred, g.predL[p], g.predR[p])
	}
	built := 0
	for _, i := range w.edges {
		op := g.det.OpForEdge(g.det.Graph.Edges[i].Payload)
		if op.Applicable(pr.S1, pr.S2) {
			built += g.buildInto(w, e, e1, e2, op, topLevel)
		}
		// Commutative operators (B, K) could also be applied with
		// swapped arguments (Fig. 5, lines 7-8). Under the symmetric
		// C_out cost function the mirrored trees of Fig. 8 (e)-(h)
		// have identical cost and properties, so the hash mode skips
		// them. With the sort-based layer the mirror matters for inner
		// joins: the output preserves the *left* input's contractual
		// order and the merge may reuse either side's order, so both
		// orientations are enumerated. (The full outerjoin has no sort
		// form; its mirror stays redundant.)
		if op.Node.Kind.Commutative() && op.Applicable(pr.S2, pr.S1) &&
			(!op.Applicable(pr.S1, pr.S2) ||
				(g.physOn() && op.Node.Kind == query.KindJoin)) {
			built += g.buildInto(w, e, e2, e1, op, topLevel)
		}
	}
	return built
}

// insert applies the algorithm's retention policy for non-top entries. The
// candidate t is a scratch estimate (see worker); a policy that retains it
// stores w.keep(t), so a rejected candidate never becomes a node. There are
// three policies: EA-All keeps every plan; EA-Prune keeps the plans no
// other plan dominates, in the sort mode extended by the physical
// dimensions (see dominatesRest); every other generator keeps the k best
// plans per plan class (see insertBest), BeamWidth of them for Beam and one
// otherwise. A candidate ranked above g.bound is dropped before any of them
// sees it.
func (g *generator[S]) insert(w *worker, e *entry, t *plan.Plan) {
	if g.rank(t) > g.bound {
		return
	}
	switch g.opts.Algorithm {
	case AlgEAAll:
		e.plans = append(e.plans, w.keep(t))
	case AlgEAPrune:
		g.pruneDominatedPlans(w, e, t)
	case AlgBeam:
		g.insertBest(w, e, t, g.opts.BeamWidth)
	default: // DPhyp, H1, H2
		g.insertBest(w, e, t, 1)
	}
}

// insertBest keeps the k best plans of t's plan class (see sameClass) in e,
// in compareAdjusted order. A candidate no better than a kept plan goes
// after it, so ties keep the first-enumerated plan, which keeps the choice
// deterministic for the parallel driver. The classes of one entry
// interleave in e.plans; a candidate entering a full class shifts the
// plans from its place up to the class's worst member, which it evicts.
func (g *generator[S]) insertBest(w *worker, e *entry, t *plan.Plan, k int) {
	members, last, pos := 0, -1, len(e.plans)
	for i, old := range e.plans {
		if !g.sameClass(old, t) {
			continue
		}
		members++
		last = i
		if pos == len(e.plans) && g.compareAdjusted(t, old) {
			pos = i
		}
	}
	switch {
	case members < k:
		e.plans = slices.Insert(e.plans, pos, w.keep(t))
	case pos <= last:
		copy(e.plans[pos+1:last+1], e.plans[pos:last])
		e.plans[pos] = w.keep(t)
	}
}

// insertTopLevelPlan implements Fig. 9's InsertTopLevelPlan: top-level
// plans are always compared by plain rank and only the best one is kept.
// The final grouping (or its elimination) has already been attached by
// finalizeEach.
func (g *generator[S]) insertTopLevelPlan(w *worker, e *entry, t *plan.Plan) {
	switch {
	case len(e.plans) == 0:
		e.plans = append(e.plans, w.keep(t))
	case g.rank(t) < g.rank(e.plans[0]):
		e.plans[0] = w.keep(t)
	}
}

// excluded reports whether e's retention policy rejects every tree that
// ranks at least lo — its inputs' ranks summed (see boundByH1) — and has
// eagerness et (any eagerness when et < 0), so that consider need not
// estimate it. Only a policy that keeps a fixed number of plans per plan
// class can say so: the top level of every generator, which keeps one plan
// by plain rank, and insertBest in the hash mode, where an entry is one
// class. A full class rejects t when t does not rank before its last plan
// (compareAdjusted is non-decreasing in t's rank, F > 0), ties included,
// since ties keep the plan enumerated first. EA-All and EA-Prune below the
// top keep lists and never exclude.
func (g *generator[S]) excluded(e *entry, lo float64, et int, topLevel bool) bool {
	k := 1
	switch {
	case len(e.plans) == 0:
		return false
	case topLevel:
		return lo >= g.rank(e.plans[0])
	case g.physOn() || g.opts.Algorithm == AlgEAAll || g.opts.Algorithm == AlgEAPrune:
		return false
	case g.opts.Algorithm == AlgBeam:
		k = g.opts.BeamWidth
	}
	if len(e.plans) < k {
		return false
	}
	last := e.plans[len(e.plans)-1]
	if et < 0 && g.opts.Algorithm == AlgH2 {
		return !g.ranksBefore(lo, 0, last) && !g.ranksBefore(lo, 1, last) && !g.ranksBefore(lo, 2, last)
	}
	return !g.ranksBefore(lo, et, last)
}

// minRank returns the lowest rank among e's plans.
func (g *generator[S]) minRank(e *entry) float64 {
	m := g.rank(e.plans[0])
	for _, p := range e.plans[1:] {
		m = min(m, g.rank(p))
	}
	return m
}

// compareAdjusted reports whether t ranks strictly before cur in their
// plan class. H2 implements Fig. 12: it biases the comparison toward more
// eager plans using the tolerance factor F. DPhyp, H1 and Beam compare
// plain rank.
func (g *generator[S]) compareAdjusted(t, cur *plan.Plan) bool {
	return g.ranksBefore(g.rank(t), t.Eagerness(), cur)
}

// ranksBefore is compareAdjusted for a plan of rank rt and eagerness et.
func (g *generator[S]) ranksBefore(rt float64, et int, cur *plan.Plan) bool {
	rc := g.rank(cur)
	if g.opts.Algorithm != AlgH2 {
		return rt < rc
	}
	ec := cur.Eagerness()
	f := g.opts.F
	switch {
	case et == ec:
		return rt < rc
	case et < ec:
		return f*rt < rc
	default:
		return rt < f*rc
	}
}
