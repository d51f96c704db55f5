// Package core implements the paper's plan generators (Sec. 4): the
// DP-based driver over csg-cmp-pairs, the OpTrees expansion that adds the
// eager-aggregation variants of Fig. 8, the NeedsGrouping test (Fig. 7),
// the complete generators EA-All (Fig. 9) and EA-Prune (Figs. 13/14), and
// the heuristics H1 (Fig. 10) and H2 (Fig. 12).
package core

import (
	"errors"
	"fmt"
	"math/bits"
	"runtime"
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
	// (Sec. 4.4).
	AlgH1
	// AlgH2 is H1 with the eagerness-biased cost comparison of Sec. 4.5.
	AlgH2
	// AlgBeam is an extension in the direction of the paper's future-work
	// remark ("discover better heuristic algorithms"): it keeps the K
	// cheapest plans per plan class, interpolating between H1 (K = 1) and
	// EA-All (K = ∞) — a tunable quality/price dial.
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

// PhysMode selects the physical algebra the plan generator may use.
type PhysMode int

const (
	// PhysModeHash (the default) builds plans for the hash layer only —
	// the exact pre-existing behavior, bit for bit.
	PhysModeHash PhysMode = iota
	// PhysModeSort prefers the sort-based layer: every operator with a
	// sort-based form (inner/semi/anti/leftouter joins, all groupings)
	// uses it; full outer joins and groupjoins stay on the hash layer.
	PhysModeSort
	// PhysModeAuto lets both layers compete: the DP table keeps plan
	// classes keyed by (relation set, collapse state, contractual
	// order), so a plan that is more expensive but ordered survives
	// enumeration and can win later by eliminating sorts; selection is
	// by PhysCost (C_out plus physical reorganization overhead).
	PhysModeAuto
)

var physNames = map[PhysMode]string{
	PhysModeHash: "hash",
	PhysModeSort: "sort",
	PhysModeAuto: "auto",
}

func (m PhysMode) String() string {
	if s, ok := physNames[m]; ok {
		return s
	}
	return fmt.Sprintf("PhysMode(%d)", int(m))
}

// ParsePhysMode resolves the user-facing physical-mode names ("hash",
// "sort", "auto"; "" means hash).
func ParsePhysMode(s string) (PhysMode, error) {
	switch s {
	case "", "hash":
		return PhysModeHash, nil
	case "sort":
		return PhysModeSort, nil
	case "auto":
		return PhysModeAuto, nil
	}
	return 0, fmt.Errorf("unknown physical mode %q (want hash, sort or auto)", s)
}

// Options configure an optimization run.
type Options struct {
	Algorithm Algorithm
	// F is H2's tolerance factor (Sec. 4.5); the paper evaluates 1.01,
	// 1.03, 1.05 and 1.1. Values ≤ 1 make H2 behave like H1.
	F float64
	// BeamWidth is the number of plans AlgBeam retains per plan class
	// (default 4). BeamWidth 1 coincides with H1.
	BeamWidth int
	// FDReduceGroups enables FD-based reduction of grouping attribute
	// sets in the cardinality estimator (sharper estimates; departs from
	// the paper's evaluation conditions — see internal/cost).
	FDReduceGroups bool
	// Workers is the number of goroutines the DP driver uses. 0 selects
	// GOMAXPROCS; 1 runs every level inline, the reference path. The
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
	// Phys selects the physical algebra (hash only, sort-based, or both
	// competing). The default PhysModeHash reproduces the pre-existing
	// plans exactly; the sort modes additionally track contractual
	// orders, key DP plan classes by them, and rank plans by PhysCost.
	Phys PhysMode
	// ForceWide routes the run through the multi-word wide set
	// representation even when the query fits the Set64 fast path. The
	// two paths are bit-identical (the differential tests pin this);
	// the flag exists for those tests and for diagnostics.
	ForceWide bool
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
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if opts.Algorithm == AlgH2 && opts.F <= 0 {
		return nil, errors.New("core: H2 requires a tolerance factor F > 0")
	}
	if opts.Algorithm == AlgBeam && opts.BeamWidth <= 0 {
		opts.BeamWidth = 4
	}
	est := cost.NewEstimator(q)
	est.FDReduceGroups = opts.FDReduceGroups
	if opts.Stats != nil {
		est.Source = opts.Stats
	}
	// Representation dispatch: ≤63 relations run on Set64 (zero-overhead
	// fast path, bit-for-bit the pre-generics behavior); larger queries —
	// or any query under ForceWide — run on the multi-word bitset.Wide.
	// Everything downstream of the set representation is shared, so the
	// two paths retain identical plans.
	if len(q.Relations) <= 63 && !opts.ForceWide {
		return optimizeAs[bitset.Set64](q, est, opts)
	}
	return optimizeAs[bitset.Wide](q, est, opts)
}

func optimizeAs[S bitset.RelSet[S]](q *query.Query, est *cost.Estimator, opts Options) (*Result, error) {
	g := &generator[S]{
		q:              q,
		det:            conflict.Detect[S](q),
		est:            est,
		opts:           opts,
		all:            bitset.RangeIn[S](0, len(q.Relations)),
		parallelCutoff: dpParallelCutoff,
	}
	g.allV = g.all.ToV()
	g.prepare()
	defer g.release()
	return g.run()
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

	// table maps a relation set to its retained plans. Heuristic
	// algorithms keep exactly one plan per entry; EA-All/EA-Prune keep
	// lists. The entry for the complete set holds the single best
	// top-level plan.
	table map[S]*entry

	// w0 is the worker of the driver's own goroutine: it runs the inline
	// levels and its share of the pooled ones. ws holds every worker of
	// the run, w0 first; the pool's clones join it when a level first
	// crosses the cutoff.
	w0 *worker
	ws []*worker
	// opened collects the entries runLevelInline created for the level it
	// is running, to seal them at its end.
	opened []*entry
	// examined, when set (tests only), receives per EA-Prune candidate the
	// number of retained plans the frontier's two scans examined.
	examined func(plans int)
	// parallelCutoff is the level work (see levelWork) below which
	// runLevels runs a level inline; dpParallelCutoff outside tests,
	// which leave it 0 to force every level through the pool.
	parallelCutoff int

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
		// At the top every predicate has been applied, so the query-level
		// FD closure of G is valid: a key *implied* by the grouping
		// attributes eliminates the final grouping just like one
		// contained in them (Sec. 3.2 with FD+ instead of the syntactic
		// test).
		g.finalKeyAttrs = g.est.FDClosure(g.q.GroupBy)
	}
	g.pushes = g.opts.Algorithm != AlgDPhyp && g.q.HasGrouping
	for _, op := range g.det.Ops {
		pa := op.Node.Pred.Attrs()
		g.predAttrs = append(g.predAttrs, pa)
		g.predL, g.predR = append(g.predL, op.Node.Pred.LeftAttrs()), append(g.predR, op.Node.Pred.RightAttrs())
		g.predRels = append(g.predRels, g.q.RelsOf(pa))
		if op.Node.Kind == query.KindGroupJoin {
			g.gjRight = g.gjRight.Union(op.RightRels.ToV())
		}
	}
}

// pairBudget resolves Options.PairBudget: explicit value if set,
// otherwise unlimited for ≤63-relation queries (keeping every small
// query — including ForceWide differential runs — on the exact DP) and
// DefaultLargePairBudget beyond.
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
// through the retention policy like every other plan.
func (g *generator[S]) scans() {
	for r := range g.q.Relations {
		p := g.est.Scan(r)
		if g.physOn() {
			g.est.PhysifyScan(p) // contractual scan order, zero overhead
		}
		s := bitset.SingleIn[S](r)
		e := g.open(g.w0, s)
		g.insert(g.w0, e, p)
		e.seal(g.w0)
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
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		g.stats.Workers = workers
		g.runLevels(pairs, workers)
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
	// The winner leaves the run's arenas, which go back to the pool when
	// optimizeAs returns.
	return &Result{Plan: detach(best.plans[0]), Stats: g.stats}, nil
}

// release hands every worker's arena back to the pool, on every path out
// of optimizeAs: nothing the DP table holds may be read afterwards.
func (g *generator[S]) release() {
	for _, w := range g.ws {
		w.release()
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
// number of distinct result sets. An
// entry is created at a result set's first pair (that is what counts the
// sets), so a set no operator applies to keeps an empty one; the level's
// entries are sealed once its last pair is through.
func (g *generator[S]) runLevelInline(chunk []hypergraph.CsgCmpPair[S]) (subsets int) {
	g.opened = g.opened[:0]
	for _, pr := range chunk {
		s := pr.S1.Union(pr.S2)
		e := g.table[s]
		if e == nil {
			e = g.open(g.w0, s)
			g.table[s] = e
			g.opened = append(g.opened, e)
		}
		g.stats.PlansBuilt += g.processPair(g.w0, e, pr, s == g.all)
	}
	for _, e := range g.opened {
		e.seal(g.w0)
	}
	return len(g.opened)
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
// stores w.keep(t), so a rejected candidate never becomes a node. In the
// sort/auto physical modes the policy applies per plan class (see phys.go).
func (g *generator[S]) insert(w *worker, e *entry, t *plan.Plan) {
	if g.physOn() {
		g.insertPhys(w, e, t)
		return
	}
	switch g.opts.Algorithm {
	case AlgEAAll:
		e.plans = append(e.plans, w.keep(t))
	case AlgEAPrune:
		g.pruneDominatedPlans(w, e, t)
	case AlgBeam:
		g.insertBeam(w, e, t)
	case AlgH2:
		if len(e.plans) == 0 {
			e.plans = append(e.plans, w.keep(t))
		} else if g.compareAdjustedCosts(t, e.plans[0], false) {
			e.plans[0] = w.keep(t)
		}
	default: // DPhyp, H1: single cheapest plan
		if len(e.plans) == 0 {
			e.plans = append(e.plans, w.keep(t))
		} else if t.Cost < e.plans[0].Cost {
			e.plans[0] = w.keep(t)
		}
	}
}

// insertTopLevelPlan implements Fig. 9's InsertTopLevelPlan: top-level
// plans are always compared by plain cost — physical cost in the
// sort/auto modes — and only the best one is kept. The final grouping
// (or its elimination) has already been attached by finalizeEach.
func (g *generator[S]) insertTopLevelPlan(w *worker, e *entry, t *plan.Plan) {
	switch {
	case len(e.plans) == 0:
		e.plans = append(e.plans, w.keep(t))
	case g.physOn() && t.PhysCost < e.plans[0].PhysCost,
		!g.physOn() && t.Cost < e.plans[0].Cost:
		e.plans[0] = w.keep(t)
	}
}

// compareAdjustedCosts implements Fig. 12: H2 biases the comparison toward
// more eager plans using the tolerance factor F. It returns whether t
// should replace cur.
func (g *generator[S]) compareAdjustedCosts(t, cur *plan.Plan, topLevel bool) bool {
	et, ec := t.Eagerness(), cur.Eagerness()
	f := g.opts.F
	switch {
	case topLevel || et == ec:
		return t.Cost < cur.Cost
	case et < ec:
		return f*t.Cost < cur.Cost
	default:
		return t.Cost < f*cur.Cost
	}
}

// insertBeam keeps the BeamWidth cheapest plans per entry, preferring
// diversity: a candidate costing the same as a retained plan but with a
// strictly smaller cardinality replaces it (small results are what future
// groupings and joins profit from).
func (g *generator[S]) insertBeam(w *worker, e *entry, t *plan.Plan) {
	k := g.opts.BeamWidth
	// Insert in cost order.
	pos := len(e.plans)
	for i, old := range e.plans {
		if t.Cost < old.Cost || (t.Cost == old.Cost && t.Card < old.Card) {
			pos = i
			break
		}
	}
	if pos >= k {
		return
	}
	e.plans = append(e.plans, nil)
	copy(e.plans[pos+1:], e.plans[pos:])
	e.plans[pos] = w.keep(t)
	if len(e.plans) > k {
		e.plans = e.plans[:k]
	}
}
