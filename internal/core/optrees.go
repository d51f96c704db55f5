package core

import (
	"eagg/internal/bitset"
	"eagg/internal/conflict"
	"eagg/internal/plan"
	"eagg/internal/query"
)

// buildInto implements Fig. 6 for one (pair, operator): for every pair of
// subplans it considers the base tree plus the up-to-three
// eager-aggregation variants of Fig. 8 — Γ(t1) ◦ t2, t1 ◦ Γ(t2),
// Γ(t1) ◦ Γ(t2), in that order — each estimated into the worker's scratch
// and folded through the algorithm's retention policy into e, the
// caller-owned entry of the result set; e1 and e2 are the entries of the
// operand sets and w.jp holds the pair's predicates (processPair). It
// returns the number of trees built. The component subplans are read
// from sealed table levels and the table is only ever read here, which is
// what lets the parallel driver's level workers share it lock-free.
//
// The pushed groupings are estimated once per t1 and once per t2 — not
// once per (t1, t2) — and become nodes only under a tree that survives.
// DPhyp mode and grouping-free queries consider only the base tree.
func (g *generator[S]) buildInto(w *worker, e, e1, e2 *entry, op *conflict.Op[S], topLevel bool) int {
	t1s, t2s := e1.plans, e2.plans
	kind := op.Node.Kind

	if len(w.gr) < len(t2s) {
		w.gr, w.grNode = resize(w.gr, len(t2s)), resize(w.grNode, len(t2s))
	}
	clear(w.grNode[:len(t2s)])
	var gpL, gpR bitset.VSet
	pushL, pushR := false, false
	if g.pushes {
		if pushL = g.validPush(t1s[0].Rels, true, kind); pushL {
			gpL = e1.gp
		}
		if pushR = g.validPush(t2s[0].Rels, false, kind); pushR {
			gpR = e2.gp
		}
	}
	for j, t2 := range t2s {
		g.pushedGroup(w, &w.gr[j], t2, gpR, pushR)
	}

	built := 0
	gl := &w.gl
	for _, t1 := range t1s {
		g.pushedGroup(w, gl, t1, gpL, pushL)
		w.glNode = nil
		for j, t2 := range t2s {
			gr, grNode := &w.gr[j], &w.grNode[j]
			built += g.consider(w, e, kind, t1, t2, nil, nil, topLevel)
			if gl.Left != nil {
				built += g.consider(w, e, kind, gl, t2, &w.glNode, nil, topLevel)
			}
			if gr.Left != nil {
				built += g.consider(w, e, kind, t1, gr, nil, grNode, topLevel)
			}
			if gl.Left != nil && gr.Left != nil {
				built += g.consider(w, e, kind, gl, gr, &w.glNode, grNode, topLevel)
			}
		}
	}
	return built
}

// resize returns s with length n, reusing its backing array (and so the
// key and vector buffers of scratch nodes) when it is large enough. The
// elements past len(s) must be zero, as the worker keeps those of gr and
// grNode (see release).
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		s = append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:n]
}

// consider estimates one operator tree l ◦ r into w.cand, in the physical
// kind the mode gives the operator, and hands it to the retention policy —
// a completed tree through finalizeEach. lNode/rNode are the node-cache
// slots of scratch children. A tree would rank at least as high as its
// inputs together (see boundByH1), so when they already rank above
// g.bound, or at or above what e keeps (see excluded), it is not built at
// all; consider returns the number of trees it built, 0 or 1.
func (g *generator[S]) consider(w *worker, e *entry, kind query.OpKind, l, r *plan.Plan, lNode, rNode **plan.Plan, topLevel bool) int {
	if lo := g.rank(l) + g.rank(r); lo > g.bound || g.incumbent && g.excluded(e, lo, eagerness(l, r), topLevel) {
		w.skippedTrees++
		return 0
	}
	w.est.EstimateOp(&w.cand, kind, &w.jp, l, r)
	if g.physOn() {
		w.est.PhysifyOp(&w.cand, g.opPhys(kind))
	}
	w.lNode, w.rNode = lNode, rNode
	if topLevel {
		g.finalizeEach(w, e, &w.cand)
	} else {
		g.insert(w, e, &w.cand)
	}
	return 1
}

// eagerness is the Eagerness of an operator tree over l and r.
func eagerness(l, r *plan.Plan) int {
	e := 0
	if l.Kind == plan.NodeGroup {
		e++
	}
	if r.Kind == plan.NodeGroup {
		e++
	}
	return e
}

// pushedGroup estimates the pushed grouping over t into dst; dst.Left
// stays nil when the push is invalid or the grouping unnecessary.
func (g *generator[S]) pushedGroup(w *worker, dst, t *plan.Plan, gp bitset.VSet, valid bool) {
	if !valid || !g.needsGrouping(gp, t) {
		dst.Left = nil
		return
	}
	w.est.EstimateGroup(dst, t, gp)
	if g.physOn() {
		w.est.PhysifyGroup(dst, g.groupPhys())
	}
}

// finalizeEach attaches the final grouping to a complete tree (Fig. 6,
// lines 6-8 etc.) and hands the result to the top-level policy: the tree
// itself on grouping-free queries; the free projection of Sec. 3.2 when G
// implies a key of a duplicate-free result; otherwise Γ_G. The sort-group
// form of the top Γ_G is where a contractual order carried this far pays
// off: when it covers G the final aggregation streams with zero
// reorganization.
func (g *generator[S]) finalizeEach(w *worker, e *entry, tree *plan.Plan) {
	switch {
	case !g.q.HasGrouping:
		g.insertTopLevelPlan(w, e, tree)
		return
	case tree.DupFree && tree.HasKeySubsetOf(g.finalKeyAttrs):
		w.est.EstimateProject(&w.fin, tree)
		if g.physOn() {
			w.est.PhysifyProject(&w.fin)
		}
	default:
		w.est.EstimateGroup(&w.fin, tree, g.q.GroupBy)
		w.fin.Final = true
		if g.physOn() {
			w.est.PhysifyGroup(&w.fin, g.groupPhys())
		}
	}
	g.insertTopLevelPlan(w, e, &w.fin)
}

// needsGrouping implements Fig. 7: grouping on attrs is unnecessary iff
// attrs contain a candidate key of t and t is duplicate-free. Below the
// top this test is deliberately syntactic: query-level FD equivalences
// from predicates that are not yet applied inside the subtree do not hold
// there, and using them here both skips profitable groupings and breaks
// the estimator consistency the dominance pruning relies on. It stays
// syntactic under the subplan-local dependencies EA-Prune's dominance
// reads, too. If a dominates b, each key of b implies a key of a, not
// necessarily one inside attrs; so where b skips the grouping a may not,
// and a then yields Γ(a) besides a itself. The closure relation thus only
// adds grouped candidates over a dominating plan, never removes one, and
// the tree over a still dominates the tree over b. Testing the closure
// here instead would skip groupings that pay: on a trial, rand8.9's
// EA-Prune C_out rose from 302,983 to 464,873.
func (g *generator[S]) needsGrouping(attrs bitset.VSet, t *plan.Plan) bool {
	return !(t.DupFree && t.HasKeySubsetOf(attrs))
}

// validPush implements the Valid check of Sec. 4.2 backed by the
// equivalences of Sec. 3: a grouping may be pushed onto the given side iff
//
//   - the operator admits a push on that side (the left semijoin, antijoin
//     and groupjoin only produce left attributes, so only their left
//     argument can be grouped — Sec. 3.1.3);
//   - the aggregation vector splits w.r.t. the side: every aggregate
//     drawing from the side's relations draws only from them; and
//   - those aggregates are decomposable (no distinct aggregates).
//
// Aggregates over relations outside the side are re-weighted through the
// count attribute of the Groupby-Count equivalences; attribute-free
// count(*) entries never block a push.
func (g *generator[S]) validPush(side bitset.VSet, isLeft bool, kind query.OpKind) bool {
	if !g.q.HasGrouping {
		return false
	}
	if !isLeft && kind.LeftOnly() {
		return false
	}
	if side.Intersects(g.gjRight) {
		return false // protect groupjoin F̄ inputs from pre-aggregation
	}
	for i, src := range g.aggSrc {
		if src.IsEmpty() || !src.Intersects(side) {
			continue
		}
		if !src.SubsetOf(side) {
			return false // aggregate spans the side boundary: not splittable
		}
		if !g.aggOK[i] {
			return false // not decomposable
		}
	}
	return true
}
