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
// returns the number of trees considered. The component subplans are read
// from sealed table levels and the table is only ever read here, which is
// what lets the parallel driver's level workers share it lock-free.
//
// The pushed groupings are estimated once per t1 and once per t2 — not
// once per (t1, t2) — and become nodes only under a tree that survives.
// DPhyp mode and grouping-free queries consider only the base tree.
func (g *generator[S]) buildInto(w *worker, e, e1, e2 *entry, op *conflict.Op[S], topLevel bool) int {
	t1s, t2s := e1.plans, e2.plans
	kind := op.Node.Kind

	kinds := len(g.groupPhysKinds())
	w.gl, w.glNode = resize(w.gl, kinds), resize(w.glNode, kinds)
	w.gr, w.grNode = resize(w.gr, kinds*len(t2s)), resize(w.grNode, kinds*len(t2s))
	clear(w.grNode)
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
		g.pushedGroups(w, w.gr[j*kinds:(j+1)*kinds], t2, gpR, pushR)
	}

	built := 0
	for _, t1 := range t1s {
		g.pushedGroups(w, w.gl, t1, gpL, pushL)
		clear(w.glNode)
		for j, t2 := range t2s {
			gr, grNode := w.gr[j*kinds:(j+1)*kinds], w.grNode[j*kinds:(j+1)*kinds]
			built += g.consider(w, e, kind, t1, t2, nil, nil, topLevel)
			for i := range w.gl {
				if w.gl[i].Left != nil {
					built += g.consider(w, e, kind, &w.gl[i], t2, &w.glNode[i], nil, topLevel)
				}
			}
			for k := range gr {
				if gr[k].Left != nil {
					built += g.consider(w, e, kind, t1, &gr[k], nil, &grNode[k], topLevel)
				}
			}
			for i := range w.gl {
				for k := range gr {
					if w.gl[i].Left != nil && gr[k].Left != nil {
						built += g.consider(w, e, kind, &w.gl[i], &gr[k], &w.glNode[i], &grNode[k], topLevel)
					}
				}
			}
		}
	}
	return built
}

// resize returns s with length n, reusing its backing array (and so the
// key and vector buffers of scratch nodes) when it is large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		s = append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:n]
}

// consider estimates one operator tree l ◦ r into w.cand — once per
// admissible physical kind in the sort/auto modes, hash first (ties
// resolve toward hash in the retention policies) — and hands it to the
// retention policy, each completed tree through finalizeEach. lNode/rNode
// are the node-cache slots of scratch children. It returns the number of
// trees considered.
func (g *generator[S]) consider(w *worker, e *entry, kind query.OpKind, l, r *plan.Plan, lNode, rNode **plan.Plan, topLevel bool) int {
	w.est.EstimateOp(&w.cand, kind, &w.jp, l, r)
	w.lNode, w.rNode = lNode, rNode
	built := 0
	for _, ph := range g.opPhysKinds(kind) {
		if g.physOn() && !w.est.PhysifyOp(&w.cand, ph) {
			continue
		}
		if topLevel {
			built += g.finalizeEach(w, e, &w.cand)
		} else {
			built++
			g.insert(w, e, &w.cand)
		}
	}
	return built
}

// pushedGroups estimates the admissible pushed-grouping plans over t into
// dst, one slot per enabled physical kind (hash aggregation and sort-group
// aggregation are distinct plan-class members: their costs and contractual
// orders differ); a slot's Left stays nil when the push is invalid or the
// grouping unnecessary.
func (g *generator[S]) pushedGroups(w *worker, dst []plan.Plan, t *plan.Plan, gp bitset.VSet, valid bool) {
	needed := valid && g.needsGrouping(gp, t)
	for i, ph := range g.groupPhysKinds() {
		dst[i].Left = nil
		if needed {
			w.est.EstimateGroup(&dst[i], t, gp)
			if g.physOn() && !w.est.PhysifyGroup(&dst[i], ph) {
				dst[i].Left = nil
			}
		}
	}
}

// The physical-kind lists the enumeration walks, hash before sort.
var (
	hashOnly     = []plan.PhysKind{plan.PhysHash}
	sortOnly     = []plan.PhysKind{plan.PhysSortMerge}
	hashThenSort = []plan.PhysKind{plan.PhysHash, plan.PhysSortMerge}
)

// opPhysKinds returns the physical kinds to enumerate for a binary
// operator. Operators without a sort-based form (full outerjoin,
// groupjoin) stay on the hash layer in every mode.
func (g *generator[S]) opPhysKinds(kind query.OpKind) []plan.PhysKind {
	if kind == query.KindFullOuter || kind == query.KindGroupJoin {
		return hashOnly
	}
	return g.groupPhysKinds()
}

// groupPhysKinds returns the physical kinds to enumerate for groupings.
func (g *generator[S]) groupPhysKinds() []plan.PhysKind {
	switch g.opts.Phys {
	case PhysModeSort:
		return sortOnly
	case PhysModeAuto:
		return hashThenSort
	}
	return hashOnly
}

// finalizeEach attaches the final grouping to a complete tree (Fig. 6,
// lines 6-8 etc.) and hands the result to the top-level policy: the tree
// itself on grouping-free queries; the free projection of Sec. 3.2 when G
// implies a key of a duplicate-free result; otherwise Γ_G, one plan per
// enabled physical kind, hash first. The sort-group variant of the top Γ_G
// is where a contractual order carried this far pays off: when it covers G
// the final aggregation streams with zero reorganization. It returns the
// number of plans considered.
func (g *generator[S]) finalizeEach(w *worker, e *entry, tree *plan.Plan) int {
	if !g.q.HasGrouping {
		g.insertTopLevelPlan(w, e, tree)
		return 1
	}
	if tree.DupFree && tree.HasKeySubsetOf(g.finalKeyAttrs) {
		w.est.EstimateProject(&w.fin, tree)
		if g.physOn() {
			w.est.PhysifyProject(&w.fin)
		}
		g.insertTopLevelPlan(w, e, &w.fin)
		return 1
	}
	built := 0
	for _, ph := range g.groupPhysKinds() {
		w.est.EstimateGroup(&w.fin, tree, g.q.GroupBy)
		w.fin.Final = true
		if !g.physOn() || w.est.PhysifyGroup(&w.fin, ph) {
			built++
			g.insertTopLevelPlan(w, e, &w.fin)
		}
	}
	return built
}

// needsGrouping implements Fig. 7: grouping on attrs is unnecessary iff
// attrs contain a candidate key of t and t is duplicate-free. Below the
// top this test is deliberately syntactic: query-level FD equivalences
// from predicates that are not yet applied inside the subtree do not hold
// there, and using them here both skips profitable groupings and breaks
// the estimator consistency the dominance pruning relies on.
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
