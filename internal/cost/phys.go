// Order-aware physical costing for the sort-based layer. The estimator
// keeps pricing plan *quality* with the paper's C_out (Plan.Cost); when
// the optimizer enables the sort-based physical algebra it additionally
// maintains Plan.PhysCost, which adds each operator's physical
// reorganization overhead in rows touched:
//
//	hash join / groupjoin:  |left| + |right|   (hash both sides)
//	hash aggregation:       |input|            (hash every input row)
//	sort-merge join:        Σ |input| over the sorts actually performed
//	sort-group aggregation: |input| if sorted, 0 if the order is reused
//
// Reorganizing a side costs one pass whether it is hashed or sorted;
// reusing an existing order saves that pass entirely. The optimizer's sort
// mode ranks plans by it: within a plan class an ordered plan that
// eliminates a sort beats one that must sort, exactly where the classic
// interesting-order argument says it should. All cardinalities flow
// through the estimator's Source seam, so the cardinality feedback
// loop corrects physical overheads too.
package cost

import (
	"eagg/internal/bitset"
	"eagg/internal/ordering"
	"eagg/internal/plan"
	"eagg/internal/query"
)

// ordInfo returns the order inference over the estimator's dependency
// analysis: a stateless value built where it is used, so the hash mode
// never pays for it and clones share nothing to copy.
func (e *Estimator) ordInfo() ordering.Info { return ordering.NewInfo(e.Q, &e.local) }

// PhysifyScan fills the physical properties of a scan: the declared
// contractual order, zero overhead.
func (e *Estimator) PhysifyScan(p *plan.Plan) {
	if o := e.ordInfo().ScanOrder(p.Rel); len(o) > 0 {
		p.Ord = o
	}
	p.PhysCost = 0
}

// PhysifyOp fills the physical properties of a freshly estimated binary
// operator node for the requested physical kind. The sort-based layer
// implements inner, semi, anti and left outer joins; the caller keeps full
// outer joins and groupjoins on the hash layer.
func (e *Estimator) PhysifyOp(p *plan.Plan, phys plan.PhysKind) {
	l, r := p.Left, p.Right
	if phys == plan.PhysHash {
		p.Phys = plan.PhysHash // Ord stays nil: the hash layer claims no order
		p.PhysCost = p.Card + l.Card + r.Card + l.PhysCost + r.PhysCost
		return
	}
	lk, rk := orientPairs(e.Q, p.Preds, l.Rels)
	in := e.ordInfo()
	// Prefer matching the left input's order (the left sequence is
	// what the output preserves), then the right; otherwise both
	// sides are sorted in predicate order.
	sortL, sortR := true, true
	if perm, ok := in.CoversKeys(l.Rels, l.Ord, lk); ok {
		sortL = false
		lk, rk = permute(lk, perm), permute(rk, perm)
		sortR = !in.CoversKeysInOrder(r.Rels, r.Ord, rk)
	} else if perm, ok := in.CoversKeys(r.Rels, r.Ord, rk); ok {
		sortR = false
		lk, rk = permute(lk, perm), permute(rk, perm)
	}
	overhead := 0.0
	if sortL {
		overhead += l.Card
	}
	if sortR {
		overhead += r.Card
	}
	p.Phys = plan.PhysSortMerge
	p.SortL, p.SortR = sortL, sortR
	p.MergeL, p.MergeR = lk, rk
	// The operator restores the left input sequence (see
	// algebra/sort.go), so the left contractual order survives.
	p.Ord = l.Ord
	p.PhysCost = p.Card + overhead + l.PhysCost + r.PhysCost
}

// PhysifyGroup fills the physical properties of a freshly estimated
// grouping node for the requested physical kind. Sort-group aggregation is
// available for every grouping; it reuses the input order when it covers
// the grouping attributes (rows of one group are already consecutive) and
// sorts otherwise.
func (e *Estimator) PhysifyGroup(p *plan.Plan, phys plan.PhysKind) {
	child := p.Left
	if phys == plan.PhysHash {
		p.Phys = plan.PhysHash // Ord stays nil: the hash layer claims no order
		p.PhysCost = p.Card + child.Card + child.PhysCost
		return
	}
	in := e.ordInfo()
	prefix, covered := in.CoversGrouping(child.Rels, child.Ord, p.GroupBy)
	overhead := 0.0
	if !covered {
		overhead = child.Card
	}
	p.Phys = plan.PhysSortMerge
	p.SortL = !covered
	// The covering order prefix: the runtime verifies the input is
	// really non-decreasing on it before trusting the runs argument.
	p.MergeL = prefix
	// The operator emits groups in first-encounter order either way
	// (see algebra/sort.go), so the input order survives as far as
	// its attributes map into the grouping columns.
	p.Ord = in.GroupOutputOrder(child.Rels, child.Ord, p.GroupBy)
	p.PhysCost = p.Card + overhead + child.PhysCost
}

// PhysifyProject fills the physical properties of the free projection:
// like its C_out cost, its physical cost is the child's. The projection
// only ever replaces the query's top grouping, so its output order can
// never be reused and is not claimed.
func (e *Estimator) PhysifyProject(p *plan.Plan) {
	p.Ord = nil
	p.PhysCost = p.Left.PhysCost
}

// permute reorders keys by perm: out[i] = keys[perm[i]].
func permute(keys, perm []int) []int {
	out := make([]int, len(perm))
	for i, j := range perm {
		out[i] = keys[j]
	}
	return out
}

// orientPairs flattens every predicate pair into aligned (left, right)
// attribute id sequences, oriented by which side owns the attribute —
// the estimator-side counterpart of the executor's joinKeys, so the
// merge order the optimizer prices is the one the runtime executes.
func orientPairs(q *query.Query, preds []*query.Predicate, leftRels bitset.VSet) (lk, rk []int) {
	for _, pr := range preds {
		for i := range pr.Left {
			la, ra := pr.Left[i], pr.Right[i]
			if !leftRels.Contains(q.AttrRel[la]) && leftRels.Contains(q.AttrRel[ra]) {
				la, ra = ra, la
			}
			lk = append(lk, la)
			rk = append(rk, ra)
		}
	}
	return lk, rk
}
