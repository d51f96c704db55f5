package core

import (
	"eagg/internal/bitset"
	"eagg/internal/cost"
	"eagg/internal/plan"
	"eagg/internal/query"
)

// worker is the state of one DP goroutine: its estimator, the scratch
// nodes a candidate is estimated into before any retention policy has
// seen it, and the arena the survivors are copied to. A candidate of one
// (pair, operator) is the operator tree in cand — over table plans or
// over the pushed groupings estimated in gl/gr — and, when it completes
// the query, its final grouping or projection in fin. Policies read those
// nodes like any plan and call keep on the ones they retain; the ~94% an
// EA-Prune run rejects are never allocated.
type worker struct {
	est *cost.Estimator
	// edges holds the current pair's connecting edges, jp their predicates;
	// preds is the arena copy of jp.Preds that built nodes share, nil until
	// the pair's first survivor. touch is open's scratch.
	edges []int
	jp    cost.JoinPreds
	preds []*query.Predicate
	touch []uint64
	// row is the frontier row of the candidate EA-Prune is testing.
	row []float64

	cand, fin plan.Plan
	// gl holds the estimates of Γ(t1) for the current t1, one per
	// physical kind; gr those of Γ(t2) for every t2 of the operator
	// (len(t2s) × kinds). Left == nil marks a grouping that is invalid or
	// unnecessary. glNode/grNode cache the node built for an estimate
	// under its first surviving tree.
	gl, gr         []plan.Plan
	glNode, grNode []*plan.Plan
	// lNode/rNode point at the cache slot of cand's scratch children, nil
	// where the child is a table plan.
	lNode, rNode **plan.Plan

	// The arena: chunked backing stores, so that building a survivor costs
	// a copy, not one allocation per node, key list and vector. It is
	// scoped to the run — run() detaches the winner.
	plans   []plan.Plan
	free    []*plan.Plan // root nodes dropped from an unsealed entry: nothing else refers to one
	keys    []bitset.VSet
	vectors []float64
	predPtr []*query.Predicate
	entries []entry
	words   []uint64
}

// take copies src into old, a slice taken earlier that nothing refers to
// any more, if it is large enough; else to the end of the chunk *slab,
// starting a new chunk when the current one cannot hold it. It returns the
// copy with its capacity clipped so that appending to it never runs into a
// neighbor.
func take[T any](old []T, slab *[]T, src []T, chunk int) []T {
	if cap(old) >= len(src) && cap(old) > 0 {
		return append(old[:0], src...)
	}
	if cap(*slab)-len(*slab) < len(src) {
		*slab = make([]T, 0, max(chunk, len(src)))
	}
	n := len(*slab)
	*slab = append(*slab, src...)
	return (*slab)[n:len(*slab):len(*slab)]
}

// alloc returns a zero T at the end of the chunk *slab, starting a new chunk
// of the given size when the current one is full. A chunk is never reused,
// so the element past its length is still the zero make left there.
func alloc[T any](slab *[]T, chunk int) *T {
	if len(*slab) == cap(*slab) {
		*slab = make([]T, 0, chunk)
	}
	*slab = (*slab)[:len(*slab)+1]
	return &(*slab)[len(*slab)-1]
}

// node copies a scratch estimate into the arena, or into the node, key list
// and vector of a plan EA-Prune has since dropped from the entry it is
// building.
func (w *worker) node(t *plan.Plan) *plan.Plan {
	var n *plan.Plan
	if k := len(w.free) - 1; k >= 0 {
		n, w.free = w.free[k], w.free[:k]
	} else {
		n = alloc(&w.plans, 64)
	}
	keys, vector := n.Keys, n.Profile
	*n = *t
	n.Keys = take(keys, &w.keys, t.Keys, 256)
	n.Profile = take(vector, &w.vectors, t.Profile, 1024)
	return n
}

// newEntry returns an empty DP-table entry from the arena.
func (w *worker) newEntry() *entry { return alloc(&w.entries, 64) }

// keep builds the node of a surviving candidate (w.cand or w.fin) together
// with the scratch nodes below it: the final grouping's operator tree and
// the operator's pushed groupings, the latter once per estimate however
// many trees survive over it.
func (w *worker) keep(t *plan.Plan) *plan.Plan {
	n := w.node(t)
	switch {
	case t == &w.fin && t.Left == &w.cand:
		n.Left = w.keep(&w.cand)
	case t == &w.cand:
		if w.preds == nil {
			w.preds = take(nil, &w.predPtr, t.Preds, 256)
		}
		n.Preds = w.preds
		n.Left, n.Right = w.child(t.Left, w.lNode), w.child(t.Right, w.rNode)
	}
	return n
}

func (w *worker) child(p *plan.Plan, slot **plan.Plan) *plan.Plan {
	if slot == nil {
		return p
	}
	if *slot == nil {
		*slot = w.node(p)
	}
	return *slot
}

// detach returns a copy of the tree that shares no memory with any arena.
func detach(p *plan.Plan) *plan.Plan {
	if p == nil {
		return nil
	}
	c := *p
	c.Keys = append([]bitset.VSet(nil), p.Keys...)
	c.Profile = append([]float64(nil), p.Profile...)
	c.Preds = append([]*query.Predicate(nil), p.Preds...)
	c.Left, c.Right = detach(p.Left), detach(p.Right)
	return &c
}
