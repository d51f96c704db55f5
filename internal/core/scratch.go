package core

import (
	"sync"

	"eagg/internal/bitset"
	"eagg/internal/cost"
	"eagg/internal/plan"
	"eagg/internal/query"
)

// worker is the state of one DP goroutine: its estimator, the scratch
// nodes a candidate is estimated into before any retention policy has
// seen it, and the arena the survivors are copied to. Workers outlive
// their runs: newWorker takes one from workerPool with the buffers and
// arena chunks an earlier run grew, and release hands it back. A
// candidate of one (pair, operator) is the operator tree in cand — over
// table plans or over the pushed groupings estimated in gl/gr — and, when
// it completes the query, its final grouping or projection in fin.
// Policies read those nodes like any plan and call keep on the ones they
// retain; the ~94% an EA-Prune run rejects are never allocated.
type worker struct {
	est *cost.Estimator
	// edges holds the current pair's connecting edges, jp their predicates;
	// preds is the arena copy of jp.Preds that built nodes share, nil until
	// the pair's first survivor. touch is open's scratch.
	edges []int
	jp    cost.JoinPreds
	preds []*query.Predicate
	touch []uint64
	// cl holds the closures of the keys of the candidate EA-Prune is
	// testing once closed says they are computed (see keyClosures), cls
	// those of the retained plan a key test needs them of.
	cl     []uint64
	closed bool
	cls    []uint64

	// fin also holds each scan estimate until the scan is kept (see scans).
	cand, fin plan.Plan
	// gl holds the estimate of Γ(t1) for the current t1; gr those of
	// Γ(t2), one per t2 of the operator. Left == nil marks a grouping that
	// is invalid or unnecessary. glNode/grNode cache the node built for an
	// estimate under its first surviving tree. gr and grNode are as long
	// as the most t2s an operator of the run had, so that release clears
	// what the run used and no more.
	gl     plan.Plan
	gr     []plan.Plan
	glNode *plan.Plan
	grNode []*plan.Plan
	// lNode/rNode point at the cache slot of cand's scratch children, nil
	// where the child is a table plan.
	lNode, rNode **plan.Plan

	// arena holds the survivors; free the root nodes EA-Prune dropped from
	// the entry it was building, which nothing else refers to (a node
	// taken off it leaves nil behind).
	arena arena
	free  []*plan.Plan

	// skippedTrees and skippedPairs count what consider and processPair
	// declined to estimate (Stats.SkippedTrees, SkippedPairs).
	skippedTrees, skippedPairs int
}

// workerPool holds the workers of finished runs. A sync.Pool drops what it
// holds within two collections, so an idle process gives the memory back.
var workerPool = sync.Pool{New: func() any { return new(worker) }}

// arena is the chunked backing store a worker builds survivors in, so that
// a survivor costs a copy, not one allocation per node, key list and
// vector. It outlives the run with its worker: once run() has detached
// the winner, optimizeAs releases every worker, and release clears the
// chunks for the next run on any goroutine.
type arena struct {
	plans   chunks[plan.Plan]
	keys    chunks[bitset.VSet]
	vectors chunks[float64]
	preds   chunks[*query.Predicate]
	entries chunks[entry]
	words   chunks[uint64]
}

// maxPooledChunks is how many chunks per list an arena keeps when its
// worker goes back to the pool. A large run fills hundreds of chunks, and
// keeping them all holds on to the memory of the largest run each worker
// ever made (optimize_cold's peak RSS read up to 17 % higher). Sixteen
// keep every chunk of a small run, which is what serving plan-cache misses
// repeats.
const maxPooledChunks = 16

// chunks is one list of an arena: the chunk being filled, the chunks this
// run filled before it, and cleared chunks left by earlier runs.
type chunks[T any] struct {
	cur   []T
	full  [][]T
	spare [][]T
}

// next retires the current chunk and starts one of at least size
// elements, a spare one if the last is large enough.
func (c *chunks[T]) next(size int) {
	if cap(c.cur) > 0 {
		c.full = append(c.full, c.cur)
	}
	if k := len(c.spare) - 1; k >= 0 && cap(c.spare[k]) >= size {
		c.cur, c.spare = c.spare[k], c.spare[:k]
		return
	}
	c.cur = make([]T, 0, size)
}

// release clears the chunks the run filled, up to maxPooledChunks of them
// counting the spares already held, and keeps them as spares; the rest
// are left to the collector.
func (c *chunks[T]) release() {
	if cap(c.cur) > 0 {
		c.full = append(c.full, c.cur)
	}
	for _, ch := range c.full {
		if len(c.spare) == maxPooledChunks {
			break
		}
		clear(ch)
		c.spare = append(c.spare, ch[:0])
	}
	clear(c.full)
	c.cur, c.full = nil, c.full[:0]
}

// release readies every list of the arena for the next run.
func (a *arena) release() {
	a.plans.release()
	a.keys.release()
	a.vectors.release()
	a.preds.release()
	a.entries.release()
	a.words.release()
}

// newWorker returns a worker estimating through est, from the pool.
func newWorker(est *cost.Estimator) *worker {
	w := workerPool.Get().(*worker)
	w.est = est
	return w
}

// release hands the worker back to the pool. Nothing the run built may be
// read afterwards. It keeps the worker's buffers and its arena's cleared
// chunks, and clears every pointer into the run: a pooled worker that held
// one would keep chunks of the run alive beyond the spares (optimize_cold's
// peak RSS read 172–223 MB without the clearing, 138–177 with it).
func (w *worker) release() {
	w.arena.release()
	w.est, w.preds = nil, nil
	clear(w.jp.Preds[:cap(w.jp.Preds)])
	w.jp.Reset()
	clear(w.free)
	w.free = w.free[:0]
	clearScratch(&w.cand)
	clearScratch(&w.fin)
	clearScratch(&w.gl)
	for i := range w.gr {
		clearScratch(&w.gr[i])
	}
	clear(w.grNode)
	w.gr, w.grNode = w.gr[:0], w.grNode[:0]
	w.glNode, w.lNode, w.rNode = nil, nil, nil
	w.closed, w.skippedTrees, w.skippedPairs = false, 0, 0
	workerPool.Put(w)
}

// clearScratch zeroes a scratch node but for its Keys and Profile buffers,
// whose contents it clears too: a key beyond 64 attributes holds a string.
func clearScratch(p *plan.Plan) {
	keys := p.Keys[:cap(p.Keys)]
	clear(keys)
	*p = plan.Plan{Keys: keys[:0], Profile: p.Profile[:0]}
}

// take copies src into old, a slice taken earlier that nothing refers to
// any more, if it is large enough; else to the end of the current chunk of
// c, starting a new chunk when the current one cannot hold it. It returns
// the copy with its capacity clipped so that appending to it never runs
// into a neighbor.
func take[T any](old []T, c *chunks[T], src []T, chunk int) []T {
	if cap(old) >= len(src) && cap(old) > 0 {
		return append(old[:0], src...)
	}
	if cap(c.cur)-len(c.cur) < len(src) {
		c.next(max(chunk, len(src)))
	}
	n := len(c.cur)
	c.cur = append(c.cur, src...)
	return c.cur[n:len(c.cur):len(c.cur)]
}

// alloc returns a zero T at the end of the current chunk of c, starting a
// new chunk of the given size when the current one is full. A chunk is
// cleared before it is reused, so the element past its length is zero.
func alloc[T any](c *chunks[T], chunk int) *T {
	if len(c.cur) == cap(c.cur) {
		c.next(chunk)
	}
	c.cur = c.cur[:len(c.cur)+1]
	return &c.cur[len(c.cur)-1]
}

// node copies a scratch estimate into the arena, or into the node, key list
// and vector of a plan EA-Prune has since dropped from the entry it is
// building.
func (w *worker) node(t *plan.Plan) *plan.Plan {
	var n *plan.Plan
	if k := len(w.free) - 1; k >= 0 {
		n, w.free[k] = w.free[k], nil
		w.free = w.free[:k]
	} else {
		n = alloc(&w.arena.plans, 64)
	}
	keys, vector := n.Keys, n.Profile
	*n = *t
	n.Keys = take(keys, &w.arena.keys, t.Keys, 256)
	n.Profile = take(vector, &w.arena.vectors, t.Profile, 1024)
	return n
}

// newEntry returns an empty DP-table entry from the arena.
func (w *worker) newEntry() *entry { return alloc(&w.arena.entries, 64) }

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
			w.preds = take(nil, &w.arena.preds, t.Preds, 256)
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

// detach returns a copy of the tree that shares no memory with any arena:
// its nodes, and the three slices an arena can back — Keys, Profile and
// Preds — each carved out of one slab per tree, so that a result costs
// four allocations, not four per node. MergeL, MergeR and Ord never point
// into an arena: the estimator allocates them per candidate or takes them
// from its order analysis.
func detach(p *plan.Plan) *plan.Plan {
	n, k, v, q := treeSize(p)
	s := slab{make([]plan.Plan, 0, n), make([]bitset.VSet, 0, k), make([]float64, 0, v), make([]*query.Predicate, 0, q)}
	return s.copy(p)
}

// treeSize returns the number of nodes of p and the lengths of their Keys,
// Profile and Preds summed.
func treeSize(p *plan.Plan) (nodes, keys, vectors, preds int) {
	if p == nil {
		return 0, 0, 0, 0
	}
	ln, lk, lv, lq := treeSize(p.Left)
	rn, rk, rv, rq := treeSize(p.Right)
	return 1 + ln + rn, len(p.Keys) + lk + rk, len(p.Profile) + lv + rv, len(p.Preds) + lq + rq
}

// slab is the memory of one detached tree, sized by treeSize.
type slab struct {
	nodes   []plan.Plan
	keys    []bitset.VSet
	vectors []float64
	preds   []*query.Predicate
}

func (s *slab) copy(p *plan.Plan) *plan.Plan {
	if p == nil {
		return nil
	}
	s.nodes = append(s.nodes, *p)
	c := &s.nodes[len(s.nodes)-1]
	c.Keys, s.keys = carve(s.keys, p.Keys)
	c.Profile, s.vectors = carve(s.vectors, p.Profile)
	c.Preds, s.preds = carve(s.preds, p.Preds)
	c.Left, c.Right = s.copy(p.Left), s.copy(p.Right)
	return c
}

// carve appends src to the slab and returns the copy, capacity clipped,
// and the slab; an empty src copies to nil.
func carve[T any](slab, src []T) (cp, rest []T) {
	if len(src) == 0 {
		return nil, slab
	}
	n := len(slab)
	slab = append(slab, src...)
	return slab[n:len(slab):len(slab)], slab
}
