package core

import (
	"math/bits"
	"sync"

	"eagg/internal/bitset"
	"eagg/internal/cost"
	"eagg/internal/plan"
	"eagg/internal/query"
)

// worker is the state of one DP goroutine: its estimator, the scratch
// nodes a candidate is estimated into before any retention policy has
// seen it, and the arena the survivors are copied to, which it borrows
// from arenaPool for the run. A candidate of one (pair, operator) is the
// operator tree in cand — over table plans or over the pushed groupings
// estimated in gl/gr — and, when it completes the query, its final
// grouping or projection in fin. Policies read those
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

	// arena holds the survivors; free the root nodes dropped from an
	// unsealed entry, which nothing else refers to; spare the frontier row
	// buffers of sealed and regrown entries, spare[c] those of 1<<c floats.
	arena *arena
	free  []*plan.Plan
	spare [][][]float64
}

// arena is the chunked backing store a worker builds survivors in, so that
// a survivor costs a copy, not one allocation per node, key list and
// vector. It outlives the run: once run() has detached the winner,
// optimizeAs has every worker release its arena, cleared, to arenaPool,
// and the next run on any goroutine takes it from there.
type arena struct {
	plans   chunks[plan.Plan]
	keys    chunks[bitset.VSet]
	vectors chunks[float64]
	preds   chunks[*query.Predicate]
	entries chunks[entry]
	words   chunks[uint64]
}

// arenaPool holds the arenas of finished runs. A sync.Pool drops what it
// holds within two collections, so an idle process gives the memory back.
var arenaPool = sync.Pool{New: func() any { return new(arena) }}

// maxPooledChunks is how many chunks per list an arena keeps when it goes
// back to the pool. A large run fills hundreds of chunks, and keeping them
// all holds on to the memory of the largest run each worker ever made
// (optimize_cold's peak RSS read up to 17 % higher). Sixteen keep every
// chunk of a small run, which is what serving plan-cache misses repeats.
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

// newWorker returns a worker estimating through est, with an arena from
// the pool.
func newWorker(est *cost.Estimator) *worker {
	return &worker{est: est, arena: arenaPool.Get().(*arena)}
}

// release hands the worker's arena back to the pool. Nothing the run built
// may be read afterwards.
func (w *worker) release() {
	a := w.arena
	a.plans.release()
	a.keys.release()
	a.vectors.release()
	a.preds.release()
	a.entries.release()
	a.words.release()
	arenaPool.Put(a)
	w.arena = nil
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

// growRows returns rows with room for n floats: rows itself if it has it,
// else a buffer of the next power-of-two size — a spare one if there is
// one — holding a copy of rows, whose own buffer becomes a spare.
func (w *worker) growRows(rows []float64, n int) []float64 {
	if cap(rows) >= n {
		return rows
	}
	c := bits.Len(uint(n - 1))
	w.spare = resize(w.spare, max(len(w.spare), c+1))
	var buf []float64
	if k := len(w.spare[c]) - 1; k >= 0 {
		buf, w.spare[c] = w.spare[c][k], w.spare[c][:k]
	} else {
		buf = make([]float64, 0, 1<<c)
	}
	buf = append(buf, rows...)
	w.giveRows(rows)
	return buf
}

// giveRows makes a frontier row buffer, which growRows sized to a power of
// two, a spare.
func (w *worker) giveRows(rows []float64) {
	if cap(rows) > 0 {
		c := bits.Len(uint(cap(rows) - 1))
		w.spare[c] = append(w.spare[c], rows[:0])
	}
}

// node copies a scratch estimate into the arena, or into the node, key list
// and vector of a plan EA-Prune has since dropped from the entry it is
// building.
func (w *worker) node(t *plan.Plan) *plan.Plan {
	var n *plan.Plan
	if k := len(w.free) - 1; k >= 0 {
		n, w.free = w.free[k], w.free[:k]
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
// Preds. MergeL, MergeR and Ord never point into one: the estimator
// allocates them per candidate or takes them from its order analysis.
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
