// Package hypergraph implements query hypergraphs and the csg-cmp-pair
// enumeration underlying DPhyp (Moerkotte & Neumann, "Dynamic Programming
// Strikes Back", SIGMOD 2008), which the paper's plan generators build on
// (Sec. 4.1).
//
// Nodes are relations 0…n-1; a hyperedge (U, V) connects every relation set
// containing U with every set containing V. Simple edges are hyperedges
// with singleton endpoints. Hyperedges arise from the conflict detector's
// TES sets, which encode reordering restrictions of non-inner joins.
//
// The package is generic in the relation-set representation S
// (bitset.RelSet): bitset.Set64 is the zero-overhead fast path for ≤63
// relations, bitset.VSet the wide path beyond. All enumeration
// order is defined by S's ascending-subset order, which both
// representations share, so the emitted pair sequence is independent of
// the representation.
package hypergraph

import (
	"fmt"
	"math/bits"

	"eagg/internal/bitset"
)

// Edge is a hyperedge (Left, Right) with disjoint, non-empty endpoints.
// Payload carries an opaque operator reference for the plan generator.
type Edge[S bitset.RelSet[S]] struct {
	Left, Right S
	Payload     int
}

// Graph is a query hypergraph over nodes {0,…,N-1}.
type Graph[S bitset.RelSet[S]] struct {
	N     int
	Edges []Edge[S]

	// adj[i] is the neighbor mask of node i when every edge is simple;
	// nil on hypergraphs and until ensureAdj runs. It turns the per-edge
	// subset tests of a neighborhood — four generic method calls per edge
	// — into one word-wide union per node. Built single-threaded at the
	// start of the DPhyp enumeration, invalidated by AddEdge.
	adj []S

	// inc is the incident-edge index behind Touch: row i is the touch set
	// of node i. Built single-threaded by the first Touch, invalidated by
	// AddEdge.
	inc []uint64
}

// ensureAdj builds the simple-graph adjacency masks. Callers guarantee
// the graph has no hyperedges and no concurrent mutation.
func (g *Graph[S]) ensureAdj() {
	if g.adj != nil {
		return
	}
	adj := make([]S, g.N)
	for i := range g.Edges {
		u, v := g.Edges[i].Left.Min(), g.Edges[i].Right.Min()
		adj[u] = adj[u].Add(v)
		adj[v] = adj[v].Add(u)
	}
	g.adj = adj
}

// New returns an empty hypergraph over n nodes.
func New[S bitset.RelSet[S]](n int) *Graph[S] {
	var z S
	if n < 1 || n > z.Cap()-1 {
		panic(fmt.Sprintf("hypergraph: unsupported node count %d", n))
	}
	return &Graph[S]{N: n}
}

// AddEdge adds a hyperedge. It panics on overlapping or empty endpoints —
// such edges are always construction bugs.
func (g *Graph[S]) AddEdge(left, right S, payload int) {
	if left.IsEmpty() || right.IsEmpty() || left.Intersects(right) {
		panic("hypergraph: invalid hyperedge endpoints")
	}
	g.Edges = append(g.Edges, Edge[S]{Left: left, Right: right, Payload: payload})
	g.adj, g.inc = nil, nil
}

// AddSimpleEdge adds the edge ({u},{v}).
func (g *Graph[S]) AddSimpleEdge(u, v, payload int) {
	g.AddEdge(bitset.SingleIn[S](u), bitset.SingleIn[S](v), payload)
}

// All returns the full node set.
func (g *Graph[S]) All() S {
	return bitset.RangeIn[S](0, g.N)
}

// ConnectsSets reports whether some edge connects S1 and S2, i.e. condition
// 3 of Def. 3: ∃(u,v) ∈ E with u ⊆ S1 ∧ v ⊆ S2 (or the mirror image).
// It returns the index of a witnessing edge, or -1.
func (g *Graph[S]) ConnectsSets(s1, s2 S) int {
	for i, e := range g.Edges {
		if (e.Left.SubsetOf(s1) && e.Right.SubsetOf(s2)) ||
			(e.Left.SubsetOf(s2) && e.Right.SubsetOf(s1)) {
			return i
		}
	}
	return -1
}

// Touch appends to dst the touch set of s — the edges with a node of s in
// an endpoint, one bit per edge, bit k standing for edge k — and returns
// the extended slice. Touch sets are unions over the nodes, so
// touch(S1 ∪ S2) = touch(S1) | touch(S2); a DP driver computes one per table
// entry. The first call builds the index and must not race with another.
func (g *Graph[S]) Touch(dst []uint64, s S) []uint64 {
	w := (len(g.Edges) + 63) / 64
	if g.inc == nil {
		g.inc = make([]uint64, g.N*w)
		for k := range g.Edges {
			for rem := g.Edges[k].Left.Union(g.Edges[k].Right); !rem.IsEmpty(); {
				i := rem.Min()
				rem = rem.Remove(i)
				g.inc[i*w+k/64] |= 1 << uint(k%64)
			}
		}
	}
	n := len(dst)
	dst = append(dst, make([]uint64, w)...)
	for rem := s; !rem.IsEmpty(); {
		i := rem.Min()
		rem = rem.Remove(i)
		for k, bitsOf := range g.inc[i*w : i*w+w] {
			dst[n+k] |= bitsOf
		}
	}
	return dst
}

// Connecting appends to dst the indices of all edges connecting S1 and S2,
// ascending, given the two sets' touch sets: an edge connecting them has an
// endpoint inside each, so only the edges in both touch sets take the
// endpoint test — one edge on a chain, whatever its length.
func (g *Graph[S]) Connecting(dst []int, t1, t2 []uint64, s1, s2 S) []int {
	for k, w1 := range t1 {
		for t := w1 & t2[k]; t != 0; t &= t - 1 {
			i := k*64 + bits.TrailingZeros64(t)
			if e := &g.Edges[i]; (e.Left.SubsetOf(s1) && e.Right.SubsetOf(s2)) ||
				(e.Left.SubsetOf(s2) && e.Right.SubsetOf(s1)) {
				dst = append(dst, i)
			}
		}
	}
	return dst
}

// adjOf returns the union of the neighbor masks of s's members on a simple
// graph (g.adj non-nil): every neighbor is a single node, so 𝒩(S, X) is
// adjOf(S) \ S \ X, and adjOf(S ∪ T) = adjOf(S) ∪ adjOf(T) lets the
// enumeration carry it down the recursion instead of recomputing it.
func (g *Graph[S]) adjOf(s S) S {
	var nb S
	for rem := s; !rem.IsEmpty(); {
		i := rem.Min()
		rem = rem.Remove(i)
		nb = nb.Union(g.adj[i])
	}
	return nb
}

// CsgCmpPair is one enumerated pair per Def. 3.
type CsgCmpPair[S bitset.RelSet[S]] struct {
	S1, S2 S
}

// HasHyperedges reports whether any edge has a non-singleton endpoint.
func (g *Graph[S]) HasHyperedges() bool {
	for _, e := range g.Edges {
		if !e.Left.IsSingleton() || !e.Right.IsSingleton() {
			return true
		}
	}
	return false
}

// CsgCmpPairs enumerates every csg-cmp-pair of the hypergraph exactly once
// (unordered: each pair appears with min(S1) < min(S2)) and returns them
// ordered by |S1 ∪ S2| ascending, so a dynamic programming driver can
// consume them directly: all sub-pairs of a set precede the pairs forming
// that set.
//
// Two strategies are used. Simple graphs (no hyperedges) run the DPhyp
// enumeration (EnumerateCsg/EmitCsg/EnumerateCsgRec/EnumerateCmp). For
// hypergraphs the representative/exclusion-set mechanism of textbook DPhyp
// is incomplete when two hypernodes share a minimum element (the exclusion
// set then blocks the smaller hypernode after the larger was offered), so
// they run the closure of BuildableSets, complete by construction, in time
// that follows its output (see buildableSets). Its pairs come out in
// discovery order, which a stable counting sort by level keeps within each
// level: the DP breaks cost ties in that order, so the order is pinned
// (TestHypergraphPairSequence).
func (g *Graph[S]) CsgCmpPairs() []CsgCmpPair[S] {
	pairs, _, _ := g.CsgCmpPairsBudget(0)
	return pairs
}

// CsgCmpPairsBudget is CsgCmpPairs with an emission budget: once budget
// pairs have been emitted (budget 0 = unlimited) the enumeration aborts
// deterministically and returns complete=false with the number emitted and
// no list — a DP driver cannot use a partial one (sub-pairs may be
// missing), so callers fall back to a heuristic; the budget exists to
// bound enumeration time on graphs whose connected-subgraph count is
// exponential (e.g. large stars and cliques).
func (g *Graph[S]) CsgCmpPairsBudget(budget int) (pairs []CsgCmpPair[S], emitted int, complete bool) {
	if !g.HasHyperedges() {
		return g.dphypPairs(budget)
	}
	family, refs, complete := g.buildableSets(budget)
	if !complete {
		return nil, len(refs), false
	}
	// Stable counting sort by |S1 ∪ S2| straight into the exact-size
	// result: the key range is just [2, N].
	pos := make([]int, g.N+2)
	for _, r := range refs {
		pos[family[r.s1].Len()+family[r.s2].Len()+1]++
	}
	for l := 1; l < len(pos); l++ {
		pos[l] += pos[l-1]
	}
	pairs = make([]CsgCmpPair[S], len(refs))
	for _, r := range refs {
		p := CsgCmpPair[S]{S1: family[r.s1], S2: family[r.s2]}
		l := p.S1.Len() + p.S2.Len()
		pairs[pos[l]] = p
		pos[l]++
	}
	return pairs, len(pairs), true
}

// pairRef is a csg-cmp-pair of the hypergraph closure as the family
// indexes of its two sides, oriented as the pair is: 8 bytes where the
// pair itself takes two sets.
type pairRef struct{ s1, s2 int32 }

// pairsOf spells refs out over family, in their order.
func pairsOf[S bitset.RelSet[S]](family []S, refs []pairRef) []CsgCmpPair[S] {
	pairs := make([]CsgCmpPair[S], len(refs))
	for i, r := range refs {
		pairs[i] = CsgCmpPair[S]{S1: family[r.s1], S2: family[r.s2]}
	}
	return pairs
}

// dphypPairs runs the DPhyp enumeration on a simple graph (on hypergraphs
// the representative/exclusion-set mechanism can both miss pairs and emit
// pairs with non-buildable components, so CsgCmpPairsBudget never comes
// here with one). DPhyp emits every csg-cmp-pair exactly once
// (TestDPhypEmitsEachPairOnce), so nothing is de-duplicated; and it emits
// them in an order of its own, not by level, so it runs twice: a counting
// pass sizes each level |S1 ∪ S2| — and is all that runs when the budget
// cuts the enumeration off — then a placing pass writes every pair
// straight into its level's run of one exact-size slice, in emission order
// within the level.
func (g *Graph[S]) dphypPairs(budget int) ([]CsgCmpPair[S], int, bool) {
	g.ensureAdj() // no hyperedges on this path
	en := pairEnum[S]{g: g, budget: budget, slot: make([]int, g.N+1)}
	en.run()
	if en.stop {
		return nil, en.n, false
	}
	total := 0
	for l, c := range en.slot {
		en.slot[l], total = total, total+c
	}
	en.out, en.n, en.steps = make([]CsgCmpPair[S], total), 0, 0
	en.run()
	return en.out, total, true
}

// pairEnum is one pass of the simple-graph DPhyp enumeration
// (EnumerateCsg/EmitCsg/EnumerateCsgRec/EnumerateCmpRec). A positive budget
// stops it once that many pairs were emitted, with a step cap guarding
// stretches of the subset enumeration that emit nothing.
type pairEnum[S bitset.RelSet[S]] struct {
	g                *Graph[S]
	budget, n, steps int
	stop             bool
	// slot[l] counts the pairs of level l while out is nil, and is the next
	// free index of level l's run in out afterwards.
	slot []int
	out  []CsgCmpPair[S]
}

func (en *pairEnum[S]) emit(s1, s2 S) {
	l := s1.Len() + s2.Len()
	if en.out != nil {
		en.out[en.slot[l]] = CsgCmpPair[S]{S1: s1, S2: s2}
	}
	en.slot[l]++
	if en.n++; en.budget > 0 && en.n >= en.budget {
		en.stop = true
	}
}

func (en *pairEnum[S]) step() bool {
	if en.budget > 0 {
		if en.steps++; en.steps >= en.budget*8 {
			en.stop = true
		}
	}
	return !en.stop
}

// run is EnumerateCsg: seed with every node, descending, then grow.
func (en *pairEnum[S]) run() {
	for i := en.g.N - 1; i >= 0 && !en.stop; i-- {
		s1 := bitset.SingleIn[S](i)
		en.emitCsg(s1, en.g.adj[i])
		en.csgRec(s1, en.g.adj[i], bitset.RangeIn[S](0, i+1))
	}
}

// BuildableSets computes the family of connected sets under the recursive
// DP definition: singletons are connected, and S1 ∪ S2 is connected when
// S1 and S2 are disjoint connected sets linked by an edge. This is exactly
// the family of relation sets a cross-product-free bottom-up plan
// generator can build. The pairs recorded along the way are exactly the
// csg-cmp-pairs.
//
// The worklist combines every newly discovered set against the family
// discovered so far, which makes the enumeration definitionally complete:
// for any valid pair (A, B), whichever of the two is processed later sees
// the other already in the family.
func (g *Graph[S]) BuildableSets() (family []S, pairs []CsgCmpPair[S]) {
	family, refs, _ := g.buildableSets(0)
	return family, pairsOf(family, refs)
}

// buildableSets is BuildableSets with an emission budget (0 = unlimited)
// and the pairs as family indexes; complete=false means the closure was
// aborted mid-way.
//
// Each worklist head s is combined with family[:snapshot] in ascending
// index order, snapshot being the family's length when s's turn begins.
// The indexes that pass — t disjoint from s and linked to it by an edge —
// are found a word at a time instead of by testing every t. A disjoint t
// is linked to s iff it contains the far endpoint v of an edge whose other
// endpoint lies in s and which misses s itself. So with one bitmap per
// relation over family indexes (bit i of bm[x] set iff x ∈ family[i]), the
// indexes to visit are ⋃_v ⋂_{x∈v} bm[x] minus ⋃_{x∈s} bm[x], in the order
// the full scan met them. A pair (s, family[i]) with i before the head was
// already emitted on i's turn iff s was within i's snapshot, which snap
// records, so no pair set is kept.
func (g *Graph[S]) buildableSets(budget int) (family []S, refs []pairRef, complete bool) {
	n := g.N
	// Edge k's left endpoint lists ends[span[2k]:span[2k+1]], its right
	// one ends[span[2k+1]:span[2k+2]].
	ends, span := []int{}, make([]int, 1, 2*len(g.Edges)+1)
	for _, e := range g.Edges {
		ends = appendElems(ends, e.Left)
		span = append(span, len(ends))
		ends = appendElems(ends, e.Right)
		span = append(span, len(ends))
	}
	// A family holds its n singletons and, on conflict-detected graphs of
	// random queries, typically a few times as many sets.
	inFamily := make(map[S]bool, 4*n)
	// bm is block-major: words [b·n, b·n+n) hold bits 64b…64b+63 of every
	// relation's bitmap, so a growing family appends a block.
	var bm []uint64
	add := func(s S) {
		if inFamily[s] {
			return
		}
		inFamily[s] = true
		i := len(family)
		family = append(family, s)
		if i%64 == 0 {
			bm = append(bm, make([]uint64, n)...)
		}
		blk := bm[i/64*n:]
		for rem := s; !rem.IsEmpty(); {
			x := rem.Min()
			rem = rem.Remove(x)
			blk[x] |= 1 << uint(i%64)
		}
	}
	for i := 0; i < n; i++ {
		add(bitset.SingleIn[S](i))
	}
	var snap []int
	var far [][]int
	var elems []int
	for head := 0; head < len(family); head++ {
		s := family[head]
		// Sets added during this pass are combined on their own turn.
		snapshot := len(family)
		snap = append(snap, snapshot)
		far = far[:0]
		for k, e := range g.Edges {
			switch {
			case e.Left.SubsetOf(s) && !e.Right.Intersects(s):
				far = append(far, ends[span[2*k+1]:span[2*k+2]])
			case e.Right.SubsetOf(s) && !e.Left.Intersects(s):
				far = append(far, ends[span[2*k]:span[2*k+1]])
			}
		}
		if len(far) == 0 {
			continue
		}
		elems = appendElems(elems[:0], s)
		for b := 0; b*64 < snapshot; b++ {
			blk := bm[b*n : b*n+n]
			var cand uint64
			for _, v := range far {
				w := ^uint64(0)
				for _, x := range v {
					w &= blk[x]
				}
				cand |= w
			}
			for _, x := range elems {
				cand &^= blk[x]
			}
			if rest := snapshot - b*64; rest < 64 {
				cand &= 1<<uint(rest) - 1
			}
			for ; cand != 0; cand &= cand - 1 {
				i := b*64 + bits.TrailingZeros64(cand)
				if i < head && head < snap[i] {
					continue // emitted on i's turn
				}
				t := family[i]
				r := pairRef{int32(head), int32(i)}
				if s.Min() > t.Min() {
					r.s1, r.s2 = r.s2, r.s1
				}
				refs = append(refs, r)
				if budget > 0 && len(refs) >= budget {
					return family, refs, false
				}
				add(s.Union(t))
			}
		}
	}
	return family, refs, true
}

// appendElems appends the elements of s to dst in ascending order.
func appendElems[S bitset.RelSet[S]](dst []int, s S) []int {
	for rem := s; !rem.IsEmpty(); {
		x := rem.Min()
		rem = rem.Remove(x)
		dst = append(dst, x)
	}
	return dst
}

// csgRec grows the connected set s1 (a1 = adjOf(s1), x ⊇ s1 the exclusion
// set) by subsets of its neighborhood, emitting complements for every grown
// set. On a simple graph a connected set united with any subset of its
// neighborhood is connected by construction — no grown set needs
// re-validating.
func (en *pairEnum[S]) csgRec(s1, a1, x S) {
	reps := a1.Diff(x)
	if en.stop || reps.IsEmpty() {
		return
	}
	for sub := reps.MinSet(); !sub.IsEmpty() && en.step(); sub = reps.NextSubset(sub) {
		en.emitCsg(s1.Union(sub), a1.Union(en.g.adjOf(sub)))
	}
	x = x.Union(reps)
	for sub := reps.MinSet(); !sub.IsEmpty() && en.step(); sub = reps.NextSubset(sub) {
		en.csgRec(s1.Union(sub), a1.Union(en.g.adjOf(sub)), x)
	}
}

// emitCsg enumerates the complements of the connected set s1 (a1 =
// adjOf(s1)): they seed from single neighbors, visited in descending order,
// each excluding the lower representatives so every complement grows from
// exactly one seed. A seed is a neighbor of s1 and a complement only ever
// grows around its seed, outside x ⊇ s1, so every (s1, complement) is
// disjoint and connected by an edge without being tested for either.
func (en *pairEnum[S]) emitCsg(s1, a1 S) {
	x := s1.Union(bitset.RangeIn[S](0, s1.Min()+1))
	nb := a1.Diff(x)
	for rem := nb; !rem.IsEmpty() && !en.stop; {
		v := rem.Max()
		rem = rem.Remove(v)
		s2 := bitset.SingleIn[S](v)
		en.emit(s1, s2)
		en.cmpRec(s1, s2, en.g.adj[v], x.Union(nb.Intersect(bitset.RangeIn[S](0, v+1))))
	}
}

// cmpRec grows the complement s2 (a2 = adjOf(s2)) outside the exclusion set
// x ⊇ s1 ∪ s2.
func (en *pairEnum[S]) cmpRec(s1, s2, a2, x S) {
	reps := a2.Diff(x)
	if en.stop || reps.IsEmpty() {
		return
	}
	for sub := reps.MinSet(); !sub.IsEmpty() && en.step(); sub = reps.NextSubset(sub) {
		en.emit(s1, s2.Union(sub))
	}
	x = x.Union(reps)
	for sub := reps.MinSet(); !sub.IsEmpty() && en.step(); sub = reps.NextSubset(sub) {
		en.cmpRec(s1, s2.Union(sub), a2.Union(en.g.adjOf(sub)), x)
	}
}

// Buildable reports whether S is connected under the recursive DP
// definition, computed top-down with memoization. Exponential in |S| —
// intended for tests and small diagnostics; the production path uses
// BuildableSets.
func (g *Graph[S]) Buildable(s S) bool {
	return g.buildableMemo(s, map[S]bool{})
}

func (g *Graph[S]) buildableMemo(s S, memo map[S]bool) bool {
	if s.IsSingleton() {
		return true
	}
	if s.IsEmpty() {
		return false
	}
	if v, ok := memo[s]; ok {
		return v
	}
	memo[s] = false // guard against re-entry
	result := false
	rest := s.Remove(s.Min())
	rest.SubsetsAsc(func(sub S) bool {
		s2 := sub
		s1 := s.Diff(s2)
		if s1.IsEmpty() {
			return true
		}
		if g.ConnectsSets(s1, s2) >= 0 && g.buildableMemo(s1, memo) && g.buildableMemo(s2, memo) {
			result = true
			return false
		}
		return true
	})
	memo[s] = result
	return result
}

// CountCsgCmpPairsBrute counts csg-cmp-pairs by brute force over all
// subsets using the recursive connectedness definition; used to validate
// the enumerators in tests. Exponential — callers keep N small.
func (g *Graph[S]) CountCsgCmpPairsBrute() int {
	count := 0
	memo := map[S]bool{}
	all := g.All()
	all.SubsetsAsc(func(s S) bool {
		if s.IsSingleton() {
			return true
		}
		s.SubsetsAsc(func(s1 S) bool {
			s2 := s.Diff(s1)
			if s2.IsEmpty() || s1.Min() > s2.Min() {
				return true
			}
			if g.ConnectsSets(s1, s2) >= 0 && g.buildableMemo(s1, memo) && g.buildableMemo(s2, memo) {
				count++
			}
			return true
		})
		return true
	})
	return count
}
