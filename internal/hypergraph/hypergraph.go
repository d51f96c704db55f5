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
// relations, bitset.Wide the multi-word path beyond. All enumeration
// order is defined by S's ascending-subset order, which both
// representations share, so the emitted pair sequence is independent of
// the representation.
package hypergraph

import (
	"fmt"

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
	// subset tests of IsConnected and of a neighborhood — four generic
	// method calls per edge per round — into a handful of word-wide
	// set operations per node. Built single-threaded at the start of
	// the DPhyp enumeration, invalidated by AddEdge.
	adj []S
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
	g.adj = nil
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

// ConnectingEdges returns the indices of all edges connecting S1 and S2.
func (g *Graph[S]) ConnectingEdges(s1, s2 S) []int {
	var out []int
	for i, e := range g.Edges {
		if (e.Left.SubsetOf(s1) && e.Right.SubsetOf(s2)) ||
			(e.Left.SubsetOf(s2) && e.Right.SubsetOf(s1)) {
			out = append(out, i)
		}
	}
	return out
}

// IsConnected reports whether S induces a connected subgraph under the
// reachability notion: starting from min(S), grow by edges whose one
// endpoint is inside the grown set and whose other endpoint lies fully
// inside S. For simple graphs this coincides with the DP notion of
// connectedness (Def. 3 / the recursive definition of the DPhyp paper).
// For hypergraphs it is an approximation used only inside the DPhyp fast
// path; the definitional notion is Buildable/BuildableSets below.
func (g *Graph[S]) IsConnected(s S) bool {
	if s.IsEmpty() {
		return false
	}
	if s.IsSingleton() {
		return true
	}
	if g.adj != nil {
		// Simple-graph BFS over the precomputed neighbor masks: one
		// Union per frontier node instead of four subset tests per edge
		// per growth round.
		reach := s.MinSet()
		frontier := reach
		for {
			var nb S
			for rem := frontier; !rem.IsEmpty(); {
				i := rem.Min()
				rem = rem.Remove(i)
				nb = nb.Union(g.adj[i])
			}
			frontier = nb.Intersect(s).Diff(reach)
			if frontier.IsEmpty() {
				return reach == s
			}
			reach = reach.Union(frontier)
		}
	}
	reach := s.MinSet()
	for changed := true; changed; {
		changed = false
		for _, e := range g.Edges {
			if e.Left.SubsetOf(reach) && e.Right.SubsetOf(s) && !e.Right.SubsetOf(reach) {
				reach = reach.Union(e.Right)
				changed = true
			}
			if e.Right.SubsetOf(reach) && e.Left.SubsetOf(s) && !e.Left.SubsetOf(reach) {
				reach = reach.Union(e.Left)
				changed = true
			}
		}
	}
	return reach == s
}

// neighborMask computes 𝒩(S, X) on a simple graph (g.adj non-nil): every
// neighbor is a single node, so the whole neighborhood is one mask union
// over the members of S. The enumeration recursion consumes the mask
// directly — representatives are the mask itself and growing by a subset
// of it is a plain union.
func (g *Graph[S]) neighborMask(s, x S) S {
	var nb S
	for rem := s; !rem.IsEmpty(); {
		i := rem.Min()
		rem = rem.Remove(i)
		nb = nb.Union(g.adj[i])
	}
	return nb.Diff(s).Diff(x)
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
// we switch to a provably complete closure-based enumeration: connected
// sets are exactly the closure of singletons under "absorb the remainder
// of an edge endpoint whose other endpoint is contained", and complements
// are enumerated the same way within the exterior of each S1.
func (g *Graph[S]) CsgCmpPairs() []CsgCmpPair[S] {
	pairs, _ := g.CsgCmpPairsBudget(0)
	return pairs
}

// CsgCmpPairsBudget is CsgCmpPairs with an emission budget: once budget
// pairs have been emitted (budget 0 = unlimited) the enumeration aborts
// deterministically and returns complete=false. The partial pair list is
// returned unsorted — a DP driver cannot use it (sub-pairs may be
// missing), so callers fall back to a heuristic; the budget exists to
// bound enumeration time on graphs whose connected-subgraph count is
// exponential (e.g. large stars and cliques).
func (g *Graph[S]) CsgCmpPairsBudget(budget int) ([]CsgCmpPair[S], bool) {
	var pairs []CsgCmpPair[S]
	complete := true
	if g.HasHyperedges() {
		_, pairs, complete = g.buildableSets(budget)
	} else {
		pairs, complete = g.dphypPairs(budget)
	}
	if !complete {
		return pairs, false
	}
	// Stable counting sort by |S1 ∪ S2|: the key range is just [2, N], and
	// on large graphs the pair list dominates the optimizer's footprint —
	// O(n) with one Union per pair beats sort.SliceStable's reflection-
	// driven swapping (which showed up as a top-ten profile entry).
	lens := make([]int, len(pairs))
	pos := make([]int, g.N+2)
	for i, p := range pairs {
		l := p.S1.Union(p.S2).Len()
		lens[i] = l
		pos[l+1]++
	}
	for l := 1; l < len(pos); l++ {
		pos[l] += pos[l-1]
	}
	sorted := make([]CsgCmpPair[S], len(pairs))
	for i, p := range pairs {
		sorted[pos[lens[i]]] = p
		pos[lens[i]]++
	}
	return sorted, true
}

// seenHits counts the pairs dphypPairs' seen map suppressed.
var seenHits int

// dphypPairs runs the DPhyp enumeration on a simple graph. (On
// hypergraphs the representative/exclusion-set mechanism can both miss
// pairs and emit pairs with non-buildable components, so CsgCmpPairs
// never comes here with one.) A positive budget aborts (complete=false) once that many
// pairs were emitted, with a step cap guarding stretches of the subset
// enumeration that emit nothing.
func (g *Graph[S]) dphypPairs(budget int) ([]CsgCmpPair[S], bool) {
	g.ensureAdj() // no hyperedges on this path; see CsgCmpPairsBudget
	var pairs []CsgCmpPair[S]
	seen := map[[2]S]bool{}
	stop := false
	steps := 0
	emit := func(s1, s2 S) {
		key := [2]S{s1, s2}
		if seen[key] {
			seenHits++ // TestDPhypEmitsEachPairOnce: never, so seen can go
			return
		}
		seen[key] = true
		pairs = append(pairs, CsgCmpPair[S]{S1: s1, S2: s2})
		if budget > 0 && len(pairs) >= budget {
			stop = true
		}
	}
	step := func() bool {
		if budget > 0 {
			steps++
			if steps >= budget*8 {
				stop = true
			}
		}
		return !stop
	}
	// EnumerateCsg: seed with every node, descending, then grow.
	for i := g.N - 1; i >= 0 && !stop; i-- {
		s1 := bitset.SingleIn[S](i)
		below := bitset.RangeIn[S](0, i+1)
		g.emitCsg(s1, emit, &stop, step)
		g.enumerateCsgRec(s1, below, emit, &stop, step)
	}
	return pairs, !stop
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
	family, pairs, _ = g.buildableSets(0)
	return family, pairs
}

// buildableSets is BuildableSets with an emission budget (0 = unlimited);
// complete=false means the closure was aborted mid-way.
func (g *Graph[S]) buildableSets(budget int) (family []S, pairs []CsgCmpPair[S], complete bool) {
	inFamily := map[S]bool{}
	seenPair := map[[2]S]bool{}
	var queue []S
	add := func(s S) {
		if !inFamily[s] {
			inFamily[s] = true
			family = append(family, s)
			queue = append(queue, s)
		}
	}
	for i := 0; i < g.N; i++ {
		add(bitset.SingleIn[S](i))
	}
	for head := 0; head < len(queue); head++ {
		s := queue[head]
		// Snapshot length: sets added during this pass are processed on
		// their own turn.
		snapshot := len(family)
		for i := 0; i < snapshot; i++ {
			t := family[i]
			if s.Intersects(t) || g.ConnectsSets(s, t) < 0 {
				continue
			}
			a, b := s, t
			if a.Min() > b.Min() {
				a, b = b, a
			}
			key := [2]S{a, b}
			if !seenPair[key] {
				seenPair[key] = true
				pairs = append(pairs, CsgCmpPair[S]{S1: a, S2: b})
				if budget > 0 && len(pairs) >= budget {
					return family, pairs, false
				}
			}
			add(s.Union(t))
		}
	}
	return family, pairs, true
}

// enumerateCsgRec grows the connected set s1 by subsets of its
// neighborhood, emitting complements for every grown set. The DPhyp
// recursion only ever runs on simple graphs (see CsgCmpPairsBudget), where
// a connected set united with any subset of its neighborhood is connected
// by construction — no grown set needs re-validating with IsConnected.
func (g *Graph[S]) enumerateCsgRec(s1, x S, emit func(a, b S), stop *bool, step func() bool) {
	if *stop {
		return
	}
	reps := g.neighborMask(s1, x)
	if reps.IsEmpty() {
		return
	}
	reps.SubsetsAsc(func(sub S) bool {
		if !step() {
			return false
		}
		g.emitCsg(s1.Union(sub), emit, stop, step)
		return !*stop
	})
	newX := x.Union(reps)
	reps.SubsetsAsc(func(sub S) bool {
		if !step() {
			return false
		}
		g.enumerateCsgRec(s1.Union(sub), newX, emit, stop, step)
		return !*stop
	})
}

// emitCsg enumerates the complements of the connected set s1: they seed
// from single neighbors, visited in descending order, each excluding the
// lower representatives so every complement grows from exactly one seed.
func (g *Graph[S]) emitCsg(s1 S, emit func(a, b S), stop *bool, step func() bool) {
	if *stop {
		return
	}
	x := s1.Union(bitset.RangeIn[S](0, s1.Min()+1))
	nb := g.neighborMask(s1, x)
	for rem := nb; !rem.IsEmpty() && !*stop; {
		v := rem.Max()
		rem = rem.Remove(v)
		s2 := bitset.SingleIn[S](v)
		if g.ConnectsSets(s1, s2) >= 0 {
			emit(s1, s2)
		}
		lower := nb.Intersect(bitset.RangeIn[S](0, v+1))
		g.enumerateCmpRec(s1, s2, x.Union(lower), emit, stop, step)
	}
}

// enumerateCmpRec grows the complement s2 within the exclusion set x.
func (g *Graph[S]) enumerateCmpRec(s1, s2, x S, emit func(a, b S), stop *bool, step func() bool) {
	if *stop {
		return
	}
	reps := g.neighborMask(s2, x)
	if reps.IsEmpty() {
		return
	}
	reps.SubsetsAsc(func(sub S) bool {
		if !step() {
			return false
		}
		grown := s2.Union(sub)
		if !grown.Intersects(s1) && g.ConnectsSets(s1, grown) >= 0 {
			emit(s1, grown)
		}
		return !*stop
	})
	newX := x.Union(reps)
	reps.SubsetsAsc(func(sub S) bool {
		if !step() {
			return false
		}
		if grown := s2.Union(sub); !grown.Intersects(s1) {
			g.enumerateCmpRec(s1, grown, newX, emit, stop, step)
		}
		return !*stop
	})
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
