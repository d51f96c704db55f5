package hypergraph

import (
	"math/rand"
	"testing"

	"eagg/internal/bitset"
)

// genLaminarTES builds a hypergraph the way the conflict detector does:
// start from a random binary operator tree over n relations; each internal
// node contributes one hyperedge whose endpoints are supersets of the
// original predicate's two relations, confined to the node's left and
// right subtree leaf sets (like TES extensions).
func genLaminarTES(rng *rand.Rand, n int) *Graph[bitset.Set64] {
	g := New[bitset.Set64](n)
	// Random binary tree shape: repeatedly merge two random forests.
	type node struct{ leaves bitset.Set64 }
	forest := make([]node, n)
	for i := range forest {
		forest[i] = node{leaves: bitset.Single64(i)}
	}
	for len(forest) > 1 {
		i := rng.Intn(len(forest))
		j := rng.Intn(len(forest) - 1)
		if j >= i {
			j++
		}
		l, r := forest[i], forest[j]
		// The operator's own predicate links one leaf of each subtree;
		// TES extension adds random further leaves from the same side.
		randomSuperset := func(base, span bitset.Set64) bitset.Set64 {
			s := base
			span.ForEach(func(e int) {
				if rng.Intn(3) == 0 {
					s = s.Add(e)
				}
			})
			return s
		}
		lAnchor := bitset.Single64(l.leaves.Elems()[rng.Intn(l.leaves.Len())])
		rAnchor := bitset.Single64(r.leaves.Elems()[rng.Intn(r.leaves.Len())])
		g.AddEdge(randomSuperset(lAnchor, l.leaves), randomSuperset(rAnchor, r.leaves), len(g.Edges))
		merged := node{leaves: l.leaves.Union(r.leaves)}
		if i > j {
			i, j = j, i
		}
		forest[j] = forest[len(forest)-1]
		forest = forest[:len(forest)-1]
		forest[i] = merged
	}
	return g
}

// TestLaminarCsgCmpPairsMatchBrute verifies the production enumeration
// (exact fixpoint, since these graphs carry hyperedges) against the
// independent recursive-definition brute force on conflict-detector-shaped
// (laminar TES) hypergraphs.
func TestLaminarCsgCmpPairsMatchBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 400; trial++ {
		n := 3 + rng.Intn(9)
		g := genLaminarTES(rng, n)
		if got, want := len(g.CsgCmpPairs()), g.CountCsgCmpPairsBrute(); got != want {
			t.Fatalf("trial %d (n=%d): enumerated %d pairs, brute force %d", trial, n, got, want)
		}
	}
}

// TestBuildableSetsMatchesBrute cross-checks the fixpoint family against
// the independent recursive-definition implementation.
func TestBuildableSetsMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 150; trial++ {
		n := 3 + rng.Intn(5)
		g := genLaminarTES(rng, n)
		family, pairs := g.BuildableSets()
		inFamily := map[uint64]bool{}
		for _, s := range family {
			inFamily[uint64(s)] = true
		}
		g.All().SubsetsAsc(func(s bitset.Set64) bool {
			if g.Buildable(s) != inFamily[uint64(s)] {
				t.Fatalf("trial %d: buildability of %v disagrees (recursive %v, fixpoint %v)",
					trial, s, g.Buildable(s), inFamily[uint64(s)])
			}
			return true
		})
		if got, want := len(pairs), g.CountCsgCmpPairsBrute(); got != want {
			t.Fatalf("trial %d: fixpoint %d pairs, brute %d", trial, got, want)
		}
	}
}
