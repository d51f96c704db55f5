package hypergraph

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"eagg/internal/bitset"
)

func chain(n int) *Graph[bitset.Set64] {
	g := New[bitset.Set64](n)
	for i := 0; i+1 < n; i++ {
		g.AddSimpleEdge(i, i+1, i)
	}
	return g
}

func cycle(n int) *Graph[bitset.Set64] {
	g := chain(n)
	g.AddSimpleEdge(n-1, 0, n-1)
	return g
}

func star(n int) *Graph[bitset.Set64] {
	g := New[bitset.Set64](n)
	for i := 1; i < n; i++ {
		g.AddSimpleEdge(0, i, i-1)
	}
	return g
}

func clique(n int) *Graph[bitset.Set64] {
	g := New[bitset.Set64](n)
	e := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddSimpleEdge(i, j, e)
			e++
		}
	}
	return g
}

func TestConnectsSets(t *testing.T) {
	g := New[bitset.Set64](4)
	g.AddEdge(bitset.New64(0, 1), bitset.New64(2), 7)
	if g.ConnectsSets(bitset.New64(0, 1), bitset.New64(2, 3)) < 0 {
		t.Error("edge with u ⊆ S1, v ⊆ S2 must connect")
	}
	if g.ConnectsSets(bitset.New64(0), bitset.New64(2, 3)) >= 0 {
		t.Error("partial hypernode must not connect")
	}
	if g.ConnectsSets(bitset.New64(2, 3), bitset.New64(0, 1)) < 0 {
		t.Error("ConnectsSets must be symmetric")
	}
}

// Closed-form csg-cmp-pair counts for chains: (n³−n)/6.
func TestChainCcpCount(t *testing.T) {
	for n := 2; n <= 10; n++ {
		want := (n*n*n - n) / 6
		got := len(chain(n).CsgCmpPairs())
		if got != want {
			t.Errorf("chain(%d): %d ccps, want %d", n, got, want)
		}
	}
}

// Closed-form csg-cmp-pair counts for cliques: (3ⁿ − 2ⁿ⁺¹ + 1)/2.
func TestCliqueCcpCount(t *testing.T) {
	pow := func(b, e int) int {
		out := 1
		for i := 0; i < e; i++ {
			out *= b
		}
		return out
	}
	for n := 2; n <= 8; n++ {
		want := (pow(3, n) - pow(2, n+1) + 1) / 2
		got := len(clique(n).CsgCmpPairs())
		if got != want {
			t.Errorf("clique(%d): %d ccps, want %d", n, got, want)
		}
	}
}

// Closed-form csg-cmp-pair counts for stars: (n−1)·2^(n−2).
func TestStarCcpCount(t *testing.T) {
	for n := 2; n <= 10; n++ {
		want := (n - 1) << uint(n-2)
		got := len(star(n).CsgCmpPairs())
		if got != want {
			t.Errorf("star(%d): %d ccps, want %d", n, got, want)
		}
	}
}

func TestCycleAgainstBrute(t *testing.T) {
	for n := 3; n <= 8; n++ {
		g := cycle(n)
		if got, want := len(g.CsgCmpPairs()), g.CountCsgCmpPairsBrute(); got != want {
			t.Errorf("cycle(%d): %d ccps, brute force %d", n, got, want)
		}
	}
}

// TestEnumerationProperties checks every emitted pair satisfies Def. 3 and
// that the stream is duplicate-free and size-ordered.
func TestEnumerationProperties(t *testing.T) {
	g := cycle(7)
	pairs := g.CsgCmpPairs()
	seen := map[[2]uint64]bool{}
	lastSize := 0
	for _, p := range pairs {
		if p.S1.Intersects(p.S2) {
			t.Fatalf("overlapping pair %v %v", p.S1, p.S2)
		}
		if !g.Buildable(p.S1) || !g.Buildable(p.S2) {
			t.Fatalf("disconnected pair %v %v", p.S1, p.S2)
		}
		if g.ConnectsSets(p.S1, p.S2) < 0 {
			t.Fatalf("unconnected pair %v %v", p.S1, p.S2)
		}
		if p.S1.Min() > p.S2.Min() {
			t.Fatalf("pair not canonical: %v %v", p.S1, p.S2)
		}
		key := [2]uint64{uint64(p.S1), uint64(p.S2)}
		if seen[key] {
			t.Fatalf("duplicate pair %v %v", p.S1, p.S2)
		}
		seen[key] = true
		size := p.S1.Union(p.S2).Len()
		if size < lastSize {
			t.Fatalf("size order violated at %v %v", p.S1, p.S2)
		}
		lastSize = size
	}
}

// TestRandomGraphsAgainstBrute fuzz-tests the enumerator against the brute
// force counter on random connected graphs, with and without hyperedges.
func TestRandomGraphsAgainstBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 400; trial++ {
		n := 3 + rng.Intn(5)
		g := New[bitset.Set64](n)
		// Random spanning tree keeps the graph connected.
		for i := 1; i < n; i++ {
			g.AddSimpleEdge(rng.Intn(i), i, len(g.Edges))
		}
		// Extra random simple edges.
		for k := rng.Intn(3); k > 0; k-- {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddEdge(bitset.Single64(min(u, v)), bitset.Single64(max(u, v)), len(g.Edges))
			}
		}
		// Occasionally a hyperedge between two disjoint sets.
		if rng.Intn(2) == 0 && n >= 4 {
			var left, right bitset.Set64
			for i := 0; i < n; i++ {
				switch rng.Intn(3) {
				case 0:
					left = left.Add(i)
				case 1:
					right = right.Add(i)
				}
			}
			if !left.IsEmpty() && !right.IsEmpty() && !left.Intersects(right) {
				g.AddEdge(left, right, len(g.Edges))
			}
		}
		got := len(g.CsgCmpPairs())
		want := g.CountCsgCmpPairsBrute()
		if got != want {
			t.Fatalf("trial %d (n=%d, %d edges): DPhyp found %d ccps, brute force %d",
				trial, n, len(g.Edges), got, want)
		}
	}
}

func TestTreeCcpEqualsBrute(t *testing.T) {
	// Random trees are exactly the paper's workload shape.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(7)
		g := New[bitset.Set64](n)
		for i := 1; i < n; i++ {
			g.AddSimpleEdge(rng.Intn(i), i, i)
		}
		if got, want := len(g.CsgCmpPairs()), g.CountCsgCmpPairsBrute(); got != want {
			t.Fatalf("tree trial %d: %d vs brute %d", trial, got, want)
		}
	}
}

func TestAddEdgePanics(t *testing.T) {
	g := New[bitset.Set64](3)
	for _, c := range []struct{ l, r bitset.Set64 }{
		{bitset.Empty64, bitset.New64(1)},
		{bitset.New64(0), bitset.Empty64},
		{bitset.New64(0, 1), bitset.New64(1, 2)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddEdge(%v,%v) should panic", c.l, c.r)
				}
			}()
			g.AddEdge(c.l, c.r, 0)
		}()
	}
}

func TestConnectingEdges(t *testing.T) {
	g := New[bitset.Set64](3)
	g.AddSimpleEdge(0, 1, 10)
	g.AddSimpleEdge(1, 2, 11)
	g.AddSimpleEdge(0, 2, 12)
	s1, s2 := bitset.New64(0, 1), bitset.New64(2)
	got := g.Connecting(nil, g.Touch(nil, s1), g.Touch(nil, s2), s1, s2)
	if len(got) != 2 {
		t.Fatalf("Connecting = %v", got)
	}
}

// scanConnecting is what the incident-edge index replaces: the indices of
// the edges connecting S1 and S2, found by walking the whole edge list.
func scanConnecting[S bitset.RelSet[S]](g *Graph[S], s1, s2 S) []int {
	var out []int
	for i, e := range g.Edges {
		if (e.Left.SubsetOf(s1) && e.Right.SubsetOf(s2)) ||
			(e.Left.SubsetOf(s2) && e.Right.SubsetOf(s1)) {
			out = append(out, i)
		}
	}
	return out
}

// widen rebuilds a Set64 graph on the wide representation, shifted up
// by 70 nodes so that sets and — past 64 edges — touch sets span words; up
// maps a set of the graph to its image.
func widen(g *Graph[bitset.Set64]) (w *Graph[bitset.VSet], up func(bitset.Set64) bitset.VSet) {
	const shift = 70
	up = func(s bitset.Set64) bitset.VSet {
		var w bitset.VSet
		s.ForEach(func(e int) { w = w.Add(e + shift) })
		return w
	}
	w = New[bitset.VSet](g.N + shift)
	for i := 0; i+1 < shift; i++ {
		w.AddSimpleEdge(i, i+1, 0) // a chain below the graph: 69 more edges
	}
	for _, e := range g.Edges {
		w.AddEdge(up(e.Left), up(e.Right), e.Payload)
	}
	return w, up
}

// connectingMatchesScan checks Connecting over touch sets against the full
// scan — same edges, same (ascending) order — on every csg-cmp-pair of the
// graph and on random disjoint set pairs, most of them unconnected.
func connectingMatchesScan[S bitset.RelSet[S]](t *testing.T, name string, g *Graph[S], rng *rand.Rand, pairs []CsgCmpPair[S]) int {
	t.Helper()
	for trial := 0; trial < 200; trial++ {
		var p CsgCmpPair[S]
		for i := 0; i < g.N; i++ {
			switch rng.Intn(4) {
			case 0:
				p.S1 = p.S1.Add(i)
			case 1:
				p.S2 = p.S2.Add(i)
			}
		}
		pairs = append(pairs, p)
	}
	var buf []int
	for _, p := range pairs {
		want := scanConnecting(g, p.S1, p.S2)
		buf = g.Connecting(buf[:0], g.Touch(nil, p.S1), g.Touch(nil, p.S2), p.S1, p.S2)
		mirror := g.Connecting(nil, g.Touch(nil, p.S2), g.Touch(nil, p.S1), p.S2, p.S1)
		if fmt.Sprint(buf) != fmt.Sprint(want) || fmt.Sprint(mirror) != fmt.Sprint(want) {
			t.Fatalf("%s (%v, %v): indexed lookup finds edges %v, the scan %v", name, p.S1, p.S2, buf, want)
		}
	}
	return len(pairs)
}

// TestConnectingEdgesMatchScan: the per-pair edge lookup the DP uses —
// touch(S1) ∩ touch(S2), then the endpoint test — returns exactly the edges
// a walk over the whole edge list returns, in the same order, on chains,
// stars, cliques, cycles, cyclic random graphs and TES-style hypergraphs,
// on Set64 and on VSet.
func TestConnectingEdgesMatchScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	graphs := map[string]*Graph[bitset.Set64]{
		"chain12": chain(12), "star12": star(12), "clique7": clique(7), "cycle9": cycle(9),
	}
	for name, g := range simpleGraphs[bitset.Set64]() {
		if strings.HasPrefix(name, "random") {
			graphs[name] = g
		}
	}
	for i := 0; i < 20; i++ {
		graphs[fmt.Sprintf("laminar%d", i)] = genLaminarTES(rng, 4+i%6)
	}
	checked := 0
	for name, g := range graphs {
		if g.N > 10 && strings.HasPrefix(name, "random") {
			continue // thousands of pairs each; the smaller ones cover the shape
		}
		pairs := g.CsgCmpPairs()
		checked += connectingMatchesScan(t, name, g, rng, pairs)
		w, up := widen(g)
		var wide []CsgCmpPair[bitset.VSet]
		for _, p := range pairs {
			wide = append(wide, CsgCmpPair[bitset.VSet]{S1: up(p.S1), S2: up(p.S2)})
		}
		checked += connectingMatchesScan(t, name+"/wide", w, rng, wide)
	}
	t.Logf("%d set pairs checked", checked)
}
