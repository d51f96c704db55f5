package hypergraph

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"eagg/internal/bitset"
)

// simpleGraphs builds the simple-graph population of the sequence test in
// the representation S: chains, stars, cycles and cliques up to 12 nodes
// and seeded random connected graphs, each under a stable name.
func simpleGraphs[S bitset.RelSet[S]]() map[string]*Graph[S] {
	out := map[string]*Graph[S]{}
	for n := 2; n <= 12; n++ {
		ch, st, cy, cl := New[S](n), New[S](n), New[S](n), New[S](n)
		for i := 0; i+1 < n; i++ {
			ch.AddSimpleEdge(i, i+1, i)
			cy.AddSimpleEdge(i, i+1, i)
			st.AddSimpleEdge(0, i+1, i)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				cl.AddSimpleEdge(i, j, len(cl.Edges))
			}
		}
		out[fmt.Sprintf("chain%d", n)] = ch
		out[fmt.Sprintf("star%d", n)] = st
		if n >= 3 {
			cy.AddSimpleEdge(n-1, 0, n-1)
			out[fmt.Sprintf("cycle%d", n)] = cy
		}
		if n <= 10 {
			out[fmt.Sprintf("clique%d", n)] = cl
		}
	}
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 24; trial++ {
		n := 4 + trial%9
		g := New[S](n)
		for i := 1; i < n; i++ {
			g.AddSimpleEdge(rng.Intn(i), i, len(g.Edges))
		}
		for k := rng.Intn(n); k > 0; k-- {
			if u, v := rng.Intn(n), rng.Intn(n); u != v {
				g.AddSimpleEdge(min(u, v), max(u, v), len(g.Edges))
			}
		}
		out[fmt.Sprintf("random%d", trial)] = g
	}
	return out
}

// sequenceHash digests the emitted pair sequence in a form independent of
// the set representation.
func sequenceHash[S bitset.RelSet[S]](g *Graph[S]) string {
	h := fnv.New64a()
	pairs := g.CsgCmpPairs()
	for _, p := range pairs {
		fmt.Fprint(h, p.S1.Elems(), p.S2.Elems())
	}
	return fmt.Sprintf("%d:%016x", len(pairs), h.Sum64())
}

// TestSimpleGraphPairSequence pins the csg-cmp-pair sequence — order
// included, since the DP's tie-breaking follows it — on simple graphs to
// the one emitted while every grown set was still re-validated with
// IsConnected (wantSequence was generated at that commit), and Set64 and
// VSet to each other.
func TestSimpleGraphPairSequence(t *testing.T) {
	narrow, wide := simpleGraphs[bitset.Set64](), simpleGraphs[bitset.VSet]()
	if len(narrow) != len(wantSequence) {
		t.Errorf("population has %d graphs, wantSequence %d", len(narrow), len(wantSequence))
	}
	for name, g := range narrow {
		got := sequenceHash(g)
		if got != wantSequence[name] {
			t.Errorf("%q: %q, // Set64 sequence changed (want %s)", name, got, wantSequence[name])
		}
		if w := sequenceHash(wide[name]); w != got {
			t.Errorf("%s: VSet emits %s, Set64 %s", name, w, got)
		}
	}
}

var wantSequence = map[string]string{
	"chain2":   "1:4430b94885da927a",
	"chain3":   "4:b56cfe123ace19db",
	"chain4":   "10:7a6c9c562c25d9ac",
	"chain5":   "20:2471b53f0c9988f5",
	"chain6":   "35:9a136f389c02dbdf",
	"chain7":   "56:8087bb8c039111a5",
	"chain8":   "84:2671b1fed9f7a685",
	"chain9":   "120:c7828ce5e8b5a7d5",
	"chain10":  "165:91d6913ae5ab1ffa",
	"chain11":  "220:0d2ee91705a4edec",
	"chain12":  "286:3b9b11b4faecaf1b",
	"clique2":  "1:4430b94885da927a",
	"clique3":  "6:c84c829306fe417c",
	"clique4":  "25:f85a1ea3fef4230d",
	"clique5":  "90:f222a7b67a1f0895",
	"clique6":  "301:7f0cccd7f515d3d2",
	"clique7":  "966:ea5c667ea0f337a4",
	"clique8":  "3025:941a603f7f89e2e5",
	"clique9":  "9330:76bb9e672d6f9b7f",
	"clique10": "28501:7143e033ad56e876",
	"cycle3":   "6:c84c829306fe417c",
	"cycle4":   "18:e398bce7bd325ce1",
	"cycle5":   "40:faa35a68cf3663fb",
	"cycle6":   "75:89665c7337601d28",
	"cycle7":   "126:5a1678099cff4ed8",
	"cycle8":   "196:c4cd1e8742d533c9",
	"cycle9":   "288:ca0a4f261aa3f619",
	"cycle10":  "405:255b578fbb01b5c2",
	"cycle11":  "550:e65654b245b42f9f",
	"cycle12":  "726:faeab1027561341d",
	"random0":  "12:9cc4c82a2bad4819",
	"random1":  "59:7be26b150b920168",
	"random2":  "72:dd826f43410b5ad8",
	"random3":  "296:f04b728fb581a904",
	"random4":  "525:d5219ad07f68a244",
	"random5":  "450:ec2993b7b0a968e3",
	"random6":  "2387:9badbce69f2e117a",
	"random7":  "1276:eedbca3f2ae81d88",
	"random8":  "16136:acebd13c94e6a3fc",
	"random9":  "18:589e457925c53067",
	"random10": "37:18fd5b71cb6a08f1",
	"random11": "101:60e4c804ec7e8810",
	"random12": "77:7625c3ba0e7db689",
	"random13": "659:b2c4504191341dbf",
	"random14": "324:45ac5c47112c3db0",
	"random15": "2989:f72b453b532b595b",
	"random16": "1608:2d3c807e22c9b7d6",
	"random17": "5527:d188f2d81767607a",
	"random18": "12:2d189a02afff69c9",
	"random19": "25:851a6928f9458231",
	"random20": "62:3e231c3814634676",
	"random21": "208:78fe1e5e96827885",
	"random22": "192:705e3f5c1555313d",
	"random23": "1611:899bfd3a7f5723ab",
	"star2":    "1:4430b94885da927a",
	"star3":    "4:5b9cc1fa3547bc14",
	"star4":    "12:2d189a02afff69c9",
	"star5":    "32:0d541d93e4b84cfd",
	"star6":    "80:31c9461b698ea6cd",
	"star7":    "192:f70479ab0630d1fd",
	"star8":    "448:97e896ff232c1f95",
	"star9":    "1024:d5e372d51bdca565",
	"star10":   "2304:da8516c54e6ad075",
	"star11":   "5120:ff8bcf7881c3dad9",
	"star12":   "11264:8c97a2ecdc132c47",
}

// oncePopulation is the population of TestDPhypEmitsEachPairOnce: the
// sequence test's graphs and 200 seeded random connected graphs of 3…12
// nodes, sparse to dense.
func oncePopulation() map[string]*Graph[bitset.Set64] {
	out := simpleGraphs[bitset.Set64]()
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		n := 3 + trial%10
		g := New[bitset.Set64](n)
		for i := 1; i < n; i++ {
			g.AddSimpleEdge(rng.Intn(i), i, len(g.Edges))
		}
		for k := rng.Intn(2 * n); k > 0; k-- {
			if u, v := rng.Intn(n), rng.Intn(n); u != v {
				g.AddSimpleEdge(min(u, v), max(u, v), len(g.Edges))
			}
		}
		out[fmt.Sprintf("once%d", trial)] = g
	}
	return out
}

// emitsOnce fails the test if g's enumeration emits a csg-cmp-pair twice
// (in either orientation) or one not oriented min(S1) < min(S2), and
// returns the number of pairs. The set that would see a repeat is kept
// here, not in the enumerator.
func emitsOnce[S bitset.RelSet[S]](t *testing.T, name string, g *Graph[S]) int {
	t.Helper()
	seen := map[CsgCmpPair[S]]bool{}
	for _, p := range g.CsgCmpPairs() {
		if seen[p] || seen[CsgCmpPair[S]{S1: p.S2, S2: p.S1}] {
			t.Fatalf("%s: pair (%v, %v) emitted twice", name, p.S1, p.S2)
		}
		if p.S1.Min() > p.S2.Min() {
			t.Fatalf("%s: pair (%v, %v) is not oriented", name, p.S1, p.S2)
		}
		seen[p] = true
	}
	return len(seen)
}

// TestDPhypEmitsEachPairOnce is what lets the simple-graph enumeration run
// without a de-duplication set: on every graph of the population — and on
// the 64-node chain of the benchmark's wide cell — no csg-cmp-pair comes
// out twice, and where the brute-force count is feasible (≤ 10 nodes) it
// agrees, so nothing is missing either.
func TestDPhypEmitsEachPairOnce(t *testing.T) {
	pairs, checked := 0, 0
	for name, g := range oncePopulation() {
		n := emitsOnce(t, name, g)
		pairs += n
		if g.N <= 10 {
			checked++
			if want := g.CountCsgCmpPairsBrute(); n != want {
				t.Errorf("%s: %d pairs, brute force counts %d", name, n, want)
			}
		}
	}
	chain64 := New[bitset.VSet](64)
	for i := 0; i+1 < 64; i++ {
		chain64.AddSimpleEdge(i, i+1, i)
	}
	if n, want := emitsOnce(t, "chain64", chain64), 64*63*65/6; n != want {
		t.Errorf("chain64: %d pairs, want %d", n, want)
	}
	t.Logf("%d pairs over the population, %d graphs checked against brute force", pairs, checked)
}
