package hypergraph_test

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"eagg/internal/bitset"
	"eagg/internal/conflict"
	"eagg/internal/hypergraph"
	"eagg/internal/query"
	"eagg/internal/randquery"
	"eagg/internal/tpch"
)

// tesQueries is the population of the hypergraph sequence test: the
// random queries of the paper's construction, four each at n = 4…16 drawn
// from a fixed seed, whose conflict-detected graphs carry a hyperedge, and
// TPC-H Ex and Q5.
func tesQueries() map[string]*query.Query {
	out := map[string]*query.Query{"Ex": tpch.Ex(), "Q5": tpch.Q5()}
	rng := rand.New(rand.NewSource(43))
	for n := 4; n <= 16; n++ {
		for i := 0; i < 4; i++ {
			q := randquery.Generate(rng, randquery.Params{Relations: n})
			if conflict.Detect[bitset.Set64](q).Graph.HasHyperedges() {
				out[fmt.Sprintf("rand%d.%d", n, i)] = q
			}
		}
	}
	return out
}

// wideTES is a 68-relation hypergraph on VSet: the conflict-detected graph
// of a random 10-relation query on nodes 58…67, across the 64-bit word
// boundary, attached by the edge (57, 58) to a chain of hyperedges
// ({0…i}, {i+1}) over nodes 0…57, the shape of a left-deep run of
// non-reorderable outer joins.
func wideTES() *hypergraph.Graph[bitset.VSet] {
	const shift = 58
	g := hypergraph.New[bitset.VSet](shift + 10)
	for i := 0; i+1 < shift; i++ {
		g.AddEdge(bitset.RangeIn[bitset.VSet](0, i+1), bitset.SingleIn[bitset.VSet](i+1), len(g.Edges))
	}
	g.AddSimpleEdge(shift-1, shift, len(g.Edges))
	up := func(s bitset.Set64) bitset.VSet {
		var w bitset.VSet
		s.ForEach(func(e int) { w = w.Add(e + shift) })
		return w
	}
	q := randquery.Generate(rand.New(rand.NewSource(7)), randquery.Params{Relations: 10})
	for _, e := range conflict.Detect[bitset.Set64](q).Graph.Edges {
		g.AddEdge(up(e.Left), up(e.Right), len(g.Edges))
	}
	return g
}

// tesHash digests, in a form independent of the set representation, the
// pair count, the level-ordered pair sequence CsgCmpPairs returns, and the
// closure's family and pairs in the order it discovers them.
func tesHash[S bitset.RelSet[S]](g *hypergraph.Graph[S]) string {
	sorted, emitted := fnv.New64a(), fnv.New64a()
	pairs := g.CsgCmpPairs()
	for _, p := range pairs {
		fmt.Fprint(sorted, p.S1.Elems(), p.S2.Elems())
	}
	family, closure := g.BuildableSets()
	for _, s := range family {
		fmt.Fprint(emitted, s.Elems())
	}
	for _, p := range closure {
		fmt.Fprint(emitted, p.S1.Elems(), p.S2.Elems())
	}
	return fmt.Sprintf("%d:%016x:%016x", len(pairs), sorted.Sum64(), emitted.Sum64())
}

// TestHypergraphPairSequence pins the csg-cmp-pair sequence of
// conflict-detected hypergraphs — order included, since the DP breaks cost
// ties in pair order — and the closure's discovery order behind it to the
// hashes in wantTESSequence, generated while the closure still scanned the
// whole family per set with a pair map. Set64 and VSet emit the same
// sequence, every pair comes out once and oriented, and where n ≤ 10 the
// count agrees with the brute force.
func TestHypergraphPairSequence(t *testing.T) {
	queries := tesQueries()
	if len(queries)+1 != len(wantTESSequence) {
		t.Errorf("population has %d graphs, wantTESSequence %d", len(queries)+1, len(wantTESSequence))
	}
	check := func(name string, got string, n, brute int) {
		if got != wantTESSequence[name] {
			t.Errorf("%q: %q, // sequence changed (want %s)", name, got, wantTESSequence[name])
		}
		if brute >= 0 && n != brute {
			t.Errorf("%s: %d pairs, brute force counts %d", name, n, brute)
		}
	}
	for name, q := range queries {
		g := conflict.Detect[bitset.Set64](q).Graph
		got := tesHash(g)
		if w := tesHash(conflict.Detect[bitset.VSet](q).Graph); w != got {
			t.Errorf("%s: VSet emits %s, Set64 %s", name, w, got)
		}
		brute := -1
		if g.N <= 10 {
			brute = g.CountCsgCmpPairsBrute()
		}
		check(name, got, hypergraph.EmitsOnce(t, name, g), brute)
	}
	w := wideTES()
	check("wide68", tesHash(w), hypergraph.EmitsOnce(t, "wide68", w), -1)
}

var wantTESSequence = map[string]string{
	"Ex":       "3:d533a8370a5538dd:943d7eae77e855eb",
	"Q5":       "14:2fdfb9a3ae8c842e:419ebec5ebc70d9d",
	"rand4.1":  "3:bea033e9a5717f3f:2038db648a9b2e73",
	"rand4.2":  "3:92f5eeb2ed3a4e14:23105921a9a33f79",
	"rand5.0":  "11:75ca18e2fc9c3ab8:5fed94a6b0b08883",
	"rand5.1":  "11:d241e93ad61f70a0:24be3361675724ae",
	"rand5.3":  "6:1341fcba3347b90e:ee47ce87f84982db",
	"rand6.0":  "5:e4471f585d17cc01:253065a0914b47fa",
	"rand6.1":  "38:feaf0500ca832aa2:06735880f77345e3",
	"rand6.3":  "14:e80cccb98fe3c984:b46a207b082f2ef9",
	"rand7.0":  "57:1bf2e97b5936ddad:05bf6d560174f21b",
	"rand7.1":  "10:ef5351197df0f8b4:62e43aacffa09a8f",
	"rand7.2":  "15:268ffd2a8c37ccf6:1b92077e694bdc74",
	"rand7.3":  "22:88765ad408899496:a75b1cbc730185b6",
	"rand8.0":  "34:e0e951d6b7b5b870:222033549b1455c7",
	"rand8.1":  "80:7b5baee212b608ec:7fe2a234dc6909b1",
	"rand8.2":  "89:a788cd79cabb73d0:94da1738e0a0ab11",
	"rand8.3":  "46:0443efd74028f060:6df9ce0177b78270",
	"rand9.0":  "132:af13091f5bf339bf:0d3132601e443242",
	"rand9.1":  "78:32d37ee93d98bd85:1bc7f5645f67274e",
	"rand9.2":  "31:6642eef15b4f28a7:a9ddd41e4fe4054c",
	"rand9.3":  "31:72904d5a0fc27348:5f98968692b91744",
	"rand10.0": "244:c8be8fc956ce8e71:c84f5d9b6c373143",
	"rand10.1": "80:0036cf0731e9e7f4:2336dd0da25c3129",
	"rand10.3": "105:af416b06642916dd:486b67065f709325",
	"rand11.0": "137:ab5612165678b463:b498d91f5091feb0",
	"rand11.1": "167:6a0ecc30ed39d575:37c4b234f4c5d46f",
	"rand11.2": "23:29653d2000b266fd:4b1101ad93a5cb98",
	"rand11.3": "29:a36efe75544de0b9:1d6456ecf044ad68",
	"rand12.0": "73:e73d74e2555b1356:e74c40104af5ec9e",
	"rand12.1": "43:3eb059aac0945205:c19b0c62b805fee3",
	"rand12.2": "22:bc13caa890d890a4:e6910e5eb7374061",
	"rand12.3": "302:650f949123a297a8:a52fc762105cce97",
	"rand13.0": "62:d30fdc892ab0790b:8f07bf87c323f140",
	"rand13.1": "1115:3a68f3a4abe29ea5:aaaa947254362f46",
	"rand13.2": "108:6ea488afda704de0:7e4a0b4ba49f752f",
	"rand13.3": "47:25f113bb408169fe:62207d9c55ba36af",
	"rand14.0": "40:b4774cb5b6e6ce8b:d9d3ea2c26f552e3",
	"rand14.1": "182:6bfa9bd486953aac:f51d63cfa6ac0de8",
	"rand14.2": "62:2e88b6f00ee4646e:011011d8407e6b28",
	"rand14.3": "214:093d3c73b33ac0bf:f234d5a8d87898c4",
	"rand15.0": "123:030e8ca5ea379aab:f65b63f02c0b4a01",
	"rand15.1": "53:cc811e2ca9f50967:da1fb6f0edb3482f",
	"rand15.3": "467:c220bb66b2884980:0d28d7feaf733828",
	"rand16.0": "23:59fbe4a000924681:9a7977aee22f7a62",
	"rand16.1": "80:4ce4ab337b15afa3:84b0005ebb63cf92",
	"rand16.2": "278:bc32da8d83c33946:24ebe9a0051a03ad",
	"rand16.3": "190:26106faabff93266:5c28239f93c4491f",
	"wide68":   "163:1ad7dc0c400ee975:e3c540abae0ee8e7",
}

// TestHypergraphPairBudget: a budget at or below the full pair count cuts
// the hypergraph closure off after exactly that many pairs, which are the
// first pairs of the complete closure's sequence; CsgCmpPairsBudget then
// reports them as emitted and incomplete, with no list. The DP driver's
// greedy fallback and Stats.PairBudgetExceeded hang on where it cuts.
func TestHypergraphPairBudget(t *testing.T) {
	queries := tesQueries()
	for _, name := range []string{"Q5", "rand10.0", "rand13.1", "rand16.2"} {
		if queries[name] == nil {
			t.Fatalf("%s is not in the population", name)
		}
		budgetCuts(t, name, conflict.Detect[bitset.Set64](queries[name]).Graph)
	}
	budgetCuts(t, "wide68", wideTES())
}

func budgetCuts[S bitset.RelSet[S]](t *testing.T, name string, g *hypergraph.Graph[S]) {
	t.Helper()
	_, full, _ := g.BuildableSetsBudget(0)
	for _, b := range []int{1, 2, len(full) / 3, len(full) / 2, len(full) - 1, len(full)} {
		if b < 1 {
			continue
		}
		pairs, emitted, complete := g.CsgCmpPairsBudget(b)
		if complete || emitted != b || pairs != nil {
			t.Errorf("%s budget %d of %d: complete=%v emitted=%d, %d pairs", name, b, len(full), complete, emitted, len(pairs))
		}
		_, cut, complete := g.BuildableSetsBudget(b)
		if complete || len(cut) != b || fmt.Sprint(cut) != fmt.Sprint(full[:b]) {
			t.Errorf("%s budget %d: closure cut after %d pairs, not the first %d of the full sequence", name, b, len(cut), b)
		}
	}
	if pairs, emitted, complete := g.CsgCmpPairsBudget(len(full) + 1); !complete || emitted != len(full) || len(pairs) != len(full) {
		t.Errorf("%s budget %d: complete=%v emitted=%d", name, len(full)+1, complete, emitted)
	}
}

// BenchmarkCsgCmpPairs times the enumeration alone: the conflict-detected
// graphs of the 60 random queries of the benchmark's optimize_cold mix
// (ten each at n = 6, 8, …, 16 from seed 1; all but a handful are
// hypergraphs), and the simple chain12 and star12.
func BenchmarkCsgCmpPairs(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var random []*hypergraph.Graph[bitset.Set64]
	for _, n := range []int{6, 8, 10, 12, 14, 16} {
		for i := 0; i < 10; i++ {
			q := randquery.Generate(rng, randquery.Params{Relations: n})
			random = append(random, conflict.Detect[bitset.Set64](q).Graph)
		}
	}
	arms := []struct {
		name   string
		graphs []*hypergraph.Graph[bitset.Set64]
	}{
		{"random60", random},
		{"chain12", []*hypergraph.Graph[bitset.Set64]{conflict.Detect[bitset.Set64](randquery.Chain(12)).Graph}},
		{"star12", []*hypergraph.Graph[bitset.Set64]{conflict.Detect[bitset.Set64](randquery.Star(12)).Graph}},
	}
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			pairs := 0
			for range b.N {
				for _, g := range arm.graphs {
					pairs += len(g.CsgCmpPairs())
				}
			}
			b.ReportMetric(float64(pairs)/float64(b.N), "pairs/op")
		})
	}
}
