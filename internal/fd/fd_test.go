package fd

import (
	"math/rand"
	"testing"

	"eagg/internal/bitset"
	"eagg/internal/query"
	"eagg/internal/randquery"
)

// dep is one functional dependency det → dep of the reference model.
type dep struct{ det, dep bitset.VSet }

// pairsOf returns the inner equi-join pairs of the query whose attributes
// both belong to relations of rels.
func pairsOf(q *query.Query, rels bitset.VSet) [][2]int {
	var out [][2]int
	var walk func(n *query.OpNode)
	walk = func(n *query.OpNode) {
		if n == nil || n.Kind == query.KindScan {
			return
		}
		if n.Kind == query.KindJoin {
			for i, a := range n.Pred.Left {
				if b := n.Pred.Right[i]; rels.Contains(q.AttrRel[a]) && rels.Contains(q.AttrRel[b]) {
					out = append(out, [2]int{a, b})
				}
			}
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(q.Root)
	return out
}

// depsOf lists the dependencies of the plans over rels one by one, as the
// package comment states them: key → attributes per key of a relation of
// rels, and both directions of every inner equi-join pair inside rels.
func depsOf(q *query.Query, rels bitset.VSet) []dep {
	var out []dep
	rels.ForEach(func(r int) {
		for _, k := range q.Relations[r].Keys {
			out = append(out, dep{k, q.Relations[r].Attrs})
		}
	})
	for _, p := range pairsOf(q, rels) {
		out = append(out, dep{bitset.SingleV(p[0]), bitset.SingleV(p[1])}, dep{bitset.SingleV(p[1]), bitset.SingleV(p[0])})
	}
	return out
}

// fixpoint is the textbook attribute closure: apply every dependency whose
// determinant is in until nothing changes.
func fixpoint(deps []dep, attrs bitset.VSet) bitset.VSet {
	out := attrs
	for changed := true; changed; {
		changed = false
		for _, d := range deps {
			if d.det.SubsetOf(out) && !d.dep.SubsetOf(out) {
				out = out.Union(d.dep)
				changed = true
			}
		}
	}
	return out
}

// unionFind is the reference model of Same: the classes of the inner
// equi-join pairs inside one relation set.
type unionFind []int

func newUnionFind(n int, pairs [][2]int) unionFind {
	uf := make(unionFind, n)
	for i := range uf {
		uf[i] = i
	}
	for _, p := range pairs {
		uf[uf.find(p[0])] = uf.find(p[1])
	}
	return uf
}

func (uf unionFind) find(a int) int {
	for uf[a] != a {
		a = uf[a]
	}
	return a
}

// twoRels builds r0(a0 key, a1) ⋈_{a1 = b0} r1(b0 key, b1, b2), the
// smallest query with a key chain through an equi-join.
func twoRels() (q *query.Query, a0, a1, b0, b1, b2 int) {
	q = query.New()
	r0, r1 := q.AddRelation("r0", 10), q.AddRelation("r1", 10)
	a0, a1 = q.AddAttr(r0, "a0", 10), q.AddAttr(r0, "a1", 5)
	b0, b1, b2 = q.AddAttr(r1, "b0", 5), q.AddAttr(r1, "b1", 5), q.AddAttr(r1, "b2", 5)
	q.AddKey(r0, a0)
	q.AddKey(r1, b0, b1)
	q.Root = &query.OpNode{
		Kind: query.KindJoin,
		Left: &query.OpNode{Kind: query.KindScan, Rel: r0}, Right: &query.OpNode{Kind: query.KindScan, Rel: r1},
		Pred: &query.Predicate{Left: []int{a1}, Right: []int{b0}, Selectivity: 0.1},
	}
	return q, a0, a1, b0, b1, b2
}

func TestClosureBasic(t *testing.T) {
	q, a0, a1, b0, b1, b2 := twoRels()
	l := NewLocal(q)
	both := bitset.NewV(0, 1)
	// a0 → a1 (key of r0), a1 ↔ b0 (the join); b0 alone is half of r1's
	// key, so b1 and b2 stay out.
	if got, want := l.Closure(both, bitset.NewV(a0)), bitset.NewV(a0, a1, b0); got != want {
		t.Errorf("closure of {a0} = %v, want %v", got, want)
	}
	// The whole key of r1 fires.
	if got, want := l.Closure(both, bitset.NewV(a0, b1)), bitset.NewV(a0, a1, b0, b1, b2); got != want {
		t.Errorf("closure of {a0, b1} = %v, want %v", got, want)
	}
	// A partial key must not fire.
	if got := l.Closure(both, bitset.NewV(b1)); got != bitset.NewV(b1) {
		t.Errorf("closure of {b1} = %v: a partial key fired", got)
	}
}

func TestClosureEquiv(t *testing.T) {
	q, a0, a1, b0, b1, _ := twoRels()
	l := NewLocal(q)
	// The pair works both ways inside the set of the join...
	if !l.Closure(bitset.NewV(0, 1), bitset.NewV(b0)).Contains(a1) || !l.Closure(bitset.NewV(0, 1), bitset.NewV(a1)).Contains(b0) {
		t.Error("a1 ↔ b0 must hold in both directions over {r0, r1}")
	}
	if !l.Same(bitset.NewV(0, 1), a1, b0) || !l.Same(bitset.NewV(0, 1), b0, a1) {
		t.Error("a1 and b0 must carry equal values over {r0, r1}")
	}
	// ...and not outside it.
	if l.Closure(bitset.NewV(0), bitset.NewV(a1)).Contains(b0) || l.Same(bitset.NewV(1), a1, b0) {
		t.Error("a1 ↔ b0 must not hold without the join inside the set")
	}
	// A key determines its relation's attributes but orders none of them:
	// Same takes no key step.
	if l.Same(bitset.NewV(0, 1), a0, a1) || l.Same(bitset.NewV(0, 1), a0, b1) {
		t.Error("a key dependency is not value equality")
	}
}

// TestLocalClosureMatchesSet: Local's closure, which expands each
// attribute once, equals the plain fixpoint over the same dependencies,
// and Local.Same equals a union-find over the same pairs — on every
// relation set of small random queries, and on sets of a chain of 70
// relations, whose attributes span several words.
func TestLocalClosureMatchesSet(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	check := func(q *query.Query, l *Local, rels bitset.VSet) {
		deps := depsOf(q, rels)
		for k := 0; k < 6; k++ {
			var attrs bitset.VSet
			for a := range q.AttrNames {
				if rng.Intn(6) == 0 {
					attrs = attrs.Add(a)
				}
			}
			if got, want := l.Closure(rels, attrs), fixpoint(deps, attrs); got != want {
				t.Fatalf("closure of %v over %v: %v, the fixpoint says %v", attrs, rels, got, want)
			}
		}
		uf := newUnionFind(len(q.AttrNames), pairsOf(q, rels))
		for k := 0; k < 40; k++ {
			a, b := rng.Intn(len(q.AttrNames)), rng.Intn(len(q.AttrNames))
			if k%2 == 0 {
				// Half the probes draw b from a's class, so both answers
				// are exercised.
				var class []int
				for x := range q.AttrNames {
					if uf.find(x) == uf.find(a) {
						class = append(class, x)
					}
				}
				b = class[rng.Intn(len(class))]
			}
			if got, want := l.Same(rels, a, b), uf.find(a) == uf.find(b); got != want {
				t.Fatalf("Same(%v, %d, %d) = %t, the union-find says %t", rels, a, b, got, want)
			}
		}
	}
	sets := 0
	for trial := 0; trial < 40; trial++ {
		q := randquery.Generate(rng, randquery.Params{Relations: 2 + trial%6})
		l := NewLocal(q)
		for mask := uint64(1); mask < 1<<len(q.Relations); mask++ {
			var rels bitset.VSet
			for r := range q.Relations {
				if mask&(1<<r) != 0 {
					rels = rels.Add(r)
				}
			}
			check(q, &l, rels)
			sets++
		}
	}
	q := randquery.Chain(70)
	l := NewLocal(q)
	for lo := 0; lo < 70; lo += 7 {
		for hi := lo + 1; hi <= 70; hi += 9 {
			var rels bitset.VSet
			for r := lo; r < hi; r++ {
				rels = rels.Add(r)
			}
			check(q, &l, rels)
			sets++
		}
	}
	t.Logf("%d relation sets checked", sets)
}

// TestSameAllocs: Same answers from stack words on a multi-word universe.
func TestSameAllocs(t *testing.T) {
	q := randquery.Chain(70)
	l := NewLocal(q)
	if l.Words() < 2 {
		t.Fatalf("chain70 spans %d attribute words, want several", l.Words())
	}
	rels := bitset.RangeIn[bitset.VSet](0, 70)
	a, b := 0, len(q.AttrNames)-1
	if n := testing.AllocsPerRun(100, func() { l.Same(rels, a, b) }); n != 0 {
		t.Errorf("Same allocates %.0f times per call", n)
	}
}
