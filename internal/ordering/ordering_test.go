package ordering

import (
	"testing"

	"eagg/internal/aggfn"
	"eagg/internal/bitset"
	"eagg/internal/fd"
	"eagg/internal/query"
)

// testQuery builds customer(ck key) ⋈ orders(ock, ok key) ⋈ lineitem(lk)
// with ck = ock and ok = lk — the Q3 shape the covering rules must get
// right.
func testQuery(t *testing.T) (q *query.Query, ck, ock, ok, lk, odate int) {
	t.Helper()
	q = query.New()
	c := q.AddRelation("customer", 100)
	o := q.AddRelation("orders", 200)
	l := q.AddRelation("lineitem", 400)
	ck = q.AddAttr(c, "c.ck", 100)
	ock = q.AddAttr(o, "o.ck", 100)
	ok = q.AddAttr(o, "o.ok", 200)
	odate = q.AddAttr(o, "o.date", 50)
	lk = q.AddAttr(l, "l.ok", 200)
	q.AddKey(c, ck)
	q.AddKey(o, ok)
	co := &query.OpNode{
		Kind: query.KindJoin,
		Left: &query.OpNode{Kind: query.KindScan, Rel: c}, Right: &query.OpNode{Kind: query.KindScan, Rel: o},
		Pred: &query.Predicate{Left: []int{ck}, Right: []int{ock}, Selectivity: 0.01},
	}
	q.Root = &query.OpNode{
		Kind: query.KindJoin,
		Left: co, Right: &query.OpNode{Kind: query.KindScan, Rel: l},
		Pred: &query.Predicate{Left: []int{ok}, Right: []int{lk}, Selectivity: 0.005},
	}
	q.SetGrouping([]int{lk, odate}, aggfn.Vector{{Out: "cnt", Kind: aggfn.CountStar}})
	return q, ck, ock, ok, lk, odate
}

func rels(ids ...int) bitset.VSet {
	var s bitset.VSet
	for _, r := range ids {
		s = s.Add(r)
	}
	return s
}

func TestCoversKeysEquivalence(t *testing.T) {
	q, ck, ock, ok, lk, _ := testQuery(t)
	fds := fd.NewLocal(q)
	in := NewInfo(q, &fds)

	// Inside {orders, lineitem}, ok = lk holds, so an order on ok covers
	// a merge on lk.
	if _, covered := in.CoversKeys(rels(1, 2), Order{ok}, []int{lk}); !covered {
		t.Fatal("order (o.ok) should cover merge key l.ok inside {o,l}")
	}
	// Outside the set of the equivalence (only lineitem) it must not.
	if _, covered := in.CoversKeys(rels(2), Order{ok}, []int{lk}); covered {
		t.Fatal("o.ok must not substitute for l.ok without the join inside the set")
	}
	// ck covers ock via the customer join, but never ok: key FDs are not
	// value equality, so being the key of orders buys no order.
	if _, covered := in.CoversKeys(rels(0, 1), Order{ck}, []int{ock}); !covered {
		t.Fatal("order (c.ck) should cover merge key o.ck inside {c,o}")
	}
	if _, covered := in.CoversKeys(rels(0, 1), Order{ck}, []int{ok}); covered {
		t.Fatal("c.ck must not substitute for o.ok: functional dependency is not value equality")
	}
}

func TestCoversKeysPermutation(t *testing.T) {
	q := query.New()
	a := q.AddRelation("a", 10)
	b := q.AddRelation("b", 10)
	ax := q.AddAttr(a, "a.x", 5)
	ay := q.AddAttr(a, "a.y", 5)
	bx := q.AddAttr(b, "b.x", 5)
	by := q.AddAttr(b, "b.y", 5)
	q.Root = &query.OpNode{
		Kind: query.KindJoin,
		Left: &query.OpNode{Kind: query.KindScan, Rel: a}, Right: &query.OpNode{Kind: query.KindScan, Rel: b},
		Pred: &query.Predicate{Left: []int{ax, ay}, Right: []int{bx, by}, Selectivity: 0.1},
	}
	fds := fd.NewLocal(q)
	in := NewInfo(q, &fds)
	// Order (y, x) covers keys [x, y] under the permutation [1, 0].
	perm, covered := in.CoversKeys(rels(0), Order{ay, ax}, []int{ax, ay})
	if !covered || len(perm) != 2 || perm[0] != 1 || perm[1] != 0 {
		t.Fatalf("want permutation [1 0], got %v covered=%v", perm, covered)
	}
	// A one-attribute order cannot cover a two-key merge.
	if _, covered := in.CoversKeys(rels(0), Order{ax}, []int{ax, ay}); covered {
		t.Fatal("prefix shorter than the key sequence must not cover it")
	}
	_ = by
}

func TestCoversGroupingFD(t *testing.T) {
	q, _, _, ok, lk, odate := testQuery(t)
	fds := fd.NewLocal(q)
	in := NewInfo(q, &fds)
	s := rels(0, 1, 2)
	g := bitset.SingleV(lk).Add(odate)

	// Order on o.ok covers grouping {l.ok, o.date}: ok ↔ lk makes equal
	// groups equal runs, and ok → o.date via the orders key. The
	// returned covering prefix is what the runtime verifies.
	prefix, covered := in.CoversGrouping(s, Order{ok}, g)
	if !covered || len(prefix) != 1 || prefix[0] != ok {
		t.Fatalf("order (o.ok) should cover grouping {l.ok, o.date} with prefix (o.ok), got %v %v", prefix, covered)
	}
	// An order on o.date alone covers nothing: two runs of one date can
	// belong to different orderkeys and one group can span runs.
	if _, covered := in.CoversGrouping(s, Order{odate}, g); covered {
		t.Fatal("order (o.date) must not cover grouping {l.ok, o.date}")
	}
	// No order covers nothing (except the global group).
	if _, covered := in.CoversGrouping(s, nil, g); covered {
		t.Fatal("empty order must not cover a non-empty grouping")
	}
	if _, covered := in.CoversGrouping(s, nil, bitset.VSet{}); !covered {
		t.Fatal("the global group is trivially covered")
	}
}

func TestGroupOutputOrder(t *testing.T) {
	q, _, _, ok, lk, odate := testQuery(t)
	fds := fd.NewLocal(q)
	in := NewInfo(q, &fds)
	s := rels(0, 1, 2)
	g := bitset.SingleV(lk).Add(odate)

	// The grouped output keeps the input order mapped into grouping
	// columns: o.ok maps to its equivalent l.ok.
	got := in.GroupOutputOrder(s, Order{ok}, g)
	if len(got) != 1 || got[0] != lk {
		t.Fatalf("want mapped order (l.ok), got %v", got)
	}
	// An order attribute without a grouping equivalent truncates the
	// mapped order there.
	if got := in.GroupOutputOrder(s, Order{ok, 0}, g); len(got) != 1 || got[0] != lk {
		t.Fatalf("mapped order should truncate at unmappable attrs, got %v", got)
	}
}

func TestOrderKeyAndPrefix(t *testing.T) {
	if !(Order{1, 2, 3}).HasPrefix(Order{1, 2}) || (Order{1, 2}).HasPrefix(Order{1, 2, 3}) ||
		(Order{1, 3}).HasPrefix(Order{1, 2}) || !(Order{1}).HasPrefix(nil) {
		t.Fatal("prefix test drifted")
	}
}
