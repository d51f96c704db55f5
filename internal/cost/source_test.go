package cost

import (
	"testing"

	"eagg/internal/aggfn"
	"eagg/internal/bitset"
	"eagg/internal/query"
)

// sourceQuery builds a 3-relation chain R0 ⋈ R1 ⧑ R2 (the last operator a
// semijoin) with a grouping, for exercising keys and overrides.
func sourceQuery() *query.Query {
	q := query.New()
	r0 := q.AddRelation("R0", 1000)
	r1 := q.AddRelation("R1", 500)
	r2 := q.AddRelation("R2", 200)
	a0 := q.AddAttr(r0, "R0.j", 100)
	a1 := q.AddAttr(r1, "R1.j", 100)
	b1 := q.AddAttr(r1, "R1.k", 50)
	b2 := q.AddAttr(r2, "R2.k", 50)
	g := q.AddAttr(r0, "R0.g", 10)
	v := q.AddAttr(r0, "R0.v", 900)
	scan := func(r int) *query.OpNode { return &query.OpNode{Kind: query.KindScan, Rel: r} }
	j01 := &query.OpNode{
		Kind: query.KindJoin, Left: scan(r0), Right: scan(r1),
		Pred: &query.Predicate{Left: []int{a0}, Right: []int{a1}, Selectivity: 0.01},
	}
	q.Root = &query.OpNode{
		Kind: query.KindSemiJoin, Left: j01, Right: scan(r2),
		Pred: &query.Predicate{Left: []int{b1}, Right: []int{b2}, Selectivity: 0.02},
	}
	q.SetGrouping([]int{g}, aggfn.Vector{{Out: "total", Kind: aggfn.Sum, Arg: q.AttrNames[v]}})
	return q
}

func TestFeedbackOverlayFallback(t *testing.T) {
	o := NewFeedbackOverlay()
	key := CardKey{Rels: bitset.Range64(0, 2).ToV()}
	if got := o.Card(key, 123); got != 123 {
		t.Fatalf("empty overlay must fall back to the model: got %g", got)
	}
	o.Set(key, 7)
	if got := o.Card(key, 123); got != 7 {
		t.Fatalf("overlay must return the measured value: got %g", got)
	}
	if got := o.Card(CardKey{Rels: bitset.Range64(0, 2).ToV(), IsGroup: true}, 55); got != 55 {
		t.Fatalf("distinct key must fall back: got %g", got)
	}
	if got, ok := o.Lookup(key); !ok || got != 7 {
		t.Fatalf("Lookup = %g, %v", got, ok)
	}
	o.Set(key, 9) // later measurements overwrite
	if got := o.Card(key, 123); got != 9 {
		t.Fatalf("overwrite: got %g", got)
	}
	if o.Len() != 1 {
		t.Fatalf("Len = %d", o.Len())
	}
}

// TestCanonicalKeys pins the canonicalization rules: op keys carry the
// collapse state below (left side only for left-only operators), grouping
// keys ignore it, and KeyOf agrees with what the estimator looked up.
func TestCanonicalKeys(t *testing.T) {
	q := sourceQuery()
	e := NewEstimator(q)
	s0, s1, s2 := e.Scan(0), e.Scan(1), e.Scan(2)
	pred01 := &query.Predicate{Left: []int{0}, Right: []int{1}, Selectivity: 0.01}
	predSemi := &query.Predicate{Left: []int{2}, Right: []int{3}, Selectivity: 0.02}

	join := e.Op(query.KindJoin, []*query.Predicate{pred01}, s0, s1)
	key, ok := KeyOf(join)
	if !ok || key != (CardKey{Rels: bitset.Range64(0, 2).ToV()}) {
		t.Fatalf("plain join key = %+v, ok=%v", key, ok)
	}

	gp := bitset.VSet{}.Add(1).Add(2).Add(4) // join attrs + G on R0⨝R1's side
	grouped := e.Group(join, gp)
	gkey, ok := KeyOf(grouped)
	if !ok || gkey != (CardKey{Rels: bitset.Range64(0, 2).ToV(), Group: gp, IsGroup: true}) {
		t.Fatalf("group key = %+v, ok=%v", gkey, ok)
	}
	if grouped.GroupsBelow != gp {
		t.Fatalf("GroupsBelow of Γ = %v, want %v", grouped.GroupsBelow, gp)
	}

	// A second grouping on top keys by its own G, ignoring the collapse
	// state below — the canonical result is the same distinct set.
	g2 := bitset.VSet{}.Add(4)
	regrouped := e.Group(grouped, g2)
	rkey, _ := KeyOf(regrouped)
	if rkey != (CardKey{Rels: bitset.Range64(0, 2).ToV(), Group: g2, IsGroup: true}) {
		t.Fatalf("re-group key = %+v", rkey)
	}

	// Semijoin above: its key carries the left collapse state; grouping
	// the right side must not change the key (a value set is invariant
	// under grouping).
	semi := e.Op(query.KindSemiJoin, []*query.Predicate{predSemi}, grouped, s2)
	skey, _ := KeyOf(semi)
	want := CardKey{Rels: bitset.Range64(0, 3).ToV(), Group: gp}
	if skey != want {
		t.Fatalf("semijoin key = %+v, want %+v", skey, want)
	}
	gr2 := e.Group(s2, bitset.VSet{}.Add(3))
	semiGR := e.Op(query.KindSemiJoin, []*query.Predicate{predSemi}, grouped, gr2)
	skey2, _ := KeyOf(semiGR)
	if skey2 != want {
		t.Fatalf("semijoin key with grouped right = %+v, want %+v", skey2, want)
	}

	// Scans and projections carry no key.
	if _, ok := KeyOf(s0); ok {
		t.Fatal("scan must not carry a card key")
	}
	if _, ok := KeyOf(e.Project(join)); ok {
		t.Fatal("projection must not carry a card key")
	}
}

// TestSourceOverridesEstimates checks that measured cardinalities replace
// the model estimate for exactly the overlaid keys, propagate into C_out,
// and survive Clone (parallel workers share the source).
func TestSourceOverridesEstimates(t *testing.T) {
	q := sourceQuery()
	pred01 := &query.Predicate{Left: []int{0}, Right: []int{1}, Selectivity: 0.01}

	model := NewEstimator(q)
	base := model.Op(query.KindJoin, []*query.Predicate{pred01}, model.Scan(0), model.Scan(1))
	baseKey, _ := KeyOf(base)

	o := NewFeedbackOverlay()
	o.Set(baseKey, 77)
	fed := NewEstimator(q)
	fed.Source = o
	got := fed.Op(query.KindJoin, []*query.Predicate{pred01}, fed.Scan(0), fed.Scan(1))
	if got.Card != 77 || got.Cost != 77 {
		t.Fatalf("measured card must override the model: card=%g cost=%g", got.Card, got.Cost)
	}
	if base.Card == 77 {
		t.Fatal("test needs a model estimate ≠ 77")
	}

	// Unmeasured keys fall back to the model — which now estimates
	// against the corrected child (the measured 77 caps the distinct
	// counts), so the fallback is the model formula, not the old number.
	gp := bitset.VSet{}.Add(1).Add(2).Add(4)
	gModel := model.Group(base, gp)
	gFed := fed.Group(got, gp)
	if gFed.Card == gModel.Card {
		t.Fatalf("fallback Γ estimate should see the corrected child (both %g)", gFed.Card)
	}
	if want := gFed.Card + 77; gFed.Cost != want {
		t.Fatalf("C_out must accumulate the measured child: %g, want %g", gFed.Cost, want)
	}
	// A measured grouping cardinality overrides the fallback.
	gKey, _ := KeyOf(gFed)
	o.Set(gKey, 13)
	if g2 := fed.Group(got, gp); g2.Card != 13 || g2.Cost != 13+77 {
		t.Fatalf("measured Γ card must override: card=%g cost=%g", g2.Card, g2.Cost)
	}

	// A measured zero stays zero (not clamped to 1).
	o.Set(baseKey, 0)
	z := fed.Op(query.KindJoin, []*query.Predicate{pred01}, fed.Scan(0), fed.Scan(1))
	if z.Card != 0 {
		t.Fatalf("measured 0 must not be clamped: %g", z.Card)
	}

	// Clones share the source.
	c := fed.Clone()
	if c.Source != fed.Source {
		t.Fatal("Clone must share the cardinality source")
	}
	zc := c.Op(query.KindJoin, []*query.Predicate{pred01}, c.Scan(0), c.Scan(1))
	if zc.Card != z.Card {
		t.Fatalf("clone estimate differs: %g vs %g", zc.Card, z.Card)
	}
}
