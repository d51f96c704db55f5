package cost

import (
	"math"
	"reflect"
	"testing"

	"eagg/internal/bitset"
	"eagg/internal/plan"
	"eagg/internal/query"
)

func twoRelQuery() (*query.Query, *query.Predicate) {
	q := query.New()
	r0 := q.AddRelation("r0", 1000)
	r1 := q.AddRelation("r1", 50)
	a0 := q.AddAttr(r0, "a0", 100)
	g0 := q.AddAttr(r0, "g0", 10)
	b1 := q.AddAttr(r1, "b1", 50)
	q.AddKey(r1, b1)
	_ = g0
	pred := &query.Predicate{Left: []int{a0}, Right: []int{b1}, Selectivity: 1.0 / 50}
	q.Root = &query.OpNode{
		Kind:  query.KindJoin,
		Left:  &query.OpNode{Kind: query.KindScan, Rel: r0},
		Right: &query.OpNode{Kind: query.KindScan, Rel: r1},
		Pred:  pred,
	}
	return q, pred
}

func TestScanProps(t *testing.T) {
	q, _ := twoRelQuery()
	e := NewEstimator(q)
	s0 := e.Scan(0)
	if s0.Card != 1000 || s0.Cost != 0 {
		t.Errorf("scan r0: card=%v cost=%v", s0.Card, s0.Cost)
	}
	if s0.DupFree {
		t.Error("r0 has no key: not duplicate-free")
	}
	s1 := e.Scan(1)
	if !s1.DupFree || len(s1.Keys) != 1 {
		t.Error("r1 with key must be duplicate-free")
	}
}

// TestEstimatesResetEveryField: the optimizer estimates every candidate
// into a reused scratch node, so an estimate must set every field of its
// destination — the ones it defines, and the zero value in the rest,
// sort-layer fields included. Each estimate into a node whose every field
// holds something is compared with the same estimate into a zero node;
// the node is filled by reflection, so a field added to plan.Plan that the
// estimates do not reset fails here.
func TestEstimatesResetEveryField(t *testing.T) {
	q, pred := twoRelQuery()
	q.AddKey(0, 1) // r0's g0, so that every estimate below has a key
	e := NewEstimator(q)
	s0, s1 := e.Scan(0), e.Scan(1)
	var jp JoinPreds
	jp.Reset()
	jp.Add(pred, pred.LeftAttrs(), pred.RightAttrs())
	j := e.Op(query.KindJoin, jp.Preds, s0, s1)
	for _, c := range []struct {
		name     string
		estimate func(dst *plan.Plan)
	}{
		{"EstimateScan", func(dst *plan.Plan) { e.EstimateScan(dst, 1) }},
		{"EstimateOp", func(dst *plan.Plan) { e.EstimateOp(dst, query.KindJoin, &jp, s0, s1) }},
		{"EstimateGroup", func(dst *plan.Plan) { e.EstimateGroup(dst, j, bitset.NewV(1)) }},
		{"EstimateProject", func(dst *plan.Plan) { e.EstimateProject(dst, j) }},
	} {
		want := new(plan.Plan)
		c.estimate(want)
		got := filledPlan(t)
		c.estimate(got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s into a filled node:\n%+v\ninto a zero node:\n%+v", c.name, *got, *want)
		}
	}
}

// filledPlan returns a node whose every field holds a non-zero value.
func filledPlan(t *testing.T) *plan.Plan {
	t.Helper()
	p := new(plan.Plan)
	v := reflect.ValueOf(p).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Interface().(type) {
		case bitset.VSet:
			f.Set(reflect.ValueOf(bitset.NewV(3, 70)))
		case []bitset.VSet:
			f.Set(reflect.ValueOf([]bitset.VSet{bitset.NewV(0), bitset.NewV(2, 90), bitset.NewV(5)}))
		case []float64:
			f.Set(reflect.ValueOf([]float64{7, 8, 9}))
		case []int:
			f.Set(reflect.ValueOf([]int{4, 5}))
		case []*query.Predicate:
			f.Set(reflect.ValueOf([]*query.Predicate{{Selectivity: 0.5}}))
		case *plan.Plan:
			f.Set(reflect.ValueOf(&plan.Plan{Card: 3}))
		default:
			switch f.Kind() {
			case reflect.Bool:
				f.SetBool(true)
			case reflect.Int, reflect.Int64:
				f.SetInt(5)
			case reflect.Uint8:
				f.SetUint(5)
			case reflect.Float64:
				f.SetFloat(0.5)
			default:
				t.Fatalf("plan.Plan.%s: no filler for %v", v.Type().Field(i).Name, f.Type())
			}
		}
	}
	return p
}

func TestJoinCardAndCost(t *testing.T) {
	q, pred := twoRelQuery()
	e := NewEstimator(q)
	j := e.Op(query.KindJoin, []*query.Predicate{pred}, e.Scan(0), e.Scan(1))
	// 1000 × 50 × 1/50 = 1000.
	if math.Abs(j.Card-1000) > 1e-9 {
		t.Errorf("join card = %v", j.Card)
	}
	if math.Abs(j.Cost-1000) > 1e-9 {
		t.Errorf("join cost = %v (C_out counts the join output)", j.Cost)
	}
}

func TestOuterAndSemiCards(t *testing.T) {
	q, pred := twoRelQuery()
	e := NewEstimator(q)
	l, r := e.Scan(0), e.Scan(1)
	// Per-left-tuple partners: 50 × 1/50 = 1 → no unmatched fill-up.
	lo := e.Op(query.KindLeftOuter, []*query.Predicate{pred}, l, r)
	if math.Abs(lo.Card-1000) > 1e-9 {
		t.Errorf("left outer card = %v", lo.Card)
	}
	fo := e.Op(query.KindFullOuter, []*query.Predicate{pred}, l, r)
	if fo.Card < lo.Card {
		t.Errorf("full outer card %v below left outer %v", fo.Card, lo.Card)
	}
	semi := e.Op(query.KindSemiJoin, []*query.Predicate{pred}, l, r)
	if semi.Card > l.Card {
		t.Errorf("semijoin card %v exceeds left input %v", semi.Card, l.Card)
	}
	anti := e.Op(query.KindAntiJoin, []*query.Predicate{pred}, l, r)
	if anti.Card < 1 {
		t.Errorf("antijoin card %v below the floor", anti.Card)
	}
	gj := e.Op(query.KindGroupJoin, []*query.Predicate{pred}, l, r)
	if gj.Card != l.Card {
		t.Errorf("groupjoin card %v must equal the left input", gj.Card)
	}
}

func TestKeyRules(t *testing.T) {
	q, pred := twoRelQuery()
	e := NewEstimator(q)
	l, r := e.Scan(0), e.Scan(1)
	// A2 = {b1} is a key of r1, A1 is not a key of r0 → join keys = keys(r0) = none.
	j := e.Op(query.KindJoin, []*query.Predicate{pred}, l, r)
	if len(j.Keys) != 0 {
		t.Errorf("join keys = %v, want none (left side keyless)", j.Keys)
	}
	// Left outer with key on the right: κ = κ(e1) = none here, and the
	// result must not be duplicate-free (left input is not).
	lo := e.Op(query.KindLeftOuter, []*query.Predicate{pred}, l, r)
	if lo.DupFree {
		t.Error("left outer of non-dupfree input can't be dupfree")
	}
	// Semijoin keeps left keys only.
	semi := e.Op(query.KindSemiJoin, []*query.Predicate{pred}, l, r)
	if len(semi.Keys) != 0 {
		t.Errorf("semijoin keys = %v", semi.Keys)
	}
}

func TestJoinBothKeys(t *testing.T) {
	q := query.New()
	r0 := q.AddRelation("r0", 100)
	r1 := q.AddRelation("r1", 100)
	k0 := q.AddAttr(r0, "k0", 100)
	k1 := q.AddAttr(r1, "k1", 100)
	q.AddKey(r0, k0)
	q.AddKey(r1, k1)
	e := NewEstimator(q)
	pred := &query.Predicate{Left: []int{k0}, Right: []int{k1}, Selectivity: 0.01}
	j := e.Op(query.KindJoin, []*query.Predicate{pred}, e.Scan(0), e.Scan(1))
	// Key-key join: both sides' keys remain keys.
	if len(j.Keys) != 2 {
		t.Errorf("key-key join keys = %v", j.Keys)
	}
	if !j.DupFree {
		t.Error("join of dupfree inputs must be dupfree")
	}
}

func TestPairwiseKeyUnion(t *testing.T) {
	q := query.New()
	r0 := q.AddRelation("r0", 100)
	r1 := q.AddRelation("r1", 100)
	k0 := q.AddAttr(r0, "k0", 100)
	a0 := q.AddAttr(r0, "x0", 5)
	k1 := q.AddAttr(r1, "k1", 100)
	a1 := q.AddAttr(r1, "x1", 5)
	q.AddKey(r0, k0)
	q.AddKey(r1, k1)
	e := NewEstimator(q)
	// Predicate on non-key attributes: keys must combine pairwise.
	pred := &query.Predicate{Left: []int{a0}, Right: []int{a1}, Selectivity: 0.2}
	j := e.Op(query.KindJoin, []*query.Predicate{pred}, e.Scan(0), e.Scan(1))
	want := bitset.NewV(k0, k1)
	if len(j.Keys) != 1 || j.Keys[0] != want {
		t.Errorf("pairwise keys = %v, want [%v]", j.Keys, want)
	}
	fo := e.Op(query.KindFullOuter, []*query.Predicate{pred}, e.Scan(0), e.Scan(1))
	if len(fo.Keys) != 1 || fo.Keys[0] != want {
		t.Errorf("full outer keys = %v", fo.Keys)
	}
}

func TestGroupProps(t *testing.T) {
	q, _ := twoRelQuery()
	e := NewEstimator(q)
	s0 := e.Scan(0)
	g := e.Group(s0, bitset.NewV(q.AttrID("g0")))
	if math.Abs(g.Card-10) > 1e-9 {
		t.Errorf("Γ card = %v, want 10 (distinct g0)", g.Card)
	}
	if math.Abs(g.Cost-10) > 1e-9 {
		t.Errorf("Γ cost = %v", g.Cost)
	}
	if !g.DupFree || !g.HasKeySubsetOf(bitset.NewV(q.AttrID("g0"))) {
		t.Error("Γ result must be dupfree with G as key")
	}
	// Grouping by more attributes than rows: capped at input card.
	tiny := e.Scan(1) // card 50, distinct(a0)=100 irrelevant here
	g2 := e.Group(tiny, bitset.NewV(q.AttrID("a0")))
	if g2.Card > tiny.Card {
		t.Errorf("Γ card %v exceeds input %v", g2.Card, tiny.Card)
	}
}

func TestProjectIsFree(t *testing.T) {
	q, _ := twoRelQuery()
	e := NewEstimator(q)
	s := e.Scan(1)
	p := e.Project(s)
	if p.Cost != s.Cost || p.Card != s.Card || !p.DupFree {
		t.Error("projection must be free and property-preserving")
	}
	if p.Kind != plan.NodeProject {
		t.Error("wrong node kind")
	}
}

func TestGroupOnEmptyAttrs(t *testing.T) {
	q, _ := twoRelQuery()
	e := NewEstimator(q)
	g := e.Group(e.Scan(0), bitset.VSet{})
	if g.Card != 1 {
		t.Errorf("Γ_∅ card = %v, want 1", g.Card)
	}
}

func TestCapKeysDropsDominated(t *testing.T) {
	keys := capKeys(nil, []bitset.VSet{
		bitset.NewV(1, 2),
		bitset.NewV(1),    // subsumes {1,2}
		bitset.NewV(1, 2), // duplicate of a dominated key
		bitset.NewV(3),    // independent
		bitset.NewV(1, 3), // dominated by {1} and {3}
	})
	if len(keys) != 2 {
		t.Fatalf("capKeys = %v", keys)
	}
	has := func(k bitset.VSet) bool {
		for _, x := range keys {
			if x == k {
				return true
			}
		}
		return false
	}
	if !has(bitset.NewV(1)) || !has(bitset.NewV(3)) {
		t.Errorf("capKeys = %v", keys)
	}
}
