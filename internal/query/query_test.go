package query

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"eagg/internal/aggfn"
	"eagg/internal/bitset"
)

func buildValid() *Query {
	q := New()
	r0 := q.AddRelation("r0", 100)
	r1 := q.AddRelation("r1", 200)
	a0 := q.AddAttr(r0, "a0", 10)
	g0 := q.AddAttr(r0, "g0", 5)
	b1 := q.AddAttr(r1, "b1", 20)
	q.Root = &OpNode{
		Kind:  KindJoin,
		Left:  &OpNode{Kind: KindScan, Rel: r0},
		Right: &OpNode{Kind: KindScan, Rel: r1},
		Pred:  &Predicate{Left: []int{a0}, Right: []int{b1}, Selectivity: 0.05},
	}
	q.SetGrouping([]int{g0}, aggfn.Vector{{Out: "c", Kind: aggfn.CountStar}})
	return q
}

func TestValidate(t *testing.T) {
	if err := buildValid().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(q *Query)
		want   string
	}{
		{"missing tree", func(q *Query) { q.Root = nil }, "missing operator tree"},
		{"bad selectivity", func(q *Query) { q.Root.Pred.Selectivity = 0 }, "selectivity"},
		{"NaN selectivity", func(q *Query) { q.Root.Pred.Selectivity = math.NaN() }, "selectivity NaN"},
		{"negative cardinality", func(q *Query) { q.Relations[0].Card = -5 }, "cardinality -5"},
		{"NaN cardinality", func(q *Query) { q.Relations[1].Card = math.NaN() }, "cardinality NaN"},
		{"infinite cardinality", func(q *Query) { q.Relations[0].Card = math.Inf(1) }, "cardinality +Inf"},
		{"NaN distinct count", func(q *Query) { q.Distinct[q.AttrID("a0")] = math.NaN() }, `"a0" has NaN distinct`},
		{"infinite distinct count", func(q *Query) { q.Distinct[q.AttrID("b1")] = math.Inf(1) }, `"b1" has +Inf distinct`},
		{"missing predicate", func(q *Query) { q.Root.Pred = nil }, "without predicate"},
		{"swapped predicate sides", func(q *Query) {
			q.Root.Pred.Left, q.Root.Pred.Right = q.Root.Pred.Right, q.Root.Pred.Left
		}, "not in the matching subtrees"},
		{"unknown aggregate attr", func(q *Query) {
			q.Aggregates = aggfn.Vector{{Out: "x", Kind: aggfn.Sum, Arg: "nope"}}
		}, "unknown attribute"},
	}
	for _, c := range cases {
		q := buildValid()
		c.mutate(q)
		err := q.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want containing %q", c.name, err, c.want)
		}
	}
	// An empty relation is a relation.
	q := buildValid()
	q.Relations[0].Card = 0
	if err := q.Validate(); err != nil {
		t.Errorf("empty relation: %v", err)
	}
}

func TestRelsAndAttrs(t *testing.T) {
	q := buildValid()
	if q.Root.Rels() != bitset.NewV(0, 1) {
		t.Errorf("Rels = %v", q.Root.Rels())
	}
	if got := q.RelsOf(bitset.NewV(q.AttrID("a0"), q.AttrID("b1"))); got != bitset.NewV(0, 1) {
		t.Errorf("RelsOf = %v", got)
	}
	attrs0 := q.AttrsOf(bitset.NewV(0))
	if !attrs0.Contains(q.AttrID("a0")) || attrs0.Contains(q.AttrID("b1")) {
		t.Errorf("AttrsOf = %v", attrs0)
	}
}

func TestAggSourceRels(t *testing.T) {
	q := buildValid()
	q.Aggregates = aggfn.Vector{
		{Out: "c", Kind: aggfn.CountStar},
		{Out: "s", Kind: aggfn.Sum, Arg: "b1"},
	}
	src := q.AggSourceRels()
	if !src[0].IsEmpty() {
		t.Errorf("count(*) source = %v", src[0])
	}
	if src[1] != bitset.NewV(1) {
		t.Errorf("sum(b1) source = %v", src[1])
	}
}

func TestPredicateAttrSets(t *testing.T) {
	p := &Predicate{Left: []int{1, 3}, Right: []int{5}, Selectivity: 0.5}
	if p.LeftAttrs() != bitset.NewV(1, 3) || p.RightAttrs() != bitset.NewV(5) {
		t.Error("predicate attr sets broken")
	}
	if p.Attrs() != bitset.NewV(1, 3, 5) {
		t.Error("Attrs broken")
	}
}

func TestOpKindPredicates(t *testing.T) {
	if !KindJoin.Commutative() || !KindFullOuter.Commutative() {
		t.Error("B and K are commutative")
	}
	if KindLeftOuter.Commutative() || KindSemiJoin.Commutative() {
		t.Error("E and N are not commutative")
	}
	for _, k := range []OpKind{KindSemiJoin, KindAntiJoin, KindGroupJoin} {
		if !k.LeftOnly() {
			t.Errorf("%v must be left-only", k)
		}
	}
	if KindJoin.LeftOnly() || KindFullOuter.LeftOnly() {
		t.Error("B/K are not left-only")
	}
}

func TestDuplicateAttrPanics(t *testing.T) {
	q := New()
	r := q.AddRelation("r", 10)
	q.AddAttr(r, "a", 5)
	defer func() {
		if recover() == nil {
			t.Error("duplicate attribute must panic")
		}
	}()
	q.AddAttr(r, "a", 5)
}

func TestUnknownAttrPanics(t *testing.T) {
	q := New()
	defer func() {
		if recover() == nil {
			t.Error("unknown attribute must panic")
		}
	}()
	q.AttrID("missing")
}

func TestDistinctFloor(t *testing.T) {
	q := New()
	r := q.AddRelation("r", 10)
	a := q.AddAttr(r, "a", 0.2)
	if q.Distinct[a] < 1 {
		t.Error("distinct counts are floored at 1")
	}
}

func TestTooManyRelationsIsError(t *testing.T) {
	if MaxRelations != (bitset.VSet{}).Cap()-1 {
		t.Fatalf("MaxRelations %d must stay one below the wide path's capacity %d", MaxRelations, (bitset.VSet{}).Cap())
	}
	q := New()
	for i := 0; i < MaxRelations+10; i++ {
		q.AddRelation("r", 10) // must not panic past the relation cap
	}
	if len(q.Relations) != MaxRelations {
		t.Fatalf("want the catalog capped at %d relations, got %d", MaxRelations, len(q.Relations))
	}
	if q.Err() == nil || !strings.Contains(q.Err().Error(), "too many relations") {
		t.Fatalf("want a too-many-relations error, got %v", q.Err())
	}
	if err := q.Validate(); err == nil || !strings.Contains(err.Error(), "too many relations") {
		t.Fatalf("Validate must surface the construction error, got %v", err)
	}
}

func TestTooManyAttrsIsError(t *testing.T) {
	q := New()
	r := q.AddRelation("r", 10)
	for i := 0; i < MaxAttrs+10; i++ {
		q.AddAttr(r, fmt.Sprintf("a%d", i), 2) // must not panic past the attr cap
	}
	if len(q.AttrNames) != MaxAttrs {
		t.Fatalf("want the universe capped at %d attributes, got %d", MaxAttrs, len(q.AttrNames))
	}
	if err := q.Validate(); err == nil || !strings.Contains(err.Error(), "too many attributes") {
		t.Fatalf("Validate must surface the attribute overflow, got %v", err)
	}
}

func TestScanOrderValidated(t *testing.T) {
	q := buildValid()
	q.SetScanOrder(0, 2) // b1 belongs to r1, not r0
	if err := q.Validate(); err == nil || !strings.Contains(err.Error(), "scan order") {
		t.Fatalf("want a scan-order validation error, got %v", err)
	}
	q2 := buildValid()
	q2.SetScanOrder(0, 0)
	if err := q2.Validate(); err != nil {
		t.Fatal(err)
	}
}
