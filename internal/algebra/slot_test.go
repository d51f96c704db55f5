package algebra

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"eagg/internal/aggfn"
)

// randomRel builds a relation with mixed value kinds: NULLs, small ints,
// floats (including integral floats, which join-equal ints), and strings
// containing the characters of the legacy key encoding.
func randomRel(rng *rand.Rand, attrs []string, rows int) *Rel {
	r := &Rel{Attrs: append([]string(nil), attrs...)}
	for i := 0; i < rows; i++ {
		t := make(Tuple, len(attrs))
		for _, a := range attrs {
			t[a] = randomValue(rng)
		}
		r.Tuples = append(r.Tuples, t)
	}
	return r
}

func randomValue(rng *rand.Rand) Value {
	switch rng.Intn(10) {
	case 0:
		return Null
	case 1:
		return Float(float64(rng.Intn(4))) // integral float: join-equals ints
	case 2:
		return Float(float64(rng.Intn(8)) / 2)
	case 3:
		return Str([]string{"a", "b", "a|b", "s", "|", "a|sb"}[rng.Intn(6)])
	default:
		return Int(int64(rng.Intn(4)))
	}
}

// sameRel asserts two relations are identical as sequences of tuples over
// the given schema (stronger than bag equality: the hash operators
// promise nested-loop output order).
func sameRel(t *testing.T, want, got *Rel, attrs []string) {
	t.Helper()
	if len(want.Tuples) != len(got.Tuples) {
		t.Fatalf("cardinality: want %d got %d\nwant:\n%v\ngot:\n%v",
			len(want.Tuples), len(got.Tuples), want, got)
	}
	for i := range want.Tuples {
		if encodeTuple(want.Tuples[i], attrs) != encodeTuple(got.Tuples[i], attrs) {
			t.Fatalf("row %d differs\nwant:\n%v\ngot:\n%v", i, want, got)
		}
	}
}

// TestHashJoinsMatchNestedLoops is the operator-level equivalence
// property: every hash operator must produce exactly the nested-loop
// reference result, including NULL key semantics, padding defaults and
// cross-kind numeric key equality.
func TestHashJoinsMatchNestedLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		la := []string{"l.k1", "l.k2", "l.v"}
		ra := []string{"r.k1", "r.k2", "r.w"}
		l := randomRel(rng, la, rng.Intn(12))
		r := randomRel(rng, ra, rng.Intn(12))
		for _, tu := range r.Tuples {
			// r.w is aggregated below; keep it numeric (the runtime's
			// relations are typed consistently per attribute).
			if tu["r.w"].Kind == KindString {
				tu["r.w"] = Int(int64(len(tu["r.w"].S)))
			}
		}
		lt, rt := TableOf(l), TableOf(r)

		nKeys := rng.Intn(3) // 0 keys = cross-product degeneration
		var preds []Pred
		var lk, rk []int
		for i := 0; i < nKeys; i++ {
			preds = append(preds, EqAttr(la[i], ra[i]))
			lk = append(lk, lt.Schema.MustSlot(la[i]))
			rk = append(rk, rt.Schema.MustSlot(ra[i]))
		}
		pred := AndPred(preds...)

		sameRel(t, Join(l, r, pred), HashJoin(lt, rt, lk, rk).Rel(), append(la, ra...))
		sameRel(t, SemiJoin(l, r, pred), HashSemiJoin(lt, rt, lk, rk).Rel(), la)
		sameRel(t, AntiJoin(l, r, pred), HashAntiJoin(lt, rt, lk, rk).Rel(), la)

		var defs Defaults
		pad := NullRow(rt.Schema)
		if rng.Intn(2) == 0 {
			defs = Defaults{"r.w": Int(1)}
			pad[rt.Schema.MustSlot("r.w")] = Int(1)
		}
		sameRel(t, LeftOuter(l, r, pred, defs),
			HashLeftOuter(lt, rt, lk, rk, pad).Rel(), append(la, ra...))

		lpad := NullRow(lt.Schema)
		sameRel(t, FullOuter(l, r, pred, nil, defs),
			HashFullOuter(lt, rt, lk, rk, lpad, pad).Rel(), append(la, ra...))

		gjVec := aggfn.Vector{
			{Out: "gj_cnt", Kind: aggfn.CountStar},
			{Out: "gj_sum", Kind: aggfn.Sum, Arg: "r.w"},
			{Out: "gj_min", Kind: aggfn.Min, Arg: "r.w"},
		}
		sameRel(t, GroupJoin(l, r, pred, gjVec),
			HashGroupJoin(lt, rt, lk, rk, gjVec).Rel(),
			append(la, "gj_cnt", "gj_sum", "gj_min"))
	}
}

// TestHashGroupMatchesGroup checks typed hash aggregation against the
// reference Group for every aggregate kind, including the derived forms
// the engine's eager-aggregation rewrites produce.
func TestHashGroupMatchesGroup(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vec := aggfn.Vector{
		{Out: "o_cnt", Kind: aggfn.CountStar},
		{Out: "o_cnta", Kind: aggfn.Count, Arg: "e.a"},
		{Out: "o_sum", Kind: aggfn.Sum, Arg: "e.a"},
		{Out: "o_min", Kind: aggfn.Min, Arg: "e.a"},
		{Out: "o_max", Kind: aggfn.Max, Arg: "e.b"},
		{Out: "o_avg", Kind: aggfn.Avg, Arg: "e.b"},
		{Out: "o_st", Kind: aggfn.SumTimes, Arg: "e.a", Arg2: "e.b"},
		{Out: "o_snn", Kind: aggfn.SumIfNotNull, Arg: "e.a", Arg2: "e.b"},
		{Out: "o_am", Kind: aggfn.AvgMerge, Arg: "e.a", Arg2: "e.b"},
		{Out: "o_amw", Kind: aggfn.AvgMerge, Arg: "e.a", Arg2: "e.b", Weight: "e.w"},
		{Out: "o_aw", Kind: aggfn.AvgWeighted, Arg: "e.a", Arg2: "e.w"},
		{Out: "o_sd", Kind: aggfn.SumDistinct, Arg: "e.a"},
		{Out: "o_cd", Kind: aggfn.CountDistinct, Arg: "e.a"},
		{Out: "o_ad", Kind: aggfn.AvgDistinct, Arg: "e.b"},
	}
	numeric := func(rng *rand.Rand) Value {
		switch rng.Intn(6) {
		case 0:
			return Null
		case 1:
			return Float(float64(rng.Intn(8)) / 4)
		default:
			return Int(int64(rng.Intn(5)))
		}
	}
	for trial := 0; trial < 200; trial++ {
		attrs := []string{"e.g1", "e.g2", "e.a", "e.b", "e.w"}
		e := &Rel{Attrs: attrs}
		for i := 0; i < rng.Intn(20); i++ {
			tu := Tuple{
				"e.g1": randomValue(rng),
				"e.g2": randomValue(rng),
				"e.a":  numeric(rng),
				"e.b":  numeric(rng),
				"e.w":  numeric(rng),
			}
			e.Tuples = append(e.Tuples, tu)
		}
		g := []string{"e.g1", "e.g2"}[:1+rng.Intn(2)]
		et := TableOf(e)
		want := Group(e, g, vec)
		got := HashGroup(et, g, vec)
		outAttrs := append(append([]string{}, g...), vec.Outs()...)
		sameRel(t, want, got.Rel(), outAttrs)
	}
}

// TestGroupingKeyCollision pins the fix for the legacy string-concatenated
// grouping keys: under the old encoding ("s"+payload joined by '|'), the
// two tuples below encoded identically — ("a|sb|sc", "d") and
// ("a", "b|sc|sd") both rendered as "sa|sb|sc|sd|" — so grouping merged
// two distinct groups and DISTINCT dropped a row. The length-prefixed
// encoding keeps them apart; the typed binary keys of the slot runtime
// are collision-proof by construction.
func TestGroupingKeyCollision(t *testing.T) {
	rel := NewRel([]string{"x", "y"},
		[]any{"a|sb|sc", "d"},
		[]any{"a", "b|sc|sd"},
	)
	if g := Group(rel, []string{"x", "y"}, aggfn.Vector{{Out: "c", Kind: aggfn.CountStar}}); g.Card() != 2 {
		t.Fatalf("Group merged distinct groups: got %d groups\n%v", g.Card(), g)
	}
	if d := DistinctProject(rel, []string{"x", "y"}); d.Card() != 2 {
		t.Fatalf("DistinctProject merged distinct tuples: got %d rows\n%v", d.Card(), d)
	}
	tab := TableOf(rel)
	if g := HashGroup(tab, []string{"x", "y"}, aggfn.Vector{{Out: "c", Kind: aggfn.CountStar}}); g.Card() != 2 {
		t.Fatalf("HashGroup merged distinct groups: got %d groups", g.Card())
	}
	// The simpler shape from the issue: a value containing the separator
	// must not merge with the tuple of its fragments.
	rel2 := NewRel([]string{"x", "y"},
		[]any{"a|b", "c"},
		[]any{"a", "b|c"},
	)
	if d := DistinctProject(rel2, []string{"x", "y"}); d.Card() != 2 {
		t.Fatalf("DistinctProject merged %q-style tuples: got %d rows", "a|b", d.Card())
	}
}

// TestNaNKeySemantics pins the strict-equality treatment of NaN: NaN
// join keys match nothing (NaN ≠ NaN, like the nested-loop EqStrict
// path), while grouping collapses all NaN payloads into one group (like
// the reference encoding, which renders every NaN as "NaN").
func TestNaNKeySemantics(t *testing.T) {
	nan := Float(math.NaN())
	l := NewRel([]string{"l.k"}, []any{nan}, []any{1.5})
	r := NewRel([]string{"r.k"}, []any{nan}, []any{1.5})
	lt, rt := TableOf(l), TableOf(r)
	lk, rk := []int{0}, []int{0}
	pred := EqAttr("l.k", "r.k")

	sameRel(t, Join(l, r, pred), HashJoin(lt, rt, lk, rk).Rel(), []string{"l.k", "r.k"})
	sameRel(t, AntiJoin(l, r, pred), HashAntiJoin(lt, rt, lk, rk).Rel(), []string{"l.k"})
	if got := HashJoin(lt, rt, lk, rk); got.Card() != 1 {
		t.Fatalf("NaN join keys must match nothing: got %d rows", got.Card())
	}

	g := NewRel([]string{"g"}, []any{nan}, []any{Float(math.Float64frombits(0x7ff8000000000001))})
	gt := TableOf(g)
	want := Group(g, []string{"g"}, aggfn.Vector{{Out: "c", Kind: aggfn.CountStar}})
	got := HashGroup(gt, []string{"g"}, aggfn.Vector{{Out: "c", Kind: aggfn.CountStar}})
	if want.Card() != 1 || got.Card() != 1 {
		t.Fatalf("NaN payloads must form one group: reference %d, hash %d", want.Card(), got.Card())
	}
}

// TestTableRoundTrip: Rel → Table → Rel preserves the bag and the schema.
func TestTableRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		attrs := []string{"t.a", "t.b", "t.c"}
		r := randomRel(rng, attrs, rng.Intn(10))
		back := TableOf(r).Rel()
		sameRel(t, r, back, attrs)
		if fmt.Sprint(back.Attrs) != fmt.Sprint(r.Attrs) {
			t.Fatalf("schema drift: %v vs %v", back.Attrs, r.Attrs)
		}
	}
}
