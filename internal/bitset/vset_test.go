package bitset

import (
	"math/bits"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// These tests covered the reference-typed Set until it was deleted (it had
// no importer); they now hold VSet — the arbitrary-width set that is live —
// to the same word-boundary cases and map-model cross-checks.

func TestSetBasics(t *testing.T) {
	s := NewV(0, 130, 199)
	if !s.Contains(130) || s.Contains(131) {
		t.Error("Contains broken across word boundaries")
	}
	if s.Len() != 3 {
		t.Errorf("Len = %d", s.Len())
	}
	s = s.Remove(130)
	if s.Contains(130) || s.Len() != 2 {
		t.Error("Remove broken")
	}
}

func TestSetZeroValue(t *testing.T) {
	var s VSet
	if !s.IsEmpty() || s.Len() != 0 {
		t.Error("zero value should be empty")
	}
	if s = s.Add(70); !s.Contains(70) {
		t.Error("Add on zero value broken")
	}
}

func TestSetGrowth(t *testing.T) {
	s := NewV().Add(500)
	if !s.Contains(500) || s.Contains(499) {
		t.Error("growth broken")
	}
	if s = s.Remove(10000); s.Len() != 1 { // beyond the packed words: no-op, no panic
		t.Error("Remove beyond capacity changed set")
	}
}

func TestSetAlgebraOps(t *testing.T) {
	a := NewV(1, 100, 200)
	b := NewV(100, 300)
	if u := a.Union(b); u != NewV(1, 100, 200, 300) {
		t.Errorf("union = %v", u)
	}
	if i := a.Intersect(b); i != NewV(100) {
		t.Errorf("intersect = %v", i)
	}
	if d := a.Diff(b); d != NewV(1, 200) {
		t.Errorf("diff = %v", d)
	}
	// Union with the empty set returns the other operand, either way round.
	if a.Union(VSet{}) != a || (VSet{}).Union(a) != a {
		t.Error("union with the empty set changed the set")
	}
	if a.Len() != 3 || b.Len() != 2 {
		t.Error("value ops mutated inputs")
	}
}

func TestSetSubsetEqual(t *testing.T) {
	a := NewV(1, 128)
	b := NewV(1, 128, 400)
	if !a.SubsetOf(b) || b.SubsetOf(a) {
		t.Error("SubsetOf broken")
	}
	// Canonical packing: a set that shrank back equals one that never grew.
	if c := NewV(1, 128, 900).Remove(900); a != c {
		t.Error("== must ignore trailing zero words")
	}
	if !a.Intersects(b) || a.Intersects(NewV(77)) {
		t.Error("Intersects broken")
	}
}

func TestSetMinMaxElems(t *testing.T) {
	s := NewV(65, 3, 500)
	if s.Min() != 3 || s.Max() != 500 {
		t.Errorf("Min/Max = %d/%d", s.Min(), s.Max())
	}
	got := s.Elems()
	want := []int{3, 65, 500}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Elems = %v", got)
		}
	}
}

func TestFromSet64(t *testing.T) {
	s := New64(0, 63).ToV()
	if !s.Contains(0) || !s.Contains(63) || s.Len() != 2 {
		t.Errorf("ToV = %v", s)
	}
	if !Empty64.ToV().IsEmpty() {
		t.Error("ToV(empty) should be empty")
	}
}

func TestSetString(t *testing.T) {
	if got := NewV(2, 70).String(); got != "{2, 70}" {
		t.Errorf("String = %q", got)
	}
}

// Randomized cross-check of VSet against a map-based model.
func TestSetAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var s VSet
	model := map[int]bool{}
	for op := 0; op < 5000; op++ {
		e := rng.Intn(300)
		switch rng.Intn(3) {
		case 0:
			s = s.Add(e)
			model[e] = true
		case 1:
			s = s.Remove(e)
			delete(model, e)
		case 2:
			if s.Contains(e) != model[e] {
				t.Fatalf("divergence at element %d after %d ops", e, op)
			}
		}
	}
	if s.Len() != len(model) {
		t.Fatalf("Len = %d, model has %d", s.Len(), len(model))
	}
	s.ForEach(func(e int) {
		if !model[e] {
			t.Fatalf("set contains %d not in model", e)
		}
	})
}

// Randomized cross-check of Union/Intersect/Diff semantics, one operand
// sometimes narrow (≤ 64) so the single-word fast paths are in the mix.
func TestSetMutatingOpsAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 100; trial++ {
		var a, b VSet
		ma, mb := map[int]bool{}, map[int]bool{}
		for i := 0; i < 40; i++ {
			x, y := rng.Intn(256), rng.Intn(64+192*(trial%2))
			a = a.Add(x)
			ma[x] = true
			b = b.Add(y)
			mb[y] = true
		}
		check := func(got VSet, pred func(e int) bool) {
			for e := 0; e < 256; e++ {
				if got.Contains(e) != pred(e) {
					t.Fatalf("trial %d: element %d mismatch", trial, e)
				}
			}
		}
		check(a.Union(b), func(e int) bool { return ma[e] || mb[e] })
		check(a.Intersect(b), func(e int) bool { return ma[e] && mb[e] })
		check(a.Diff(b), func(e int) bool { return ma[e] && !mb[e] })
		check(b.Diff(a), func(e int) bool { return mb[e] && !ma[e] })
	}
}

// TestWideMirrorsSet64 holds VSet, the enumeration layers' wide path, to
// Set64's answers on sets both can represent.
func TestWideMirrorsSet64(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		a64 := Set64(rng.Uint64() >> 1)
		b64 := Set64(rng.Uint64() >> 1)
		a, b := a64.ToV(), b64.ToV()

		if got, want := a.Union(b), a64.Union(b64).ToV(); got != want {
			t.Fatalf("Union mismatch: %v vs %v", got, want)
		}
		if got, want := a.Intersect(b), a64.Intersect(b64).ToV(); got != want {
			t.Fatalf("Intersect mismatch")
		}
		if got, want := a.Diff(b), a64.Diff(b64).ToV(); got != want {
			t.Fatalf("Diff mismatch")
		}
		if a.Len() != a64.Len() || a.IsEmpty() != a64.IsEmpty() ||
			a.IsSingleton() != a64.IsSingleton() ||
			a.Intersects(b) != a64.Intersects(b64) ||
			a.SubsetOf(b) != a64.SubsetOf(b64) {
			t.Fatalf("predicate mismatch for %v / %v", a64, b64)
		}
		if !a64.IsEmpty() {
			if a.Min() != a64.Min() || a.Max() != a64.Max() {
				t.Fatalf("Min/Max mismatch for %v", a64)
			}
			if a.MinSet() != a64.MinSet().ToV() {
				t.Fatalf("MinSet mismatch for %v", a64)
			}
		}
		if !reflect.DeepEqual(a.Elems(), a64.Elems()) {
			t.Fatalf("Elems mismatch for %v", a64)
		}
		if a.String() != a64.String() {
			t.Fatalf("String mismatch: %s vs %s", a.String(), a64.String())
		}
	}
}

// TestWideSubsetsAscOrder pins the wide ascending-subset enumeration to
// Set64's — the order the DP determinism contract relies on — including
// across a word boundary.
func TestWideSubsetsAscOrder(t *testing.T) {
	s64 := New64(0, 3, 5, 9, 12)
	var want []string
	s64.SubsetsAsc(func(sub Set64) bool {
		want = append(want, sub.String())
		return true
	})
	var got []string
	s64.ToV().SubsetsAsc(func(sub VSet) bool {
		got = append(got, sub.String())
		return true
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("VSet.SubsetsAsc order diverges from Set64:\n got %v\nwant %v", got, want)
	}

	// Cross-word: bits straddling the 64-bit boundary enumerate in
	// ascending numeric order and the borrow propagates between words.
	w := NewV(62, 63, 64, 65, 130)
	var subs []VSet
	w.SubsetsAsc(func(sub VSet) bool {
		subs = append(subs, sub)
		return true
	})
	if len(subs) != 31 { // 2^5 - 1
		t.Fatalf("got %d subsets, want 31", len(subs))
	}
	seen := map[VSet]bool{}
	for i, sub := range subs {
		if sub.IsEmpty() || !sub.SubsetOf(w) || seen[sub] {
			t.Fatalf("subset %d invalid or duplicated: %v", i, sub)
		}
		seen[sub] = true
	}
	if subs[0] != NewV(62) || subs[len(subs)-1] != w {
		t.Fatalf("enumeration must start at the min singleton and end at the full set")
	}
}

func TestWideSubsetsAscEarlyStop(t *testing.T) {
	w := NewV(1, 2, 70, 200)
	n := 0
	w.SubsetsAsc(func(VSet) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("early stop ignored: %d callbacks", n)
	}
}

func TestVSetBasics(t *testing.T) {
	s := NewV(0, 63, 64, 100, 511, 700)
	if s.Len() != 6 || !s.Contains(700) || s.Contains(99) {
		t.Fatalf("membership broken: %v", s)
	}
	if s.Min() != 0 || s.Max() != 700 {
		t.Fatalf("Min/Max broken: %d %d", s.Min(), s.Max())
	}
	if got := s.Elems(); !reflect.DeepEqual(got, []int{0, 63, 64, 100, 511, 700}) {
		t.Fatalf("Elems: %v", got)
	}
	if s.String() != "{0, 63, 64, 100, 511, 700}" {
		t.Fatalf("String: %s", s.String())
	}

	// Canonical trimming: removing the top element must shrink hi so ==
	// remains content equality.
	if s.Remove(700).Remove(511) != NewV(0, 63, 64, 100) {
		t.Fatalf("canonical trimming violated")
	}
	if !NewV(64).Remove(64).IsEmpty() {
		t.Fatalf("removing the only high bit must yield the canonical empty set")
	}
	if NewV(64).Remove(64) != (VSet{}) {
		t.Fatalf("empty sets must compare equal")
	}

	if !NewV(1, 100).SubsetOf(s.Add(1)) || NewV(1, 99).SubsetOf(s) {
		t.Fatalf("SubsetOf broken")
	}
	if !NewV(100).Intersects(s) || NewV(101).Intersects(s) {
		t.Fatalf("Intersects broken")
	}
	if got := NewV(3, 64, 200).Union(NewV(3, 70)); got != NewV(3, 64, 70, 200) {
		t.Fatalf("Union: %v", got)
	}
	if got := NewV(3, 64, 200).Intersect(NewV(64, 200, 300)); got != NewV(64, 200) {
		t.Fatalf("Intersect: %v", got)
	}
	if got := NewV(3, 64, 200).Diff(NewV(64, 300)); got != NewV(3, 200) {
		t.Fatalf("Diff: %v", got)
	}
	if !NewV(500).IsSingleton() || NewV(1, 500).IsSingleton() {
		t.Fatalf("IsSingleton broken")
	}
}

// TestVSetRank checks Rank against a count over Elems, on both sides of
// the inline-word boundary and for elements outside the set.
func TestVSetRank(t *testing.T) {
	for _, s := range []VSet{NewV(), NewV(0), NewV(3, 9, 63), NewV(1, 64, 65, 127, 128, 200), NewV(130)} {
		for e := 0; e < 260; e++ {
			want := 0
			for _, x := range s.Elems() {
				if x < e {
					want++
				}
			}
			if got := s.Rank(e); got != want {
				t.Fatalf("%v.Rank(%d) = %d, want %d", s, e, got, want)
			}
		}
	}
}

func TestVSetLessTotalOrder(t *testing.T) {
	sets := []VSet{NewV(), NewV(0), NewV(5), NewV(63), NewV(64), NewV(0, 64), NewV(65), NewV(128), NewV(63, 128)}
	shuffled := append([]VSet(nil), sets...)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	sort.Slice(shuffled, func(i, j int) bool { return shuffled[i].Less(shuffled[j]) })
	if !reflect.DeepEqual(shuffled, sets) {
		t.Fatalf("Less is not the expected numeric order: %v", shuffled)
	}
	for _, s := range sets {
		if s.Less(s) {
			t.Fatalf("irreflexivity violated for %v", s)
		}
	}
}

func TestConversions(t *testing.T) {
	s64 := New64(1, 5, 40)
	if s64.ToV() != NewV(1, 5, 40) {
		t.Fatalf("Set64.ToV broken")
	}
	if Set64(0).FromV(NewV(1, 5, 40)) != s64 {
		t.Fatalf("Set64.FromV broken")
	}
	w := NewV(1, 70, 300)
	if w.ToV() != w || (VSet{}).FromV(w) != w {
		t.Fatalf("VSet.ToV/FromV must be the identity")
	}

	defer func() {
		if recover() == nil {
			t.Fatalf("Set64.FromV must panic on wide VSet")
		}
	}()
	Set64(0).FromV(NewV(64))
}

// TestGenericHelpers exercises the RelSet constraint with both
// representations.
func TestGenericHelpers(t *testing.T) {
	if SingleIn[Set64](5) != New64(5) || SingleIn[VSet](100) != NewV(100) {
		t.Fatalf("SingleIn broken")
	}
	if RangeIn[Set64](0, 4) != New64(0, 1, 2, 3) || RangeIn[Set64](0, 63) != Range64(0, 63) {
		t.Fatalf("RangeIn broken")
	}
	if RangeIn[VSet](62, 66) != NewV(62, 63, 64, 65) {
		t.Fatalf("RangeIn across word boundary broken")
	}
	for lo := 0; lo < 300; lo += 37 {
		for hi := lo; hi < 700; hi += 53 {
			want := VSet{}
			for e := lo; e < hi; e++ {
				want = want.Add(e)
			}
			if got := RangeIn[VSet](lo, hi); got != want {
				t.Fatalf("RangeIn(%d, %d) = %v", lo, hi, got)
			}
		}
	}
	if FromVIn[VSet](NewV(3, 99)) != NewV(3, 99) {
		t.Fatalf("FromVIn broken")
	}
}

// modelWords is the width of the plain word model below: 1,024 elements,
// past the enumeration layers' 512-relation cap.
const modelWords = 16

// randModel draws a random word model over a universe of u elements, with
// a density that varies from call to call so sparse, dense and empty
// words all occur.
func randModel(rng *rand.Rand, u int) []uint64 {
	m := make([]uint64, modelWords)
	for e, p := 0, rng.Intn(6); e < u; e++ {
		if rng.Intn(1<<uint(p)) == 0 && rng.Intn(4) != 0 {
			m[e/64] |= 1 << uint(e%64)
		}
	}
	return m
}

// checkModel fails unless s holds exactly the elements of m and is
// canonical: its word count is that of m with trailing zero words trimmed.
func checkModel(t *testing.T, what string, s VSet, m []uint64) {
	t.Helper()
	n := len(m)
	for n > 1 && m[n-1] == 0 {
		n--
	}
	if s.NumWords() != n || len(s.hi) != 8*(n-1) {
		t.Fatalf("%s: %v spans %d words, model %d", what, s, s.NumWords(), n)
	}
	for w := 0; w < n; w++ {
		if s.Word(w) != m[w] {
			t.Fatalf("%s: word %d is %#x, model %#x", what, w, s.Word(w), m[w])
		}
	}
}

func modelOp(a, b []uint64, op func(x, y uint64) uint64) []uint64 {
	out := make([]uint64, modelWords)
	for i := range out {
		out[i] = op(a[i], b[i])
	}
	return out
}

// modelNext is NextSubset on the model: s & (sub - s), the subtraction
// borrowing across all words.
func modelNext(s, sub []uint64) []uint64 {
	out := make([]uint64, modelWords)
	var borrow uint64
	for i := range out {
		var d uint64
		d, borrow = bits.Sub64(sub[i], s[i], borrow)
		out[i] = s[i] & d
	}
	return out
}

// TestVSetAgainstWordModel compares every multi-word operation of VSet
// with a plain []uint64 model on random sets over universes up to 1,024
// elements, and checks that every result is canonical, so that == holds
// exactly when the contents are equal.
func TestVSetAgainstWordModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1024))
	universes := []int{1, 63, 64, 65, 128, 200, 512, 700, 1024}
	for trial := 0; trial < 2000; trial++ {
		ma := randModel(rng, universes[rng.Intn(len(universes))])
		mb := randModel(rng, universes[rng.Intn(len(universes))])
		if trial%5 == 0 {
			mb = modelOp(ma, mb, func(x, y uint64) uint64 { return x & y }) // b ⊆ a
		}
		a, b := FromWords(ma), FromWords(mb)
		checkModel(t, "FromWords", a, ma)
		equal := reflect.DeepEqual(ma, mb)
		if (a == b) != equal {
			t.Fatalf("%v == %v is %v, contents equal %v", a, b, a == b, equal)
		}

		checkModel(t, "Union", a.Union(b), modelOp(ma, mb, func(x, y uint64) uint64 { return x | y }))
		checkModel(t, "Intersect", a.Intersect(b), modelOp(ma, mb, func(x, y uint64) uint64 { return x & y }))
		checkModel(t, "Diff", a.Diff(b), modelOp(ma, mb, func(x, y uint64) uint64 { return x &^ y }))
		inter, sub := false, true
		for i := range ma {
			inter = inter || ma[i]&mb[i] != 0
			sub = sub && ma[i]&^mb[i] == 0
		}
		if a.Intersects(b) != inter || a.SubsetOf(b) != sub {
			t.Fatalf("%v vs %v: Intersects %v (model %v), SubsetOf %v (model %v)",
				a, b, a.Intersects(b), inter, a.SubsetOf(b), sub)
		}

		e := rng.Intn(modelWords * 64)
		mAdd, mRem := append([]uint64(nil), ma...), append([]uint64(nil), ma...)
		mAdd[e/64] |= 1 << uint(e%64)
		mRem[e/64] &^= 1 << uint(e%64)
		checkModel(t, "Add", a.Add(e), mAdd)
		checkModel(t, "Remove", a.Remove(e), mRem)

		mMin := make([]uint64, modelWords)
		for i, w := range ma {
			if w != 0 {
				mMin[i] = w & -w
				break
			}
		}
		checkModel(t, "MinSet", a.MinSet(), mMin)
		// b ∩ a is a subset of a: step it, and from a's last subset.
		mSub := modelOp(ma, mb, func(x, y uint64) uint64 { return x & y })
		checkModel(t, "NextSubset", a.NextSubset(FromWords(mSub)), modelNext(ma, mSub))
		checkModel(t, "NextSubset(s)", a.NextSubset(a), modelNext(ma, ma))
	}
}

// TestVSetSubsetsAscAgainstModel walks SubsetsAsc over sets of up to 10
// elements scattered across 1,024: every subset once, in strictly
// increasing numeric order; below 64 elements it is Set64's sequence.
func TestVSetSubsetsAscAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(2048))
	for trial := 0; trial < 200; trial++ {
		u := []int{64, 130, 1024}[trial%3]
		var s VSet
		for i := rng.Intn(11); i > 0; i-- {
			s = s.Add(rng.Intn(u))
		}
		var subs []VSet
		s.SubsetsAsc(func(sub VSet) bool {
			subs = append(subs, sub)
			return true
		})
		if want := 1<<uint(s.Len()) - 1; len(subs) != want {
			t.Fatalf("%v: %d subsets, want %d", s, len(subs), want)
		}
		for i, sub := range subs {
			if sub.IsEmpty() || !sub.SubsetOf(s) || (i > 0 && !subs[i-1].Less(sub)) {
				t.Fatalf("%v: subset %d (%v) empty, foreign or out of order", s, i, sub)
			}
		}
		if lo, ok := s.Lo(); ok {
			var want []VSet
			Set64(lo).SubsetsAsc(func(sub Set64) bool {
				want = append(want, sub.ToV())
				return true
			})
			if !reflect.DeepEqual(subs, want) {
				t.Fatalf("%v: VSet order %v, Set64 order %v", s, subs, want)
			}
		}
	}
}

// TestVSetAllocs guards the allocation profile the wide optimizer path
// relies on: one-word operands never allocate, a multi-word result costs
// at most its packed string, and a result equal to an operand reuses that
// operand's words.
func TestVSetAllocs(t *testing.T) {
	a, b := NewV(1, 5, 40), NewV(5, 9)
	wa, wb := NewV(1, 70, 200, 300), NewV(2, 71, 200)
	sub, single, apart, step := NewV(70, 200), NewV(300), NewV(3, 71), NewV(1, 70)
	var sink VSet
	for _, c := range []struct {
		name string
		max  float64
		op   func() VSet
	}{
		{"narrow Add", 0, func() VSet { return a.Add(7) }},
		{"narrow Remove", 0, func() VSet { return a.Remove(5) }},
		{"narrow Union", 0, func() VSet { return a.Union(b) }},
		{"narrow Intersect", 0, func() VSet { return a.Intersect(b) }},
		{"narrow Diff", 0, func() VSet { return a.Diff(b) }},
		{"narrow MinSet", 0, func() VSet { return a.MinSet() }},
		{"narrow NextSubset", 0, func() VSet { return a.NextSubset(b.Intersect(a)) }},
		{"narrow RangeIn", 0, func() VSet { return RangeIn[VSet](3, 60) }},
		{"wide Add", 1, func() VSet { return wa.Add(400) }},
		{"wide Remove", 1, func() VSet { return wa.Remove(200) }},
		{"wide Union", 1, func() VSet { return wa.Union(wb) }},
		{"wide Intersect", 1, func() VSet { return wa.Intersect(wb) }},
		{"wide Diff", 1, func() VSet { return wa.Diff(wb) }},
		{"wide MinSet", 1, func() VSet { return sub.MinSet() }},
		{"wide NextSubset", 1, func() VSet { return wa.NextSubset(step) }},
		{"wide RangeIn", 1, func() VSet { return RangeIn[VSet](3, 300) }},
		{"Add of a member", 0, func() VSet { return wa.Add(200) }},
		{"Remove of a non-member", 0, func() VSet { return wa.Remove(201) }},
		{"Union with a subset", 0, func() VSet { return wa.Union(sub) }},
		{"Union with a narrow set", 0, func() VSet { return wa.Union(a) }},
		{"Intersect with a superset", 0, func() VSet { return sub.Intersect(wa) }},
		{"Diff of a disjoint set", 0, func() VSet { return wa.Diff(apart) }},
		{"MinSet of a singleton", 0, func() VSet { return single.MinSet() }},
		{"NextSubset keeping the high words", 0, func() VSet { return wa.NextSubset(sub) }},
	} {
		if got := testing.AllocsPerRun(100, func() { sink = c.op() }); got > c.max {
			t.Errorf("%s: %.1f allocations, want ≤ %.0f", c.name, got, c.max)
		}
	}
	_ = sink
}
