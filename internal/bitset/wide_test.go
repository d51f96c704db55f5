package bitset

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// set64AsWide mirrors a Set64 into a Wide for cross-checking.
func set64AsWide(s Set64) Wide {
	var w Wide
	s.ForEach(func(e int) { w = w.Add(e) })
	return w
}

func TestWideMirrorsSet64(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		a64 := Set64(rng.Uint64() >> 1)
		b64 := Set64(rng.Uint64() >> 1)
		a, b := set64AsWide(a64), set64AsWide(b64)

		if got, want := a.Union(b), set64AsWide(a64.Union(b64)); got != want {
			t.Fatalf("Union mismatch: %v vs %v", got, want)
		}
		if got, want := a.Intersect(b), set64AsWide(a64.Intersect(b64)); got != want {
			t.Fatalf("Intersect mismatch")
		}
		if got, want := a.Diff(b), set64AsWide(a64.Diff(b64)); got != want {
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
			if a.MinSet() != set64AsWide(a64.MinSet()) {
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
	set64AsWide(s64).SubsetsAsc(func(sub Wide) bool {
		got = append(got, sub.String())
		return true
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Wide.SubsetsAsc order diverges from Set64:\n got %v\nwant %v", got, want)
	}

	// Cross-word: bits straddling the 64-bit boundary enumerate in
	// ascending numeric order and the borrow propagates between words.
	w := NewWide(62, 63, 64, 65, 130)
	var subs []Wide
	w.SubsetsAsc(func(sub Wide) bool {
		subs = append(subs, sub)
		return true
	})
	if len(subs) != 31 { // 2^5 - 1
		t.Fatalf("got %d subsets, want 31", len(subs))
	}
	seen := map[Wide]bool{}
	for i, sub := range subs {
		if sub.IsEmpty() || !sub.SubsetOf(w) || seen[sub] {
			t.Fatalf("subset %d invalid or duplicated: %v", i, sub)
		}
		seen[sub] = true
	}
	if subs[0] != NewWide(62) || subs[len(subs)-1] != w {
		t.Fatalf("enumeration must start at the min singleton and end at the full set")
	}
}

func TestWideSubsetsAscEarlyStop(t *testing.T) {
	w := NewWide(1, 2, 70, 200)
	n := 0
	w.SubsetsAsc(func(Wide) bool {
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
	w := NewWide(1, 70, 300)
	if w.ToV() != NewV(1, 70, 300) {
		t.Fatalf("Wide.ToV broken")
	}
	if (Wide{}).FromV(NewV(1, 70, 300)) != w {
		t.Fatalf("Wide.FromV broken")
	}
	if (Wide{}).FromV(VSet{}) != (Wide{}) {
		t.Fatalf("empty round-trip broken")
	}
	if NewV(7, 33).ToSet64() != New64(7, 33) {
		t.Fatalf("VSet.ToSet64 broken")
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
	if SingleIn[Set64](5) != New64(5) || SingleIn[Wide](100) != NewWide(100) {
		t.Fatalf("SingleIn broken")
	}
	if RangeIn[Set64](0, 4) != New64(0, 1, 2, 3) {
		t.Fatalf("RangeIn broken")
	}
	if RangeIn[Wide](62, 66) != NewWide(62, 63, 64, 65) {
		t.Fatalf("RangeIn across word boundary broken")
	}
	if FromVIn[Wide](NewV(3, 99)) != NewWide(3, 99) {
		t.Fatalf("FromVIn broken")
	}
}
