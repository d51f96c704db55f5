package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNew64AndContains(t *testing.T) {
	s := New64(0, 3, 17, 63)
	for _, e := range []int{0, 3, 17, 63} {
		if !s.Contains(e) {
			t.Errorf("expected %d in %v", e, s)
		}
	}
	for _, e := range []int{1, 2, 16, 62} {
		if s.Contains(e) {
			t.Errorf("did not expect %d in %v", e, s)
		}
	}
	if s.Len() != 4 {
		t.Errorf("Len = %d, want 4", s.Len())
	}
}

func TestRange64(t *testing.T) {
	s := Range64(2, 6)
	if got := s.Elems(); len(got) != 4 || got[0] != 2 || got[3] != 5 {
		t.Errorf("Range64(2,6) = %v", got)
	}
	if !Range64(3, 3).IsEmpty() {
		t.Error("Range64(3,3) should be empty")
	}
}

func TestAddRemove(t *testing.T) {
	s := Empty64.Add(5).Add(9).Remove(5)
	if s.Contains(5) || !s.Contains(9) {
		t.Errorf("Add/Remove broken: %v", s)
	}
	// Removing an absent element is a no-op.
	if s.Remove(40) != s {
		t.Error("Remove of absent element changed the set")
	}
}

func TestSetAlgebra(t *testing.T) {
	a := New64(1, 2, 3)
	b := New64(3, 4)
	if got := a.Union(b); got != New64(1, 2, 3, 4) {
		t.Errorf("Union = %v", got)
	}
	if got := a.Intersect(b); got != New64(3) {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.Diff(b); got != New64(1, 2) {
		t.Errorf("Diff = %v", got)
	}
}

func TestSubsetPredicates(t *testing.T) {
	a := New64(1, 2)
	b := New64(1, 2, 3)
	if !a.SubsetOf(b) || b.SubsetOf(a) {
		t.Error("SubsetOf broken")
	}
	if !a.Intersects(b) || a.Intersects(New64(5)) {
		t.Error("Intersects broken")
	}
	if !a.Disjoint(New64(7)) || a.Disjoint(b) {
		t.Error("Disjoint broken")
	}
	if !Empty64.SubsetOf(a) {
		t.Error("empty set must be subset of everything")
	}
}

func TestMinMax(t *testing.T) {
	s := New64(7, 12, 40)
	if s.Min() != 7 || s.Max() != 40 {
		t.Errorf("Min/Max = %d/%d", s.Min(), s.Max())
	}
	if s.MinSet() != New64(7) {
		t.Errorf("MinSet = %v", s.MinSet())
	}
	defer func() {
		if recover() == nil {
			t.Error("Min of empty set should panic")
		}
	}()
	Empty64.Min()
}

func TestIsSingleton(t *testing.T) {
	if !Single64(9).IsSingleton() {
		t.Error("Single64(9) should be singleton")
	}
	if Empty64.IsSingleton() || New64(1, 2).IsSingleton() {
		t.Error("non-singletons misreported")
	}
}

func TestElemsForEach(t *testing.T) {
	s := New64(2, 5, 6)
	var seen []int
	s.ForEach(func(e int) { seen = append(seen, e) })
	want := []int{2, 5, 6}
	if len(seen) != len(want) {
		t.Fatalf("ForEach visited %v", seen)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Errorf("ForEach order: got %v", seen)
		}
	}
}

func TestSubsetsAscCount(t *testing.T) {
	s := New64(1, 4, 9)
	var subs []Set64
	s.SubsetsAsc(func(sub Set64) bool {
		subs = append(subs, sub)
		return true
	})
	if len(subs) != 7 { // 2^3 - 1 non-empty subsets
		t.Fatalf("got %d subsets, want 7", len(subs))
	}
	for i := 1; i < len(subs); i++ {
		if subs[i] <= subs[i-1] {
			t.Errorf("subsets not ascending: %v", subs)
		}
	}
	for _, sub := range subs {
		if !sub.SubsetOf(s) || sub.IsEmpty() {
			t.Errorf("bad subset %v of %v", sub, s)
		}
	}
}

func TestSubsetsEarlyStop(t *testing.T) {
	s := Range64(0, 6)
	n := 0
	s.SubsetsAsc(func(Set64) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestString(t *testing.T) {
	if got := New64(0, 3).String(); got != "{0, 3}" {
		t.Errorf("String = %q", got)
	}
	if got := Empty64.String(); got != "{}" {
		t.Errorf("empty String = %q", got)
	}
}

// Property: for random sets, Len equals the number of elements visited, and
// Union/Intersect/Diff agree with element-wise definitions.
func TestQuickSetAlgebra(t *testing.T) {
	f := func(a, b uint64) bool {
		sa, sb := Set64(a), Set64(b)
		for e := 0; e < 64; e++ {
			inA, inB := sa.Contains(e), sb.Contains(e)
			if sa.Union(sb).Contains(e) != (inA || inB) {
				return false
			}
			if sa.Intersect(sb).Contains(e) != (inA && inB) {
				return false
			}
			if sa.Diff(sb).Contains(e) != (inA && !inB) {
				return false
			}
		}
		return len(sa.Elems()) == sa.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: SubsetsAsc enumerates exactly 2^|s|-1 distinct subsets of s.
func TestQuickSubsetEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		var s Set64
		for i := 0; i < 10; i++ {
			s = s.Add(rng.Intn(30))
		}
		seen := map[Set64]bool{}
		s.SubsetsAsc(func(sub Set64) bool {
			if seen[sub] {
				t.Fatalf("duplicate subset %v", sub)
			}
			if !sub.SubsetOf(s) {
				t.Fatalf("%v not subset of %v", sub, s)
			}
			seen[sub] = true
			return true
		})
		if want := (1 << uint(s.Len())) - 1; len(seen) != want {
			t.Fatalf("enumerated %d subsets of %v, want %d", len(seen), s, want)
		}
	}
}
