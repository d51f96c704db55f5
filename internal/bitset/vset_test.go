package bitset

import (
	"math/rand"
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
