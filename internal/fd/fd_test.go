package fd

import (
	"math/rand"
	"testing"

	"eagg/internal/bitset"
	"eagg/internal/query"
	"eagg/internal/randquery"
)

func TestClosureBasic(t *testing.T) {
	var s Set
	s.Add(bitset.NewV(0), bitset.NewV(1, 2)) // 0 → 1,2
	s.Add(bitset.NewV(1, 2), bitset.NewV(3)) // 1,2 → 3
	got := s.Closure(bitset.NewV(0))
	if got != bitset.NewV(0, 1, 2, 3) {
		t.Errorf("closure = %v", got)
	}
	// 1 alone implies nothing.
	if s.Closure(bitset.NewV(1)) != bitset.NewV(1) {
		t.Error("partial determinant must not fire")
	}
}

func TestClosureEquiv(t *testing.T) {
	var s Set
	s.AddEquiv(0, 5)
	s.Add(bitset.NewV(5), bitset.NewV(6))
	if !s.Implies(bitset.NewV(0), 6) {
		t.Error("0 ↔ 5 → 6 must chain")
	}
	if !s.Implies(bitset.NewV(5), 0) {
		t.Error("equivalence must work both ways")
	}
}

func TestTrivialFDsIgnored(t *testing.T) {
	var s Set
	s.Add(bitset.NewV(1), bitset.NewV(1))
	s.Add(bitset.VSet{}, bitset.NewV(2))
	if s.Len() != 0 {
		t.Errorf("trivial FDs stored: %d", s.Len())
	}
}

func TestReduce(t *testing.T) {
	var s Set
	// 0 → 1 (key → name), 2 ↔ 3 (join), 3 → 4 (key → name).
	s.Add(bitset.NewV(0), bitset.NewV(1))
	s.AddEquiv(2, 3)
	s.Add(bitset.NewV(3), bitset.NewV(4))
	// G = {0, 1, 4} with 0 → 1: 1 drops; 4 not implied by {0}: stays.
	got := s.Reduce(bitset.NewV(0, 1, 4))
	if got != bitset.NewV(0, 4) {
		t.Errorf("Reduce = %v, want {0, 4}", got)
	}
	// G = {2, 3, 4}: 2 ↔ 3 and 3 → 4, so a single representative of the
	// equivalence class remains (the ascending greedy drops 2 first,
	// keeping {3}).
	got = s.Reduce(bitset.NewV(2, 3, 4))
	if got != bitset.NewV(3) {
		t.Errorf("Reduce = %v, want {3}", got)
	}
	// Grouping sets are never reduced to ∅.
	var empty Set
	if empty.Reduce(bitset.NewV(7)) != bitset.NewV(7) {
		t.Error("no-FD reduce must be identity")
	}
}

func TestReduceDeterministic(t *testing.T) {
	var s Set
	s.AddEquiv(1, 2) // either could represent the pair
	got := s.Reduce(bitset.NewV(1, 2))
	// Ascending greedy keeps the larger id (1 is dropped first since
	// {2} → 1 holds).
	if got.Len() != 1 {
		t.Errorf("Reduce of an equivalent pair = %v", got)
	}
	if got != s.Reduce(bitset.NewV(1, 2)) {
		t.Error("Reduce must be deterministic")
	}
}

// TestLocalClosureMatchesSet: Local's closure, which expands each
// attribute once, equals the plain fixpoint of a Set holding the same
// dependencies — on every relation set of small random queries, and on
// sets of a chain of 70 relations, whose attributes span several words.
func TestLocalClosureMatchesSet(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	check := func(q *query.Query, l *Local, rels bitset.VSet) {
		s := l.Set(rels)
		for k := 0; k < 6; k++ {
			var attrs bitset.VSet
			for a := range q.AttrNames {
				if rng.Intn(6) == 0 {
					attrs = attrs.Add(a)
				}
			}
			if got, want := l.Closure(rels, attrs), s.Closure(attrs); got != want {
				t.Fatalf("closure of %v over %v: %v, the fixpoint says %v", attrs, rels, got, want)
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
