package algebra

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"eagg/internal/aggfn"
)

// randomKeyedTable builds a table with a key column drawn from a small
// domain (plus NULLs and the odd float twin), a payload column, and —
// when sorted is set — rows ordered by the key so the eliminated-sort
// paths are exercised.
func randomKeyedTable(rng *rand.Rand, prefix string, rows int, sorted bool, withNulls bool) *Table {
	t := &Table{Schema: NewSchema([]string{prefix + ".k", prefix + ".v"})}
	keys := make([]int64, rows)
	for i := range keys {
		keys[i] = int64(rng.Intn(8))
	}
	if sorted {
		for i := 1; i < rows; i++ {
			for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
				keys[j], keys[j-1] = keys[j-1], keys[j]
			}
		}
	}
	for i := 0; i < rows; i++ {
		k := Value(Int(keys[i]))
		if withNulls && !sorted && rng.Intn(6) == 0 {
			k = Null
		} else if !sorted && rng.Intn(7) == 0 {
			k = Float(float64(keys[i])) // joins must match across kinds
		}
		t.Rows = append(t.Rows, Row{k, Int(int64(rng.Intn(100)))})
	}
	return t
}

func identical(t *testing.T, label string, want, got *Table) {
	t.Helper()
	if len(want.Rows) != len(got.Rows) {
		t.Fatalf("%s: %d rows vs %d rows", label, len(want.Rows), len(got.Rows))
	}
	for i := range want.Rows {
		if len(want.Rows[i]) != len(got.Rows[i]) {
			t.Fatalf("%s: row %d width differs", label, i)
		}
		for j := range want.Rows[i] {
			if want.Rows[i][j] != got.Rows[i][j] {
				t.Fatalf("%s: row %d slot %d: %v vs %v", label, i, j, want.Rows[i][j], got.Rows[i][j])
			}
		}
	}
}

// TestMergeJoinsMatchHash pins the central contract of the sort-based
// layer: every merge operator emits exactly the hash operator's output
// sequence — for sorted inputs with the sort eliminated, unsorted inputs
// with the sort performed, and any worker count.
func TestMergeJoinsMatchHash(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	lk, rk := []int{0}, []int{0}
	for trial := 0; trial < 60; trial++ {
		lSorted, rSorted := trial%2 == 0, trial%3 == 0
		l := randomKeyedTable(rng, "l", 1+rng.Intn(40), lSorted, true)
		r := randomKeyedTable(rng, "r", 1+rng.Intn(40), rSorted, true)
		pad := NullRow(r.Schema)
		for _, workers := range []int{1, 8} {
			ex := NewExec(workers).WithMorselSize(3)
			label := fmt.Sprintf("trial=%d workers=%d lSorted=%v rSorted=%v", trial, workers, lSorted, rSorted)

			for _, c := range []struct {
				name string
				kind MergeKind
				want *Table
			}{
				{"join", MergeInner, HashJoin(l, r, lk, rk)},
				{"semi", MergeSemi, HashSemiJoin(l, r, lk, rk)},
				{"anti", MergeAnti, HashAntiJoin(l, r, lk, rk)},
				{"leftouter", MergeLeftOuter, HashLeftOuter(l, r, lk, rk, pad)},
			} {
				got, err := ex.MergeTables(c.kind, l, r, lk, rk, !lSorted, !rSorted, pad)
				if err != nil {
					t.Fatalf("%s %s: %v", label, c.name, err)
				}
				identical(t, label+" "+c.name, c.want, got)
			}
		}
	}
}

// TestSortGroupMatchesHash pins the same contract for sort-group
// aggregation, including order-sensitive float sums: group boundaries by
// run (eliminated) or by sort (performed), output always equals
// HashGroup bit for bit.
func TestSortGroupMatchesHash(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := aggfn.Vector{
		{Out: "cnt", Kind: aggfn.CountStar},
		{Out: "s", Kind: aggfn.Sum, Arg: "t.v"},
		{Out: "m", Kind: aggfn.Min, Arg: "t.v"},
	}
	for trial := 0; trial < 60; trial++ {
		sorted := trial%2 == 0
		in := randomKeyedTable(rng, "t", 1+rng.Intn(60), sorted, true)
		// Float payloads make summation order observable.
		for i, row := range in.Rows {
			if i%3 == 0 {
				row[1] = Float(float64(rng.Intn(1000)) / 7)
			}
		}
		want := HashGroup(in, []string{"t.k"}, f)
		for _, workers := range []int{1, 8} {
			ex := NewExec(workers).WithMorselSize(4)
			var verify []int
			if sorted {
				verify = []int{0} // eliminated path: verify the run column
			}
			got, err := ex.SortGroup(in, []string{"t.k"}, f, !sorted, verify)
			if err != nil {
				t.Fatalf("trial=%d workers=%d sorted=%v: %v", trial, workers, sorted, err)
			}
			identical(t, fmt.Sprintf("trial=%d workers=%d sorted=%v", trial, workers, sorted), want, got)
		}
	}
}

// TestMergeJoinVerifiesOrder pins the safety net: claiming an eliminated
// sort on an unsorted input is an execution error, not a wrong result —
// on the row wrappers and on the batch operators, for int keys (the typed
// check) and string keys (the comparator check), on either side.
func TestMergeJoinVerifiesOrder(t *testing.T) {
	l := &Table{Schema: NewSchema([]string{"l.k"}), Rows: []Row{{Int(2)}, {Int(1)}}}
	r := &Table{Schema: NewSchema([]string{"r.k"}), Rows: []Row{{Int(1)}}}
	if _, err := NewExec(1).MergeTables(MergeInner, l, r, []int{0}, []int{0}, false, true, nil); err == nil {
		t.Fatal("merge join accepted an unsorted input declared sorted")
	}
	// NULL keys are filtered before the check, so a NULL between ordered
	// keys is fine.
	l2 := &Table{Schema: NewSchema([]string{"l.k"}), Rows: []Row{{Int(1)}, {Null}, {Int(2)}}}
	if _, err := NewExec(1).MergeTables(MergeInner, l2, r, []int{0}, []int{0}, false, true, nil); err != nil {
		t.Fatalf("NULL key between ordered keys rejected: %v", err)
	}
	for name, rows := range map[string][]Row{
		"int": {{Int(math.MinInt64)}, {Int(5)}, {Int(-5)}},
		"str": {{Str("a")}, {Str("c")}, {Str("b")}},
	} {
		side := func(attr string, rows []Row) *ColTable {
			return ColTableOf(&Table{Schema: NewSchema([]string{attr}), Rows: rows})
		}
		for ename, e := range sortExecs() {
			for kind := MergeInner; kind <= MergeLeftOuter; kind++ {
				label := fmt.Sprintf("%s/%s/kind %d", name, ename, kind)
				join := func(l, r []Row, sortL, sortR bool) error {
					lc, rc := side("l.k", l), side("r.k", r)
					_, err := e.BatchMergeJoin(kind, lc, rc, []int{0}, []int{0}, sortL, sortR, Row{Null}, lc.Schema.Concat(rc.Schema))
					return err
				}
				if err := join(rows, rows[:2], false, true); err == nil || !strings.Contains(err.Error(), "left input") {
					t.Fatalf("%s: lying left declaration: err = %v", label, err)
				}
				if err := join(rows[:2], rows, true, false); err == nil || !strings.Contains(err.Error(), "right input") {
					t.Fatalf("%s: lying right declaration: err = %v", label, err)
				}
				if err := join(rows[:2], rows[:2], false, false); err != nil {
					t.Fatalf("%s: truthful declarations rejected: %v", label, err)
				}
			}
		}
	}
}

// TestSortGroupKindSensitive pins that the sort order refines numeric
// equality by kind and by the sign of zero: Int(2) and Float(2.0), and
// -0.0 and +0.0, stay separate groups, exactly like the hash layer's
// grouping keys — while a merge join sees Int(2) = Float(2.0) as one key.
func TestSortGroupKindSensitive(t *testing.T) {
	in := &Table{Schema: NewSchema([]string{"t.k"}), Rows: []Row{
		{Float(2)}, {Int(2)}, {Null}, {Int(2)}, {Null}, {Float(2)},
		{Float(0)}, {Float(math.Copysign(0, -1))}, {Float(0)},
	}}
	f := aggfn.Vector{{Out: "cnt", Kind: aggfn.CountStar}}
	want := HashGroup(in, []string{"t.k"}, f)
	got, err := NewExec(1).SortGroup(in, []string{"t.k"}, f, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	identical(t, "kind-sensitive groups", want, got)
	if len(got.Rows) != 5 {
		t.Fatalf("want 5 groups (Float 2, Int 2, NULL, +0.0, -0.0), got %d", len(got.Rows))
	}
	ct := ColTableOf(in)
	for name, e := range sortExecs() {
		identicalRows(t, "batch kind-sensitive groups/"+name, want, mustSortGroup(t, e, ct, []string{"t.k"}, f).Table())
	}
	one := ColTableOf(&Table{Schema: NewSchema([]string{"r.k"}), Rows: []Row{{Int(2)}}})
	joined, err := NewExec(1).BatchMergeJoin(MergeInner, ct, one, []int{0}, []int{0}, true, true, nil, ct.Schema.Concat(one.Schema))
	if err != nil {
		t.Fatal(err)
	}
	if joined.Card() != 4 {
		t.Fatalf("Int(2) and Float(2.0) must both join Int(2): got %d rows, want 4", joined.Card())
	}
}

// TestSortGroupVerifiesOrder pins the streaming aggregation's safety
// net: an eliminated sort whose covering order prefix the data violates
// is an execution error, never a silently duplicated group — on the row
// wrapper and the batch operator, for int and string order columns.
func TestSortGroupVerifiesOrder(t *testing.T) {
	in := &Table{Schema: NewSchema([]string{"t.k"}), Rows: []Row{{Int(1)}, {Int(2)}, {Int(1)}}}
	f := aggfn.Vector{{Out: "cnt", Kind: aggfn.CountStar}}
	for _, workers := range []int{1, 8} {
		ex := NewExec(workers).WithMorselSize(1)
		if _, err := ex.SortGroup(in, []string{"t.k"}, f, false, []int{0}); err == nil {
			t.Fatalf("workers=%d: streaming aggregation accepted an unsorted run column", workers)
		}
	}
	// A genuinely sorted column (NULLs first) streams fine.
	ok := &Table{Schema: NewSchema([]string{"t.k"}), Rows: []Row{{Null}, {Int(1)}, {Int(1)}, {Int(2)}}}
	got, err := NewExec(1).SortGroup(ok, []string{"t.k"}, f, false, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	identical(t, "sorted stream", HashGroup(ok, []string{"t.k"}, f), got)

	str := &Table{Schema: NewSchema([]string{"t.k"}), Rows: []Row{{Str("a")}, {Str("b")}, {Str("a")}}}
	for name, e := range sortExecs() {
		for kname, tab := range map[string]*Table{"int": in, "str": str} {
			if _, err := e.BatchSortGroup(ColTableOf(tab), BindAggregation(tab.Schema, []string{"t.k"}, f), false, []int{0}); err == nil {
				t.Fatalf("%s/%s: batch streaming aggregation accepted an unsorted run column", kname, name)
			}
		}
		out, err := e.BatchSortGroup(ColTableOf(ok), BindAggregation(ok.Schema, []string{"t.k"}, f), false, []int{0})
		if err != nil {
			t.Fatalf("%s: sorted stream rejected: %v", name, err)
		}
		identicalRows(t, "batch sorted stream/"+name, HashGroup(ok, []string{"t.k"}, f), out.Table())
	}
}

// sortExecs is the matrix of the sort-layer tests: the sequential arm and
// the span-parallel arm at workers 2 and 8 × explicit morsel sizes 3
// (hundreds of spans, most runs crossing one), 64 and 4096 (a single
// span), all of which must agree.
func sortExecs() map[string]*Exec {
	m := map[string]*Exec{"w1": NewExec(1)}
	for _, w := range []int{2, 8} {
		for _, ms := range []int{3, 64, 4096} {
			m[fmt.Sprintf("w%d-m%d", w, ms)] = NewExec(w).WithMorselSize(ms).WithBatchSize(7 * ms)
		}
	}
	return m
}

// sortFixture builds a table of n rows over key columns of every flavor
// the sort layer distinguishes: ki — typed int with negatives, both
// extremes and NULLs; k2 — a second, NULL-free int column (multi-column
// int keys); ks — strings; kx — mixed Int/integral Float/fractional
// Float/String/NULL/NaN (the general comparator, Int(2) = Float(2.0)
// under joins); kc — one value everywhere; plus an id and an
// order-sensitive float payload.
func sortFixture(prefix string, n, domain int, rng *rand.Rand) *Table {
	t := &Table{Schema: NewSchema([]string{
		prefix + ".id", prefix + ".ki", prefix + ".k2", prefix + ".ks", prefix + ".kx", prefix + ".kc", prefix + ".v"})}
	for i := 0; i < n; i++ {
		d := rng.Intn(domain)
		ki := Int(int64(d - domain/2))
		switch rng.Intn(40) {
		case 0:
			ki = Null
		case 1:
			ki = Int(math.MinInt64)
		case 2:
			ki = Int(math.MaxInt64)
		}
		var kx Value
		switch rng.Intn(7) {
		case 0:
			kx = Null
		case 1:
			kx = Float(math.NaN())
		case 2:
			kx = Float(float64(d % 5)) // integral: joins with Int, groups apart
		case 3:
			kx = Float(float64(d%5) + 0.5)
		case 4:
			kx = Str(fmt.Sprintf("x%d", d%4))
		default:
			kx = Int(int64(d % 5))
		}
		t.Rows = append(t.Rows, Row{
			Int(int64(i)), ki, Int(int64(rng.Intn(3) - 1)), Str(fmt.Sprintf("s%02d", d%11)), kx, Int(7),
			Float(float64(rng.Intn(1000)) / 7),
		})
	}
	return t
}

// orderedBy returns a copy of t whose rows are stably ordered on the
// slots under the join (dead rows first) or grouping comparator — an
// input for which the corresponding sort is legitimately eliminated.
func orderedBy(t *Table, slots []int, join bool) *Table {
	out := &Table{Schema: t.Schema, Rows: append([]Row(nil), t.Rows...)}
	sort.SliceStable(out.Rows, func(i, j int) bool {
		a, b := out.Rows[i], out.Rows[j]
		if join {
			if da, db := rowHasNullKey(a, slots), rowHasNullKey(b, slots); da || db {
				return da && !db
			}
		}
		for _, s := range slots {
			c := compareGroupValue(a[s], b[s])
			if join {
				c = compareJoinValue(a[s], b[s])
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	return out
}

// dropEvery returns t under a monotone selection vector without every
// k-th row.
func dropEvery(t *ColTable, k int) *ColTable {
	var sel []int32
	for i := 0; i < t.N; i++ {
		if i%k != 0 {
			sel = append(sel, int32(i))
		}
	}
	return selTable(t, sel)
}

// TestBatchMergeJoinsMatchBatchHash is the kernel-level differential of
// the columnar merge joins: every operator against its batch hash
// counterpart as a sequence, over int, two-column int, string, mixed and
// all-duplicate keys, with each side's sort performed or eliminated,
// dense or under a selection vector, empty or not — across the executor
// matrix.
func TestBatchMergeJoinsMatchBatchHash(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	bigL, bigR := sortFixture("l", 170, 24, rng), sortFixture("r", 130, 28, rng)
	pad := NullRow(bigR.Schema)
	pad[6] = Int(1) // an int default into a float column
	seq := NewExec(1)
	for _, ks := range []struct {
		name  string
		slots []int
	}{{"int", []int{1}}, {"two-int", []int{1, 2}}, {"str", []int{3}}, {"mixed", []int{4}}, {"dup", []int{5}}} {
		lt, rt := bigL, bigR
		if ks.name == "dup" { // every left row joins every right row
			lt, rt = &Table{Schema: bigL.Schema, Rows: bigL.Rows[:40]}, &Table{Schema: bigR.Schema, Rows: bigR.Rows[:30]}
		}
		for mask := 0; mask < 4; mask++ {
			sortL, sortR := mask&1 != 0, mask&2 != 0
			l, r := ColTableOf(lt), ColTableOf(rt)
			if !sortL {
				l = ColTableOf(orderedBy(lt, ks.slots, true))
			}
			if !sortR {
				r = ColTableOf(orderedBy(rt, ks.slots, true))
			}
			for _, in := range []struct {
				name string
				l, r *ColTable
			}{
				{"dense", l, r},
				{"sel", dropEvery(l, 5), dropEvery(r, 3)},
				{"empty-left", selTable(l, nil), r},
				{"empty-right", l, selTable(r, nil)},
			} {
				want := []*ColTable{
					seq.BatchHashJoin(in.l, in.r, ks.slots, ks.slots, in.l.Schema.Concat(in.r.Schema)),
					seq.BatchHashSemiJoin(in.l, in.r, ks.slots, ks.slots),
					seq.BatchHashAntiJoin(in.l, in.r, ks.slots, ks.slots),
					seq.BatchHashLeftOuter(in.l, in.r, ks.slots, ks.slots, pad, in.l.Schema.Concat(in.r.Schema)),
				}
				for ename, e := range sortExecs() {
					for kind := range want {
						label := fmt.Sprintf("%s/sortL=%v/sortR=%v/%s/%s/kind %d", ks.name, sortL, sortR, in.name, ename, kind)
						got, err := e.BatchMergeJoin(MergeKind(kind), in.l, in.r, ks.slots, ks.slots, sortL, sortR, pad, in.l.Schema.Concat(in.r.Schema))
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						identicalRows(t, label, want[kind].Table(), got.Table())
					}
				}
			}
		}
	}
}

// TestBatchSortGroupMatchesBatchHash is the same differential for
// sort-group aggregation: NULL a group of its own and all NaNs one group
// at their first-encounter positions, Int(2) and Float(2.0) apart,
// order-sensitive float sums through the typed kernels and a distinct
// aggregate through the generic one — sort performed or eliminated (the
// full grouping key, or only a covering prefix of it, verified).
func TestBatchSortGroupMatchesBatchHash(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	base := sortFixture("t", 900, 60, rng)
	f := aggfn.Vector{
		{Out: "n", Kind: aggfn.CountStar},
		{Out: "sv", Kind: aggfn.Sum, Arg: "t.v"},
		{Out: "av", Kind: aggfn.Avg, Arg: "t.v"},
		{Out: "ms", Kind: aggfn.Min, Arg: "t.ks"},
		{Out: "si", Kind: aggfn.Sum, Arg: "t.id"},
		{Out: "cd", Kind: aggfn.CountDistinct, Arg: "t.k2"},
	}
	seq := NewExec(1)
	for _, ks := range []struct {
		name    string
		groupBy []string
		verify  []int // the order the eliminated arm's input is in
	}{
		{"int", []string{"t.ki"}, []int{1}},
		{"two-int", []string{"t.k2", "t.ki"}, []int{2, 1}},
		{"str", []string{"t.ks"}, []int{3}},
		{"mixed", []string{"t.kx"}, []int{4}},
		{"dup", []string{"t.kc"}, []int{5}},
		{"prefix", []string{"t.kc", "t.ks"}, []int{3}}, // ks alone determines the group
		{"global", nil, nil},
	} {
		for _, sortInput := range []bool{true, false} {
			in := ColTableOf(base)
			if !sortInput {
				in = ColTableOf(orderedBy(base, ks.verify, false))
			}
			for vname, view := range map[string]*ColTable{"dense": in, "sel": dropEvery(in, 4), "empty": selTable(in, nil)} {
				want := seq.BatchHashGroup(view, BindAggregation(view.Schema, ks.groupBy, f)).Table()
				for ename, e := range sortExecs() {
					label := fmt.Sprintf("%s/sort=%v/%s/%s", ks.name, sortInput, vname, ename)
					got, err := e.BatchSortGroup(view, BindAggregation(view.Schema, ks.groupBy, f), sortInput, ks.verify)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					identicalRows(t, label, want, got.Table())
				}
			}
		}
	}
}
