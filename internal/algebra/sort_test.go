package algebra

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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
// extremes and NULLs (ids that do not fit: the comparator); k2 — a
// second, NULL-free int column (multi-column int keys); ks — strings; kx —
// mixed Int/integral Float/fractional Float/String/NULL/NaN (the general
// comparator, Int(2) = Float(2.0) under joins); kc — one value everywhere;
// kd — a dense int range with NULLs (a join key; a grouping key that is
// not ints); kg — a NULL-free dense int range off zero; kp — a sparse int
// key without extremes (the radix sort); kb and kb1 — int keys whose id
// range over all n rows is exactly denseMultiple × n (the counting sort)
// and one more (the radix sort); plus an id and an order-sensitive float
// payload.
func sortFixture(prefix string, n, domain int, rng *rand.Rand) *Table {
	t := &Table{Schema: NewSchema([]string{
		prefix + ".id", prefix + ".ki", prefix + ".k2", prefix + ".ks", prefix + ".kx", prefix + ".kc", prefix + ".v",
		prefix + ".kd", prefix + ".kg", prefix + ".kp", prefix + ".kb", prefix + ".kb1"})}
	width := denseMultiple * n
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
		kd := Int(int64(rng.Intn(domain)))
		if rng.Intn(8) == 0 {
			kd = Null
		}
		kb := rng.Intn(width) // rows 0 and 1 pin the range's ends
		switch i {
		case 0:
			kb = 0
		case 1:
			kb = width - 1
		}
		kb1 := kb
		if i == 1 {
			kb1 = width
		}
		t.Rows = append(t.Rows, Row{
			Int(int64(i)), ki, Int(int64(rng.Intn(3) - 1)), Str(fmt.Sprintf("s%02d", d%11)), kx, Int(7),
			Float(float64(rng.Intn(1000)) / 7),
			kd, Int(int64(rng.Intn(domain) - 5000)), Int(int64(rng.Intn(domain)-domain/2) * 1_000_000_007),
			Int(int64(kb - n)), Int(int64(kb1 - n)),
		})
	}
	return t
}

// sortArms names the arms of the sorts hs recorded, as the engine's
// sort=… span annotation does: "" when no sort was performed.
func sortArms(hs *HashStats) string {
	s := hs.Snapshot()
	var arms []string
	for _, a := range []struct {
		name string
		n    int64
	}{{"dense", s.SortDense}, {"radix", s.SortRadix}, {"compare", s.SortCompare}} {
		if a.n > 0 {
			arms = append(arms, a.name)
		}
	}
	return strings.Join(arms, "+")
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
// counterpart as a sequence, over int keys of every sort arm (ids that do
// not fit, dense with NULLs, two-column dense, sparse, and either side of
// the dense bound), string, mixed and all-duplicate keys, with each side's
// sort performed or eliminated, dense or under a selection vector, empty
// or not — across the executor matrix. On the unselected inputs every
// performed sort must take the key's arm.
func TestBatchMergeJoinsMatchBatchHash(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	bigL, bigR := sortFixture("l", 170, 24, rng), sortFixture("r", 130, 28, rng)
	pad := NullRow(bigR.Schema)
	pad[6] = Int(1) // an int default into a float column
	seq := NewExec(1)
	for _, ks := range []struct {
		name  string
		slots []int
		arm   string // the arm of every performed sort on the unselected inputs
	}{
		{"int", []int{1}, "compare"}, {"two-int", []int{1, 2}, "compare"},
		{"dense-nulls", []int{7}, "dense"}, {"two-dense", []int{7, 2}, "dense"}, {"sparse", []int{9}, "radix"},
		{"at-multiple", []int{10}, "dense"}, {"past-multiple", []int{11}, "radix"},
		{"str", []int{3}, "compare"}, {"mixed", []int{4}, "compare"}, {"dup", []int{5}, "dense"},
	} {
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
				hs := &HashStats{}
				for ename, e := range sortExecs() {
					for kind := range want {
						label := fmt.Sprintf("%s/sortL=%v/sortR=%v/%s/%s/kind %d", ks.name, sortL, sortR, in.name, ename, kind)
						got, err := e.WithHashStats(hs).BatchMergeJoin(MergeKind(kind), in.l, in.r, ks.slots, ks.slots, sortL, sortR, pad, in.l.Schema.Concat(in.r.Schema))
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						identicalRows(t, label, want[kind].Table(), got.Table())
					}
				}
				if arm := sortArms(hs); in.name == "dense" && mask != 0 && arm != ks.arm {
					t.Errorf("%s/sortL=%v/sortR=%v: sorts took %q, want %q", ks.name, sortL, sortR, arm, ks.arm)
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
		verify  []int  // the order the eliminated arm's input is in
		arm     string // the arm of the performed sort on the unselected input
	}{
		{"int", []string{"t.ki"}, []int{1}, "compare"}, // NULLs: not an ints key under grouping
		{"two-int", []string{"t.k2", "t.ki"}, []int{2, 1}, "compare"},
		{"dense", []string{"t.kg"}, []int{8}, "dense"},
		{"two-dense", []string{"t.kg", "t.k2"}, []int{8, 2}, "dense"},
		{"sparse", []string{"t.kp"}, []int{9}, "radix"},
		{"at-multiple", []string{"t.kb"}, []int{10}, "dense"},
		{"past-multiple", []string{"t.kb1"}, []int{11}, "radix"},
		{"str", []string{"t.ks"}, []int{3}, "compare"},
		{"mixed", []string{"t.kx"}, []int{4}, "compare"},
		{"dup", []string{"t.kc"}, []int{5}, "dense"},
		{"prefix", []string{"t.kc", "t.ks"}, []int{3}, "compare"}, // ks alone determines the group
		{"global", nil, nil, ""},                                  // no key: input order is key order
	} {
		for _, sortInput := range []bool{true, false} {
			in := ColTableOf(base)
			if !sortInput {
				in = ColTableOf(orderedBy(base, ks.verify, false))
			}
			for vname, view := range map[string]*ColTable{"dense": in, "sel": dropEvery(in, 4), "empty": selTable(in, nil)} {
				want := seq.BatchHashGroup(view, BindAggregation(view.Schema, ks.groupBy, f)).Table()
				hs := &HashStats{}
				for ename, e := range sortExecs() {
					label := fmt.Sprintf("%s/sort=%v/%s/%s", ks.name, sortInput, vname, ename)
					got, err := e.WithHashStats(hs).BatchSortGroup(view, BindAggregation(view.Schema, ks.groupBy, f), sortInput, ks.verify)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					identicalRows(t, label, want, got.Table())
				}
				if arm := sortArms(hs); vname == "dense" && sortInput && arm != ks.arm {
					t.Errorf("%s: the sort took %q, want %q", ks.name, arm, ks.arm)
				}
			}
		}
	}
}

// sortArm runs one arm of keyRuns over a copy of rows, k's participating
// rows in input order: the counting sort or the radix sort over k's ids
// (which must fit), or the comparator sort with the typed run scan.
func sortArm(e *Exec, arm string, k *sortKey, rows []int32) *keyRuns {
	kr := &keyRuns{key: k, rows: slices.Clone(rows)}
	switch p, _ := packKey(k, kr.rows); arm {
	case "dense":
		e.countingSort(kr, p)
	case "radix":
		e.radixSort(kr, p, true)
	default:
		e.compareSort(kr)
		e.intRuns(kr)
	}
	return kr
}

// sameRuns fails unless two prepared sort inputs have identical rows,
// starts and keys.
func sameRuns(t *testing.T, label string, want, got *keyRuns) {
	t.Helper()
	sameSeq(t, label, "rows", want.rows, got.rows)
	sameSeq(t, label, "starts", want.starts, got.starts)
	sameSeq(t, label, "keys", want.keys, got.keys)
}

func sameSeq[T comparable](t *testing.T, label, what string, want, got []T) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d %s, want %d", label, len(got), what, len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: %s[%d] = %v, want %v", label, what, i, got[i], want[i])
		}
	}
}

// TestKeyRunsArmsAgree forces the same inputs through the counting sort,
// the radix sort and the comparator sort: rows, starts and keys must be
// identical. A counting sort that is not stable — its scatter running
// forward puts every run's rows in reverse — fails here. The inputs are
// the fixture's dense, two-column, NULL-holding (join order only),
// past-the-bound and constant int keys, all rows and under a selection
// vector, in join and grouping order, across the executor matrix.
func TestKeyRunsArmsAgree(t *testing.T) {
	base := ColTableOf(sortFixture("t", 900, 60, rand.New(rand.NewSource(31))))
	for _, slots := range [][]int{{8}, {8, 2}, {7, 2}, {11}, {5}} {
		for vname, view := range map[string]*ColTable{"all": base, "sel": dropEvery(base, 3)} {
			for _, join := range []bool{true, false} {
				k := newSortKey(view, slots, join)
				if !k.ints {
					continue // kd's NULLs are a key value under grouping
				}
				for ename, e := range sortExecs() {
					label := fmt.Sprintf("slots %v/%s/join=%v/%s", slots, vname, join, ename)
					rows := e.liveRows(k, view)
					want := sortArm(e, "compare", k, rows)
					if len(want.starts)-1 == len(rows) && len(rows) > 1 {
						t.Fatalf("%s: every run is one row: stability goes untested", label)
					}
					sameRuns(t, label+"/dense", want, sortArm(e, "dense", k, rows))
					sameRuns(t, label+"/radix", want, sortArm(e, "radix", k, rows))
				}
			}
		}
	}
}

// FuzzKeyRuns checks the arms of keyRuns against a stable comparator
// sort (slices.SortStableFunc over cmpKeys) on 1–3 random int key columns
// with ranges from 1 to 2^40, salted with both extremes of int64 per
// column, NULLs in the first column (join keys that take no part; under
// grouping, a key that is not ints) and a monotone selection: keyRuns
// itself, and every arm the key admits forced — the comparator sort, and
// the radix sort and (on ranges up to 2^16) the counting sort when the
// ids fit. The seed corpus reaches every arm through keyRuns.
//
// ranges holds every column's log2 range in a byte (mod 41), extremes a
// bit per column; flags bit 0 selects the join order, bit 1 NULLs, and
// bits 2–4 drop every k-th row (k ≥ 2).
func FuzzKeyRuns(f *testing.F) {
	f.Add(int64(1), uint16(500), uint8(0), uint32(0x08), uint8(0), uint8(0))        // dense
	f.Add(int64(2), uint16(500), uint8(1), uint32(0x0503), uint8(0), uint8(1))      // two dense columns, join order
	f.Add(int64(3), uint16(500), uint8(1), uint32(0x1428), uint8(0), uint8(0))      // 60 bits: radix
	f.Add(int64(4), uint16(500), uint8(0), uint32(0x28), uint8(0), uint8(3<<2))     // 2^40 under a selection: radix
	f.Add(int64(5), uint16(500), uint8(0), uint32(0x06), uint8(1), uint8(1))        // extremes: the comparator
	f.Add(int64(6), uint16(400), uint8(1), uint32(0x0a04), uint8(2), uint8(3|2<<2)) // NULL join keys, extremes, selection
	f.Add(int64(7), uint16(300), uint8(2), uint32(0x140a28), uint8(0), uint8(0))    // 70 bits: the comparator
	f.Add(int64(8), uint16(300), uint8(0), uint32(0x04), uint8(0), uint8(2))        // NULL grouping key: not ints
	f.Add(int64(9), uint16(256), uint8(0), uint32(0x0a), uint8(0), uint8(0))        // range 4 × rows: at the bound
	f.Fuzz(func(t *testing.T, seed int64, n uint16, ncols uint8, ranges uint32, extremes uint8, flags uint8) {
		rng := rand.New(rand.NewSource(seed))
		nc := 1 + int(ncols%3)
		join, nulls, every := flags&1 != 0, flags&2 != 0, int(flags>>2%8)
		names, slots, widths := make([]string, nc), make([]int, nc), make([]int64, nc)
		for c := range names {
			names[c], slots[c], widths[c] = fmt.Sprintf("t.k%d", c), c, int64(1)<<(ranges>>(8*c)&0xff%41)
		}
		tab := &Table{Schema: NewSchema(names)}
		for i := 0; i < int(n%2048); i++ {
			row := make(Row, nc)
			for c := range row {
				row[c] = Int(rng.Int63n(widths[c]) - widths[c]/2)
				if extremes>>c&1 != 0 {
					switch rng.Intn(40) {
					case 0:
						row[c] = Int(math.MinInt64)
					case 1:
						row[c] = Int(math.MaxInt64)
					}
				}
				if c == 0 && nulls && rng.Intn(10) == 0 {
					row[c] = Null
				}
			}
			tab.Rows = append(tab.Rows, row)
		}
		ct := ColTableOf(tab)
		if every > 1 {
			ct = dropEvery(ct, every)
		}
		k := newSortKey(ct, slots, join)
		for _, e := range []*Exec{NewExec(1), NewExec(2).WithMorselSize(7)} {
			rows := e.liveRows(k, ct)
			want := &keyRuns{key: k, rows: slices.Clone(rows)}
			slices.SortStableFunc(want.rows, func(a, b int32) int { return cmpKeys(k, a, k, b) })
			for i, r := range want.rows {
				if i == 0 || cmpKeys(k, want.rows[i-1], k, r) != 0 {
					want.starts = append(want.starts, int32(i))
					for c := 0; k.ints && c < nc; c++ {
						want.keys = append(want.keys, k.cols[c].Ints[r])
					}
				}
			}
			want.starts = append(want.starts, int32(len(rows)))
			sameRuns(t, "keyRuns", want, e.keyRuns(k, slices.Clone(rows), true, true))
			if !k.ints || len(rows) == 0 {
				continue
			}
			sameRuns(t, "compare", want, sortArm(e, "compare", k, rows))
			if p, fits := packKey(k, rows); fits {
				sameRuns(t, "radix", want, sortArm(e, "radix", k, rows))
				if p.span <= 1<<16 {
					sameRuns(t, "dense", want, sortArm(e, "dense", k, rows))
				}
			}
		}
	})
}
