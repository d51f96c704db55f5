package algebra

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"eagg/internal/aggfn"
)

// Tests of the direct-addressed key path (dense.go): the selection rule,
// and dense ≡ hash ≡ row — every operator on a dense key range must
// reproduce the row runtime bit for bit, as the hash path does on the same
// rows with their keys spread out, on both arms of every executor of the
// int-key matrix.

// intTable1 builds a one-column int table; a nil entry is NULL.
func intTable1(name string, keys ...any) *ColTable {
	t := &Table{Schema: NewSchema([]string{name, name + "v"})}
	for i, k := range keys {
		v := Null
		if k != nil {
			v = Int(int64(k.(int)))
		}
		t.Rows = append(t.Rows, Row{v, Int(int64(i))})
	}
	return ColTableOf(t)
}

func TestDenseRangeSelection(t *testing.T) {
	seq := func(lo, n int) []any {
		var out []any
		for i := 0; i < n; i++ {
			out = append(out, lo+i)
		}
		return out
	}
	for _, c := range []struct {
		name  string
		tab   *ColTable
		dense bool
		min   int64
		span  int
	}{
		{"empty", intTable1("k"), true, 0, 0},
		{"all-null", intTable1("k", nil, nil, nil), true, 0, 0},
		{"consecutive", intTable1("k", seq(10, 50)...), true, 10, 50},
		{"negative", intTable1("k", -7, -3, nil, -7, -5), true, -7, 5},
		{"single", intTable1("k", 42), true, 42, 1},
		// 10 rows: the widest dense range is 4·10 keys.
		{"just-inside", intTable1("k", append(seq(0, 9), 39)...), true, 0, 40},
		{"just-outside", intTable1("k", append(seq(0, 9), 40)...), false, 0, 0},
		{"nulls-count-as-rows", intTable1("k", 0, nil, nil, nil, 15), true, 0, 16},
	} {
		ks := newKeyScan(c.tab, []int{0}, true)
		if ks.dense != c.dense || ks.min != c.min || ks.span != c.span {
			t.Errorf("%s: dense=%v min=%d span=%d, want %v %d %d", c.name, ks.dense, ks.min, ks.span, c.dense, c.min, c.span)
		}
	}

	// Ranges at the int64 extremes: max−min overflows int64 and must be
	// taken in uint64 — a full-domain range is sparse, a narrow range
	// touching either extreme is dense.
	ext := func(keys ...int64) *ColTable {
		t := &Table{Schema: NewSchema([]string{"k"})}
		for _, k := range keys {
			t.Rows = append(t.Rows, Row{Int(k)})
		}
		return ColTableOf(t)
	}
	for _, c := range []struct {
		name  string
		tab   *ColTable
		dense bool
		span  int
	}{
		{"full-domain", ext(math.MinInt64, 0, math.MaxInt64), false, 0},
		{"min-and-zero", ext(math.MinInt64, 0, 1), false, 0},
		{"zero-and-max", ext(-1, 0, math.MaxInt64), false, 0},
		{"at-min", ext(math.MinInt64, math.MinInt64+5, math.MinInt64+2), true, 6},
		{"at-max", ext(math.MaxInt64-3, math.MaxInt64, math.MaxInt64), true, 4},
	} {
		if ks := newKeyScan(c.tab, []int{0}, false); ks.dense != c.dense || ks.span != c.span {
			t.Errorf("%s: dense=%v span=%d, want %v %d", c.name, ks.dense, ks.span, c.dense, c.span)
		}
	}

	// Only rows under the selection count, and a NULL's payload is no key.
	out := intTable1("k", seq(0, 20)...)
	out.Cols[0].Ints[7] = 1 << 40
	if newKeyScan(out, []int{0}, true).dense {
		t.Error("outlier key taken for dense")
	}
	view := selTable(out, []int32{0, 1, 2, 3, 4, 5, 6, 8, 9})
	if ks := newKeyScan(view, []int{0}, true); !ks.dense || ks.span != 10 {
		t.Errorf("outlier outside the selection: dense=%v span=%d", ks.dense, ks.span)
	}
	out.Cols[0].Nulls = []uint64{1 << 7}
	if ks := newKeyScan(out, []int{0}, true); !ks.dense || ks.span != 20 {
		t.Errorf("outlier payload under a NULL: dense=%v span=%d", ks.dense, ks.span)
	}

	// Everything but a single typed-int column keeps the hash path.
	l, _ := keyTables(1, false)
	lc := ColTableOf(l)
	for _, slots := range [][]int{{2}, {3}, {4}, {-1}, {0, 1}, {}} {
		if newKeyScan(lc, slots, true).dense {
			t.Errorf("slots %v: taken for dense", slots)
		}
	}
}

// denseCases are the join shapes of TestParallelIntJoins; the build side
// is rki in all of them.
var denseCases = []struct {
	name string
	lk   []int
}{
	{"int-int", []int{1}},
	{"float-int", []int{2}},
	{"mixed-int", []int{3}},
	{"str-int", []int{4}},
	{"absent-int", []int{-1}},
}

// TestDenseJoinsMatchRow: all six join operators and the merge joins on a
// dense build key (stride 1) and on the same rows with the keys spread out
// (stride 1000: the hash path), against probe columns of every kind.
func TestDenseJoinsMatchRow(t *testing.T) {
	for _, stride := range []int64{1, 1000} {
		l, r := keyTables(stride, false)
		lc, rc := ColTableOf(l), ColTableOf(r)
		rk := []int{1}
		if got := newKeyScan(rc, rk, true).dense; got != (stride == 1) {
			t.Fatalf("stride %d: build side dense = %v", stride, got)
		}
		for _, c := range denseCases {
			want := newRowJoins(l, r, c.lk, rk)
			for name, e := range intPathExecs() {
				want.check(t, fmt.Sprintf("stride%d/%s/%s", stride, c.name, name), e, lc, rc, c.lk, rk)
			}
		}
	}
}

// TestDenseJoinEdges: build sides at the edges of the rule — empty, all
// NULL, a single key, one key just inside and just outside the density
// bound, and keys at the int64 extremes (range overflow: hash) — each
// against a probe side with hits, misses on both sides of the range, NULLs
// and duplicates.
func TestDenseJoinEdges(t *testing.T) {
	probe := intTable1("p", 0, 3, nil, -1, 39, 40, 41, 3, 1<<40, math.MinInt64, math.MaxInt64, 7, 7)
	builds := map[string]struct {
		tab   *ColTable
		dense bool
	}{
		"empty":        {intTable1("b"), true},
		"all-null":     {intTable1("b", nil, nil), true},
		"single":       {intTable1("b", 7, 7, 7), true},
		"just-inside":  {intTable1("b", 0, 1, 2, 3, 3, 5, 6, 7, 8, 39), true},
		"just-outside": {intTable1("b", 0, 1, 2, 3, 3, 5, 6, 7, 8, 40), false},
		"extremes":     {intTable1("b", math.MinInt64, 3, math.MaxInt64, 3, nil), false},
	}
	lk, rk := []int{0}, []int{0}
	for bname, b := range builds {
		if got := newKeyScan(b.tab, rk, true).dense; got != b.dense {
			t.Fatalf("%s: build side dense = %v", bname, got)
		}
		want := newRowJoins(probe.Table(), b.tab.Table(), lk, rk)
		for name, e := range intPathExecs() {
			want.check(t, bname+"/"+name, e, probe, b.tab, lk, rk)
		}
		for name, e := range batchExecs() {
			want.check(t, bname+"/"+name, e, probe, b.tab, lk, rk)
		}
	}
}

// denseAggTable is aggColumnsTable scaled up, its int group column
// rewritten to a dense domain with negatives, duplicates and NULLs.
func denseAggTable(stride int64) *Table {
	base := aggColumnsTable()
	tb := &Table{Schema: base.Schema}
	for i := 0; i < 3000; i++ {
		row := slices.Clone(base.Rows[i%len(base.Rows)])
		row[0] = Int(int64(i*7%53-26) * stride)
		if i%17 == 9 {
			row[0] = Null
		}
		tb.Rows = append(tb.Rows, row)
	}
	return tb
}

// TestDenseGroupMatchesRow: every fold kernel — order-sensitive float sums
// and averages, strings, the generic one — over a dense grouping key and
// its spread-out twin, with the NULL key a group of its own in mid
// sequence, on plain inputs and under a selection vector.
func TestDenseGroupMatchesRow(t *testing.T) {
	f := aggTestVector()
	kinds := map[foldKind]bool{}
	for _, stride := range []int64{1, 1000} {
		tb := denseAggTable(stride)
		tc := ColTableOf(tb)
		if got := newKeyScan(tc, []int{0}, false).dense; got != (stride == 1) {
			t.Fatalf("stride %d: grouping key dense = %v", stride, got)
		}
		for _, a := range BindVector(f, tc.Schema) {
			kinds[foldKindOf(&a, tc)] = true
		}
		// A view without every third row: the selection drops keys' first
		// rows, so first-encounter order differs from the full table's.
		var sel []int32
		viewRows := &Table{Schema: tb.Schema}
		for i, row := range tb.Rows {
			if i%3 != 1 {
				sel = append(sel, int32(i))
				viewRows.Rows = append(viewRows.Rows, row)
			}
		}
		want, wantView := HashGroup(tb, []string{"g1"}, f), HashGroup(viewRows, []string{"g1"}, f)
		nullAt := slices.IndexFunc(want.Rows, func(r Row) bool { return r[0].IsNull() })
		if nullAt <= 0 || nullAt == len(want.Rows)-1 {
			t.Fatalf("NULL group at %d of %d: the fixture must put it mid-sequence", nullAt, len(want.Rows))
		}
		execs := intPathExecs()
		for name, e := range batchExecs() {
			execs[name] = e
		}
		for name, e := range execs {
			label := fmt.Sprintf("stride%d/%s", stride, name)
			identicalRows(t, label, want, e.BatchHashGroup(tc, BindAggregation(tc.Schema, []string{"g1"}, f)).Table())
			identicalRows(t, label+"/sel", wantView, e.BatchHashGroup(selTable(tc, sel), BindAggregation(tc.Schema, []string{"g1"}, f)).Table())
		}
	}
	for fk := foldGeneric; fk <= foldAvgFloat; fk++ {
		if !kinds[fk] {
			t.Errorf("fold kernel %d not exercised", fk)
		}
	}
}

// TestDenseFewGroupsExactSize: a dense range holding few keys far apart
// presizes the accumulators for the range, but the output columns hold
// exactly the groups found. (The presized arrays are the execution's, and
// go back to the free lists at Release — recycle.go.)
func TestDenseFewGroupsExactSize(t *testing.T) {
	const n = 4096
	g, v := make([]int64, n), make([]int64, n)
	for i := range g {
		g[i], v[i] = int64(i%2*(n-1)), int64(i)
	}
	tc := &ColTable{Schema: NewSchema([]string{"g", "v"}), N: n,
		Cols: []*Vector{{Kind: ColInt, Ints: g}, {Kind: ColInt, Ints: v}}}
	if ks := newKeyScan(tc, []int{0}, false); !ks.dense || ks.span != n {
		t.Fatalf("fixture: dense=%v span=%d", ks.dense, ks.span)
	}
	out := (*Exec)(nil).BatchHashGroup(tc, BindAggregation(tc.Schema, []string{"g"}, aggfn.Vector{
		{Out: "c", Kind: aggfn.CountStar}, {Out: "s", Kind: aggfn.Sum, Arg: "v"}}))
	if out.Card() != 2 {
		t.Fatalf("got %d groups, want 2", out.Card())
	}
	for j, col := range out.Cols {
		if l, c := len(col.Ints), cap(col.Ints); l != 2 || c != 2 {
			t.Errorf("output column %d has length %d, capacity %d for 2 groups", j, l, c)
		}
	}
}

// TestDenseUnderSelection feeds semijoin views of the dense tables into
// the direct-addressed paths as build side, probe side and grouping input.
func TestDenseUnderSelection(t *testing.T) {
	l, r := keyTables(1, false)
	lc, rc := ColTableOf(l), ColTableOf(r)
	lk, rk := []int{1}, []int{1}
	f := aggfn.Vector{{Out: "n", Kind: aggfn.CountStar}, {Out: "sf", Kind: aggfn.Sum, Arg: "lf"}}
	lsel, rsel := HashSemiJoin(l, r, []int{4}, []int{3}), HashSemiJoin(r, l, []int{3}, []int{4})
	wantGroup := HashGroup(lsel, []string{"lki"}, f)
	wantJoins := newRowJoins(lsel, rsel, lk, rk)
	for name, e := range intPathExecs() {
		lv := e.BatchHashSemiJoin(lc, rc, []int{4}, []int{3})
		rv := e.BatchHashSemiJoin(rc, lc, []int{3}, []int{4})
		if lv.Sel == nil || rv.Sel == nil || !newKeyScan(rv, rk, true).dense || !newKeyScan(lv, lk, false).dense {
			t.Fatalf("%s: the views must carry a selection and stay dense", name)
		}
		identicalRows(t, "sel-group/"+name, wantGroup, e.BatchHashGroup(lv, BindAggregation(lv.Schema, []string{"lki"}, f)).Table())
		wantJoins.check(t, "sel-join/"+name, e, lv, rv, lk, rk)
	}
}

// TestDensePostingsMatchHash: the posting lists of a build sorted by
// key−min are those of the hashed build on the same rows with their keys
// ×1000.
func TestDensePostingsMatchHash(t *testing.T) {
	_, r := keyTables(1, false)
	_, sparseR := keyTables(1000, false)
	rc, hc := ColTableOf(r), ColTableOf(sparseR)
	dense := (*Exec)(nil).batchBuildSide(rc, []int{1}, -1)
	hash := (*Exec)(nil).batchBuildSide(hc, []int{1}, -1)
	if !dense.dense || hash.ints == nil {
		t.Fatal("fixtures do not take the dense and the hash path")
	}
	var checks, passes int
	for k := int64(-600); k <= 600; k++ {
		if d, h := dense.lookInt(k, &checks, &passes), hash.lookInt(k*1000, &checks, &passes); !equalPosts(d, h) {
			t.Fatalf("key %d: dense postings %v, hash postings %v", k, d, h)
		}
	}
}

// TestDenseHashStats: direct-addressed builds and group indexes report
// through HashStats — one entry per distinct key, the key range as the
// capacity, a probe length of 1 — and are counted as dense.
func TestDenseHashStats(t *testing.T) {
	_, r := keyTables(1, false)
	rc := ColTableOf(r)
	distinct := map[int64]bool{}
	for _, row := range r.Rows {
		if !row[1].IsNull() {
			distinct[row[1].I] = true
		}
	}
	ks := newKeyScan(rc, []int{1}, true)
	for name, e := range map[string]*Exec{"seq": NewExec(1), "par": NewExec(4).WithMorselSize(64)} {
		hs := &HashStats{}
		e.WithHashStats(hs).BatchHashSemiJoin(rc, rc, []int{1}, []int{1})
		if s := hs.Snapshot(); s.Builds != 1 || s.Dense != 1 || s.Entries != int64(len(distinct)) || s.Capacity != int64(ks.span) || s.MaxProbe != 1 || s.BloomChecks != 0 {
			t.Errorf("%s join: %+v, want one dense build of %d keys over %d", name, s, len(distinct), ks.span)
		}
		hs = &HashStats{}
		e.WithHashStats(hs).BatchHashGroup(rc, BindAggregation(rc.Schema, []string{"rki"}, aggfn.Vector{{Out: "n", Kind: aggfn.CountStar}}))
		s := hs.Snapshot()
		if s.Builds != 1 || s.Dense != 1 || s.Entries != int64(len(distinct)) || s.Capacity != int64(ks.span) || s.MaxProbe != 1 {
			t.Errorf("%s group: %+v, want one dense index of %d keys over %d", name, s, len(distinct), ks.span)
		}
	}
}
