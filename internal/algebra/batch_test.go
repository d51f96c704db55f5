package algebra

import (
	"fmt"
	"math"
	"testing"

	"eagg/internal/aggfn"
)

// Differential tests of the batch runtime against the row runtime. TPC-H
// generated data is all-Int, so these tests build columns of every
// physical kind — typed int/float/string with NULL bitmaps, mixed-kind
// fallbacks, -0.0, NaN, integral floats — and assert that every batch
// operator reproduces its row counterpart bit for bit, sequentially and
// under the morsel-parallel variants, across batch sizes.

// batchExecs is the (workers, morsel, batch-size) matrix every
// differential test runs. Explicit morsel sizes force the parallel
// machinery onto tiny inputs.
func batchExecs() map[string]*Exec {
	return map[string]*Exec{
		"seq-default": nil,
		"seq-b1":      NewExec(1).WithBatchSize(1),
		"seq-b3":      NewExec(1).WithBatchSize(3),
		"par-b1":      NewExec(8).WithMorselSize(2).WithBatchSize(1),
		"par-b7":      NewExec(8).WithMorselSize(3).WithBatchSize(7),
		"par-b1024":   NewExec(8).WithMorselSize(2).WithBatchSize(1024),
	}
}

// gjSchema is a groupjoin's output schema: l's, then f's outputs.
func gjSchema(l *ColTable, f aggfn.Vector) *Schema {
	return NewSchema(append(append([]string(nil), l.Schema.Names()...), f.Outs()...))
}

// identicalRows fails unless want and got agree as value sequences, bit
// for bit (float payloads compared by Float64bits, so -0.0 ≠ +0.0 and
// NaN payloads must match).
func identicalRows(t *testing.T, label string, want, got *Table) {
	t.Helper()
	wn, gn := want.Schema.Names(), got.Schema.Names()
	if fmt.Sprint(wn) != fmt.Sprint(gn) {
		t.Fatalf("%s: schema %v != %v", label, gn, wn)
	}
	if len(want.Rows) != len(got.Rows) {
		t.Fatalf("%s: %d rows, want %d", label, len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		for j := range want.Rows[i] {
			a, b := want.Rows[i][j], got.Rows[i][j]
			if a.Kind != b.Kind || a.I != b.I || a.S != b.S ||
				math.Float64bits(a.F) != math.Float64bits(b.F) {
				t.Fatalf("%s: row %d col %d: got %v (kind %v, bits %x), want %v (kind %v, bits %x)",
					label, i, j, b, b.Kind, math.Float64bits(b.F), a, a.Kind, math.Float64bits(a.F))
			}
		}
	}
}

// mixedKey produces a key-domain value cycling through every kind the
// join encoding distinguishes: ints, integral floats (normalize to the
// int encoding), fractional floats, NULLs and NaNs (match nothing).
func mixedKey(i int) Value {
	switch i % 7 {
	case 0:
		return Int(int64(i % 5))
	case 1:
		return Float(float64(i % 5)) // integral float — joins with Int
	case 2:
		return Null
	case 3:
		return Float(math.NaN())
	case 4:
		return Float(float64(i%5) + 0.5)
	case 5:
		return Str(fmt.Sprintf("k%d", i%4))
	default:
		return Int(int64(i % 4))
	}
}

// batchTestTables builds a left and right table with columns of every
// physical kind. Key columns come in a typed-int flavor (km), a
// typed-float flavor (kf) and a mixed flavor (kx).
func batchTestTables() (l, r *Table) {
	ls := NewSchema([]string{"lid", "lkm", "lkf", "lkx", "lf", "ls"})
	l = &Table{Schema: ls}
	for i := 0; i < 41; i++ {
		km := Int(int64(i % 6))
		if i%9 == 4 {
			km = Null
		}
		kf := Float(float64(i % 4))
		if i%8 == 5 {
			kf = Float(math.NaN())
		}
		lf := Float(float64(i) * 1.25)
		if i%11 == 3 {
			lf = Float(math.Copysign(0, -1)) // -0.0
		}
		if i%13 == 7 {
			lf = Null
		}
		l.Rows = append(l.Rows, Row{
			Int(int64(i)), km, kf, mixedKey(i), lf, Str(fmt.Sprintf("s%d", i%5)),
		})
	}
	rs := NewSchema([]string{"rid", "rkm", "rkf", "rkx", "rv", "rw", "rs"})
	r = &Table{Schema: rs}
	for i := 0; i < 53; i++ {
		km := Int(int64(i % 7))
		if i%10 == 6 {
			km = Null
		}
		rv := Int(int64(i * 3))
		if i%6 == 2 {
			rv = Null
		}
		r.Rows = append(r.Rows, Row{
			Int(int64(1000 + i)), km, Float(float64(i % 4)), mixedKey(i + 2),
			rv, Float(float64(i) / 8), Str(fmt.Sprintf("r%d", i%6)),
		})
	}
	return l, r
}

func TestBatchJoinsMatchRow(t *testing.T) {
	l, r := batchTestTables()
	keySets := []struct {
		name   string
		lk, rk []int
	}{
		{"int", []int{1}, []int{1}},
		{"float-vs-int", []int{2}, []int{1}}, // integral-float normalization
		{"mixed", []int{3}, []int{3}},
		{"two-col", []int{1, 3}, []int{1, 3}},
	}
	npad := NullRow(r.Schema)
	vpad := NullRow(r.Schema)
	vpad[4] = Int(1) // engine-style default vector into an int column
	vpad[5] = Int(0) // Int default into a float column → mixed demotion
	lpad := NullRow(l.Schema)
	lpad[0] = Int(7)

	for _, ks := range keySets {
		lc, rc := ColTableOf(l), ColTableOf(r)
		for name, e := range batchExecs() {
			prefix := fmt.Sprintf("%s/%s", ks.name, name)
			identicalRows(t, prefix+"/join",
				HashJoin(l, r, ks.lk, ks.rk),
				e.BatchHashJoin(lc, rc, ks.lk, ks.rk, lc.Schema.Concat(rc.Schema)).Table())
			identicalRows(t, prefix+"/semi",
				HashSemiJoin(l, r, ks.lk, ks.rk),
				e.BatchHashSemiJoin(lc, rc, ks.lk, ks.rk).Table())
			identicalRows(t, prefix+"/anti",
				HashAntiJoin(l, r, ks.lk, ks.rk),
				e.BatchHashAntiJoin(lc, rc, ks.lk, ks.rk).Table())
			identicalRows(t, prefix+"/leftouter-null",
				HashLeftOuter(l, r, ks.lk, ks.rk, npad),
				e.BatchHashLeftOuter(lc, rc, ks.lk, ks.rk, npad, lc.Schema.Concat(rc.Schema)).Table())
			identicalRows(t, prefix+"/leftouter-defaults",
				HashLeftOuter(l, r, ks.lk, ks.rk, vpad),
				e.BatchHashLeftOuter(lc, rc, ks.lk, ks.rk, vpad, lc.Schema.Concat(rc.Schema)).Table())
			identicalRows(t, prefix+"/fullouter",
				HashFullOuter(l, r, ks.lk, ks.rk, lpad, vpad),
				e.BatchHashFullOuter(lc, rc, ks.lk, ks.rk, lpad, vpad, lc.Schema.Concat(rc.Schema)).Table())
			for kind, want := range []*Table{
				HashJoin(l, r, ks.lk, ks.rk), HashSemiJoin(l, r, ks.lk, ks.rk),
				HashAntiJoin(l, r, ks.lk, ks.rk), HashLeftOuter(l, r, ks.lk, ks.rk, vpad),
			} {
				got, err := e.BatchMergeJoin(MergeKind(kind), lc, rc, ks.lk, ks.rk, true, true, vpad, lc.Schema.Concat(rc.Schema))
				if err != nil {
					t.Fatalf("%s/merge kind %d: %v", prefix, kind, err)
				}
				identicalRows(t, fmt.Sprintf("%s/merge kind %d", prefix, kind), want, got.Table())
			}
		}
	}
}

// aggColumnsTable builds the aggregation-input table: group columns of
// several kinds, argument columns typed int/float/string plus a
// numeric-mixed column, with NULLs sprinkled through all of them and a
// singleton group whose only float value is -0.0 (pinning addTo's
// first-assignment semantics — a zero-initialized sum would flip it to
// +0.0).
func aggColumnsTable() *Table {
	s := NewSchema([]string{"g1", "g2", "ai", "af", "as", "am", "bi", "wi"})
	tb := &Table{Schema: s}
	for i := 0; i < 67; i++ {
		g1 := Int(int64(i % 5))
		if i%17 == 9 {
			g1 = Null // NULLs form their own group
		}
		ai := Int(int64(i * 2))
		if i%7 == 3 {
			ai = Null
		}
		af := Float(float64(i) * 0.3)
		if i%9 == 1 {
			af = Float(math.NaN())
		}
		if i%13 == 5 {
			af = Null
		}
		as := Str(fmt.Sprintf("v%02d", (i*7)%10))
		if i%15 == 8 {
			as = Null
		}
		var am Value // numeric-mixed: Int / Float / NULL
		switch i % 3 {
		case 0:
			am = Int(int64(i))
		case 1:
			am = Float(float64(i) + 0.5)
		default:
			am = Null
		}
		bi := Int(int64(i%4 + 1))
		if i%19 == 11 {
			bi = Null
		}
		tb.Rows = append(tb.Rows, Row{
			g1, Str(fmt.Sprintf("g%d", i%3)), ai, af, as, am, bi, Int(int64(i%3 + 1)),
		})
	}
	// Singleton group: sum over exactly one -0.0.
	tb.Rows = append(tb.Rows, Row{
		Int(999), Str("gz"), Null, Float(math.Copysign(0, -1)), Null, Null, Int(1), Int(1),
	})
	return tb
}

func aggTestVector() aggfn.Vector {
	return aggfn.Vector{
		{Out: "cstar", Kind: aggfn.CountStar},
		{Out: "cnt", Kind: aggfn.Count, Arg: "ai"},
		{Out: "si", Kind: aggfn.Sum, Arg: "ai"},
		{Out: "sf", Kind: aggfn.Sum, Arg: "af"},
		{Out: "sm", Kind: aggfn.Sum, Arg: "am"},
		{Out: "sti", Kind: aggfn.SumTimes, Arg: "ai", Arg2: "bi"},
		{Out: "stf", Kind: aggfn.SumTimes, Arg: "af", Arg2: "bi"},
		{Out: "sin", Kind: aggfn.SumIfNotNull, Arg: "af", Arg2: "bi"},
		{Out: "sinm", Kind: aggfn.SumIfNotNull, Arg: "ai", Arg2: "am"},
		{Out: "mni", Kind: aggfn.Min, Arg: "ai"},
		{Out: "mxi", Kind: aggfn.Max, Arg: "ai"},
		{Out: "mnf", Kind: aggfn.Min, Arg: "af"},
		{Out: "mxf", Kind: aggfn.Max, Arg: "af"},
		{Out: "mns", Kind: aggfn.Min, Arg: "as"},
		{Out: "mxs", Kind: aggfn.Max, Arg: "as"},
		{Out: "avi", Kind: aggfn.Avg, Arg: "ai"},
		{Out: "avf", Kind: aggfn.Avg, Arg: "af"},
		{Out: "avm", Kind: aggfn.AvgMerge, Arg: "ai", Arg2: "bi", Weight: "wi"},
		{Out: "avw", Kind: aggfn.AvgWeighted, Arg: "af", Arg2: "bi"},
		{Out: "sd", Kind: aggfn.SumDistinct, Arg: "ai"},
		{Out: "cd", Kind: aggfn.CountDistinct, Arg: "as"},
		{Out: "ad", Kind: aggfn.AvgDistinct, Arg: "af"},
		{Out: "gone", Kind: aggfn.Sum, Arg: "absent"},
	}
}

func TestBatchGroupMatchesRow(t *testing.T) {
	tb := aggColumnsTable()
	f := aggTestVector()
	for _, groupBy := range [][]string{
		{"g1"}, {"g2"}, {"g1", "g2"}, {"af"}, {"absent"}, {},
	} {
		want := HashGroup(tb, groupBy, f)
		tc := ColTableOf(tb)
		for name, e := range batchExecs() {
			got := e.BatchHashGroup(tc, BindAggregation(tc.Schema, groupBy, f)).Table()
			identicalRows(t, fmt.Sprintf("group%v/%s", groupBy, name), want, got)
			sorted, err := e.BatchSortGroup(tc, BindAggregation(tc.Schema, groupBy, f), true, nil)
			if err != nil {
				t.Fatalf("sortgroup%v/%s: %v", groupBy, name, err)
			}
			identicalRows(t, fmt.Sprintf("sortgroup%v/%s", groupBy, name), want, sorted.Table())
		}
	}
}

func TestBatchGroupJoinMatchesRow(t *testing.T) {
	l, r := batchTestTables()
	f := aggfn.Vector{
		{Out: "n", Kind: aggfn.CountStar},
		{Out: "sv", Kind: aggfn.Sum, Arg: "rv"},
		{Out: "sw", Kind: aggfn.Sum, Arg: "rw"},
		{Out: "mw", Kind: aggfn.Max, Arg: "rw"},
		{Out: "cs", Kind: aggfn.CountDistinct, Arg: "rs"},
	}
	want := HashGroupJoin(l, r, []int{1}, []int{1}, f)
	lc, rc := ColTableOf(l), ColTableOf(r)
	for name, e := range batchExecs() {
		got := e.BatchHashGroupJoin(lc, rc, []int{1}, []int{1}, BindVector(f, rc.Schema), gjSchema(lc, f)).Table()
		identicalRows(t, "groupjoin/"+name, want, got)
	}
}

// TestBatchSelectionChaining drives Sel-view outputs through downstream
// operators: semijoin → group, antijoin → join, a semijoin output as a
// build side, and groupjoin over a selected left input — the
// selection-vector composition rules end to end.
func TestBatchSelectionChaining(t *testing.T) {
	l, r := batchTestTables()
	lk, rk := []int{1}, []int{1}
	f := aggfn.Vector{
		{Out: "n", Kind: aggfn.CountStar},
		{Out: "sf", Kind: aggfn.Sum, Arg: "lf"},
		{Out: "mx", Kind: aggfn.Max, Arg: "lid"},
	}
	wantSemi := HashSemiJoin(l, r, lk, rk)
	wantGroup := HashGroup(wantSemi, []string{"ls"}, f)
	wantAnti := HashAntiJoin(l, r, lk, rk)
	wantJoin := HashJoin(wantAnti, r, lk, rk) // empty by construction, still must agree
	wantBuild := HashJoin(r, wantSemi, rk, lk)
	gjf := aggfn.Vector{
		{Out: "n", Kind: aggfn.CountStar},
		{Out: "s", Kind: aggfn.Sum, Arg: "lf"},
	}
	wantGJ := HashGroupJoin(r, wantSemi, rk, lk, gjf)

	lc, rc := ColTableOf(l), ColTableOf(r)
	for name, e := range batchExecs() {
		semi := e.BatchHashSemiJoin(lc, rc, lk, rk)
		identicalRows(t, "chain-semi/"+name, wantSemi, semi.Table())
		identicalRows(t, "chain-semi-group/"+name, wantGroup,
			e.BatchHashGroup(semi, BindAggregation(semi.Schema, []string{"ls"}, f)).Table())
		anti := e.BatchHashAntiJoin(lc, rc, lk, rk)
		identicalRows(t, "chain-anti-join/"+name, wantJoin,
			e.BatchHashJoin(anti, rc, lk, rk, anti.Schema.Concat(rc.Schema)).Table())
		identicalRows(t, "chain-build-sel/"+name, wantBuild,
			e.BatchHashJoin(rc, semi, rk, lk, rc.Schema.Concat(semi.Schema)).Table())
		identicalRows(t, "chain-gj-sel/"+name, wantGJ,
			e.BatchHashGroupJoin(rc, semi, rk, lk, BindVector(gjf, semi.Schema), gjSchema(rc, gjf)).Table())
	}
}

// TestBatchSemiJoinZeroCopy pins the zero-copy contract: a semijoin
// output shares its column storage with the input.
func TestBatchSemiJoinZeroCopy(t *testing.T) {
	l, r := batchTestTables()
	lc, rc := ColTableOf(l), ColTableOf(r)
	got := (*Exec)(nil).BatchHashSemiJoin(lc, rc, []int{1}, []int{1})
	if got.Sel == nil {
		t.Fatalf("semijoin output has no selection vector")
	}
	if len(got.Cols) == 0 || len(got.Cols[0].Ints) == 0 || &got.Cols[0].Ints[0] != &lc.Cols[0].Ints[0] {
		t.Fatalf("semijoin output does not share input column storage")
	}
	for i := 1; i < len(got.Sel); i++ {
		if got.Sel[i] <= got.Sel[i-1] {
			t.Fatalf("selection vector not monotone at %d: %v", i, got.Sel[:i+1])
		}
	}
}

func TestBatchExtendProductMatchesRow(t *testing.T) {
	s := NewSchema([]string{"a", "w1", "w2", "wf"})
	tb := &Table{Schema: s}
	for i := 0; i < 33; i++ {
		w2 := Int(int64(i%5 + 1))
		if i%13 == 4 {
			w2 = Null
		}
		tb.Rows = append(tb.Rows, Row{
			Int(int64(i)), Int(int64(i%3 + 1)), w2, Float(float64(i) * 0.5),
		})
	}
	for _, attrs := range [][]string{{"w1", "w2"}, {"w1", "wf"}} {
		slots := s.Slots(attrs)
		want := ExtendTable(tb, "prod", func(row Row) Value {
			v := Int(1)
			for _, sl := range slots {
				v = Mul(v, row[sl])
			}
			return v
		})
		tc := ColTableOf(tb)
		for name, e := range batchExecs() {
			got := e.BatchExtendProduct(tc, tc.Schema.Extend("prod"), slots).Table()
			identicalRows(t, fmt.Sprintf("product%v/%s", attrs, name), want, got)
		}
	}
}

// TestBuildSidePostings pins that the scratch-buffer-reusing key encoding
// leaves posting lists exactly as a fresh-buffer-per-row build produces
// them (satellite of the buffer-reuse change): same keys, same row
// indices, same order — including string keys sharing prefixes, where a
// buffer aliasing bug would show first.
func TestBuildSidePostings(t *testing.T) {
	s := NewSchema([]string{"k", "v"})
	tb := &Table{Schema: s}
	keys := []Value{
		Str("aa"), Str("aab"), Str("aa"), Str("a"), Null, Str("aab"),
		Int(7), Float(7), Int(7), Float(7.5), Float(math.NaN()), Str("aa"),
	}
	for i, k := range keys {
		tb.Rows = append(tb.Rows, Row{k, Int(int64(i))})
	}
	rk := []int{0}
	got := buildSide(tb, rk)
	naive := map[string][]int32{}
	for i, row := range tb.Rows {
		if rowHasNullKey(row, rk) {
			continue
		}
		k := string(appendJoinKey(nil, row, rk))
		naive[k] = append(naive[k], int32(i))
	}
	if len(got) != len(naive) {
		t.Fatalf("posting table has %d keys, want %d", len(got), len(naive))
	}
	for k, want := range naive {
		if fmt.Sprint(got[k]) != fmt.Sprint(want) {
			t.Fatalf("postings for %q: got %v, want %v", k, got[k], want)
		}
	}
	// Int(7) and Float(7) must share a posting list (join normalization),
	// and the NaN/NULL rows must be absent.
	k7 := string(appendJoinKey(nil, Row{Int(7)}, []int{0}))
	if fmt.Sprint(naive[k7]) != "[6 7 8]" {
		t.Fatalf("normalized int/float postings = %v, want [6 7 8]", naive[k7])
	}
}

// TestDistinctScratchReuse pins the distinct accumulators against the
// shared scratch buffer: values with shared encoding prefixes must stay
// distinct, and results must match a literal enumeration.
func TestDistinctScratchReuse(t *testing.T) {
	s := NewSchema([]string{"g", "v", "n"})
	tb := &Table{Schema: s}
	add := func(g string, v Value, n int64) {
		tb.Rows = append(tb.Rows, Row{Str(g), v, Int(n)})
	}
	add("a", Str("xx"), 5)
	add("a", Str("xxy"), 5)
	add("a", Str("xx"), 7)
	add("a", Null, 9)
	add("b", Str("x"), 1)
	add("b", Str("x"), 2)
	f := aggfn.Vector{
		{Out: "cd", Kind: aggfn.CountDistinct, Arg: "v"},
		{Out: "sd", Kind: aggfn.SumDistinct, Arg: "n"},
	}
	got := HashGroup(tb, []string{"g"}, f)
	want := [][2]int64{{2, 21}, {1, 3}} // a: {xx,xxy}, 5+7+9; b: {x}, 1+2
	if len(got.Rows) != 2 {
		t.Fatalf("got %d groups, want 2", len(got.Rows))
	}
	for i, w := range want {
		if got.Rows[i][1].I != w[0] || got.Rows[i][2].I != w[1] {
			t.Fatalf("group %d: got (%v, %v), want %v", i, got.Rows[i][1], got.Rows[i][2], w)
		}
	}
	// And the batch runtime agrees.
	for name, e := range batchExecs() {
		identicalRows(t, "distinct/"+name, got, e.BatchHashGroup(ColTableOf(tb), BindAggregation(tb.Schema, []string{"g"}, f)).Table())
	}
}

// TestColTableRoundTrip pins Table → ColTable → Table as the identity on
// every value, including NaN payloads and -0.0.
func TestColTableRoundTrip(t *testing.T) {
	l, r := batchTestTables()
	identicalRows(t, "roundtrip-l", l, ColTableOf(l).Table())
	identicalRows(t, "roundtrip-r", r, ColTableOf(r).Table())
	agg := aggColumnsTable()
	identicalRows(t, "roundtrip-agg", agg, ColTableOf(agg).Table())
	if c := agg.Columnar(); c != agg.Columnar() {
		t.Fatalf("Columnar cache not stable")
	}
}

// TestRowTableSpans pins the result boundary's concurrent arm: filling the
// row spans of one slab on several workers — every column kind, NULLs, a
// selection — yields the table the sequential conversion does, which in
// turn is the row-by-row Value reading.
func TestRowTableSpans(t *testing.T) {
	l, r := intKeyTables()
	lc, rc := ColTableOf(l), ColTableOf(r)
	view := (*Exec)(nil).BatchHashSemiJoin(lc, rc, []int{4}, []int{3})
	for _, tc := range []*ColTable{lc, view, selTable(lc, nil)} {
		want := &Table{Schema: tc.Schema}
		for li := 0; li < tc.Card(); li++ {
			row := make(Row, len(tc.Cols))
			for ci := range tc.Cols {
				row[ci] = tc.Cols[ci].Value(int(tc.phys(li)))
			}
			want.Rows = append(want.Rows, row)
		}
		identicalRows(t, "sequential", want, tc.Table())
		for name, e := range intPathExecs() {
			identicalRows(t, name, want, e.RowTable(tc))
		}
	}
}

// intPathExecs is the matrix of the int-key tests: the sequential arm
// and the morsel-parallel arm at workers 2 and 8 × explicit morsel sizes
// 64 (dozens of morsels) and 4096 (two), all of which must agree.
func intPathExecs() map[string]*Exec {
	m := map[string]*Exec{"w1": NewExec(1)}
	for _, w := range []int{2, 8} {
		for _, ms := range []int{64, 4096} {
			m[fmt.Sprintf("w%d-m%d", w, ms)] = NewExec(w).WithMorselSize(ms)
		}
	}
	return m
}

// intKeyTables builds a probe table (5000 rows) and a build table (4500
// rows) whose ki columns are typed int, next to float, mixed and string
// columns over the same key domain: negatives, NULLs (the first only after
// several other keys) and both int64 extremes — a key range that
// overflows int64, so these columns always take the hash path.
func intKeyTables() (l, r *Table) { return keyTables(1, true) }

// keyTables is intKeyTables over the 997-key domain [-498, 498]·stride,
// with or without the int64 extremes. Without them and with stride 1 the
// int columns qualify for direct addressing (dense.go); a stride beyond
// denseMultiple·rows/997 keeps the same rows on the hash path.
func keyTables(stride int64, extremes bool) (l, r *Table) {
	base := func(i int) int64 { return int64(i%997-498) * stride }
	key := func(i int) Value {
		switch {
		case i%29 == 17:
			return Null
		case extremes && i%101 == 50:
			return Int(math.MinInt64)
		case extremes && i%103 == 51:
			return Int(math.MaxInt64)
		}
		return Int(base(i))
	}
	l = &Table{Schema: NewSchema([]string{"lid", "lki", "lkf", "lkx", "lks", "lf"})}
	for i := 0; i < 5000; i++ {
		kf := Float(float64(base(i))) // integral: joins with the int keys
		switch {
		case i%7 == 3:
			kf = Float(float64(base(i)) + 0.5)
		case i%31 == 5:
			kf = Float(math.NaN())
		case i%37 == 9:
			kf = Null
		case extremes && i%101 == 50:
			kf = Float(math.MinInt64) // exactly -2^63: equals Int(MinInt64)
		}
		var kx Value
		switch i % 5 {
		case 0:
			kx = key(i)
		case 1:
			kx = Float(float64(base(i)))
		case 2:
			kx = Str(fmt.Sprintf("%d", base(i)))
		case 3:
			kx = Float(math.NaN())
		default:
			kx = Float(float64(base(i)) + 0.25)
		}
		l.Rows = append(l.Rows, Row{
			Int(int64(i)), key(i), kf, kx, Str(fmt.Sprintf("%d", base(i))), Float(float64(i) * 0.37),
		})
	}
	r = &Table{Schema: NewSchema([]string{"rid", "rki", "rkx", "rks", "rv"})}
	for i := 0; i < 4500; i++ {
		kx := key(i * 3)
		if i%4 == 1 {
			kx = Str(fmt.Sprintf("%d", base(i)))
		}
		r.Rows = append(r.Rows, Row{
			Int(int64(100000 + i)), key(i * 3), kx, Str(fmt.Sprintf("%d", base(i*3)+298*stride)), Int(int64(i)),
		})
	}
	return l, r
}

// mustSortGroup is BatchSortGroup with the sort performed.
func mustSortGroup(t *testing.T, e *Exec, in *ColTable, groupBy []string, f aggfn.Vector) *ColTable {
	t.Helper()
	out, err := e.BatchSortGroup(in, BindAggregation(in.Schema, groupBy, f), true, nil)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// rowJoins holds the row runtime's output of all six join operators for
// one (tables, keys) case; check requires an executor's batch operators
// to reproduce them bit for bit.
type rowJoins struct {
	pad, lpad Row
	f         aggfn.Vector
	want      [6]*Table
}

func newRowJoins(l, r *Table, lk, rk []int) *rowJoins {
	j := &rowJoins{pad: NullRow(r.Schema), lpad: NullRow(l.Schema)}
	last := len(j.pad) - 1
	j.pad[last] = Int(1)
	j.f = aggfn.Vector{{Out: "n", Kind: aggfn.CountStar}, {Out: "sv", Kind: aggfn.Sum, Arg: r.Schema.Names()[last]}}
	j.want = [6]*Table{
		HashJoin(l, r, lk, rk), HashSemiJoin(l, r, lk, rk), HashAntiJoin(l, r, lk, rk),
		HashLeftOuter(l, r, lk, rk, j.pad), HashFullOuter(l, r, lk, rk, j.lpad, j.pad),
		HashGroupJoin(l, r, lk, rk, j.f),
	}
	return j
}

func (j *rowJoins) check(t *testing.T, label string, e *Exec, lc, rc *ColTable, lk, rk []int) {
	t.Helper()
	identicalRows(t, label+"/join", j.want[0], e.BatchHashJoin(lc, rc, lk, rk, lc.Schema.Concat(rc.Schema)).Table())
	identicalRows(t, label+"/semi", j.want[1], e.BatchHashSemiJoin(lc, rc, lk, rk).Table())
	identicalRows(t, label+"/anti", j.want[2], e.BatchHashAntiJoin(lc, rc, lk, rk).Table())
	identicalRows(t, label+"/leftouter", j.want[3], e.BatchHashLeftOuter(lc, rc, lk, rk, j.pad, lc.Schema.Concat(rc.Schema)).Table())
	identicalRows(t, label+"/fullouter", j.want[4], e.BatchHashFullOuter(lc, rc, lk, rk, j.lpad, j.pad, lc.Schema.Concat(rc.Schema)).Table())
	identicalRows(t, label+"/groupjoin", j.want[5], e.BatchHashGroupJoin(lc, rc, lk, rk, BindVector(j.f, rc.Schema), gjSchema(lc, j.f)).Table())
	j.checkMerge(t, label, e, lc, rc, lk, rk, true, true)
}

// checkMerge requires an executor's four sort-merge operators to
// reproduce the row runtime's hash operators bit for bit. A false sort
// flag claims that input is already ordered on its key.
func (j *rowJoins) checkMerge(t *testing.T, label string, e *Exec, lc, rc *ColTable, lk, rk []int, sortL, sortR bool) {
	t.Helper()
	for kind, name := range []string{"merge", "mergesemi", "mergeanti", "mergeleftouter"} {
		got, err := e.BatchMergeJoin(MergeKind(kind), lc, rc, lk, rk, sortL, sortR, j.pad, lc.Schema.Concat(rc.Schema))
		if err != nil {
			t.Fatalf("%s/%s: %v", label, name, err)
		}
		identicalRows(t, label+"/"+name, j.want[kind], got.Table())
	}
}

// TestParallelIntJoins drives the int-keyed build (a single ColInt build
// key: raw payloads, one intIndex) under a parallel probe against
// probe columns of every kind — int, integral/fractional/NaN floats,
// mixed, string, absent — with NULL, negative and MinInt64/MaxInt64
// keys, and the reverse shapes (mixed or string build key, int probe),
// which must fall back to the encoded path. Every executor of the matrix
// must reproduce the row runtime.
func TestParallelIntJoins(t *testing.T) {
	l, r := intKeyTables()
	lc, rc := ColTableOf(l), ColTableOf(r)
	for _, c := range []struct {
		name   string
		lk, rk []int
		ints   bool // the build side takes the int path
	}{
		{"int-int", []int{1}, []int{1}, true},
		{"float-int", []int{2}, []int{1}, true},
		{"mixed-int", []int{3}, []int{1}, true},
		{"str-int", []int{4}, []int{1}, true},
		{"absent-int", []int{-1}, []int{1}, true},
		{"int-mixed", []int{1}, []int{2}, false},
		{"int-str", []int{1}, []int{3}, false},
		{"int-absent", []int{1}, []int{-1}, false},
	} {
		if got := newKeyScan(rc, c.rk, true).col != nil; got != c.ints {
			t.Fatalf("%s: build side int path = %v, want %v", c.name, got, c.ints)
		}
		want := newRowJoins(l, r, c.lk, c.rk)
		for name, e := range intPathExecs() {
			want.check(t, c.name+"/"+name, e, lc, rc, c.lk, c.rk)
		}
	}
}

// TestParallelIntGroup pins the int-key aggregation across the matrix:
// the NULL key is a group of its own at its first-encounter position,
// negative and extreme keys group like any other, and order-sensitive
// float sums and averages come out bit-identical — through the typed
// kernels, a string kernel and the generic one.
func TestParallelIntGroup(t *testing.T) {
	l, _ := intKeyTables()
	lc := ColTableOf(l)
	f := aggfn.Vector{
		{Out: "n", Kind: aggfn.CountStar},
		{Out: "sf", Kind: aggfn.Sum, Arg: "lf"},
		{Out: "af", Kind: aggfn.Avg, Arg: "lf"},
		{Out: "si", Kind: aggfn.Sum, Arg: "lid"},
		{Out: "skf", Kind: aggfn.Sum, Arg: "lkf"}, // NULLs and NaNs in the argument
		{Out: "ms", Kind: aggfn.Min, Arg: "lks"},
		{Out: "cd", Kind: aggfn.CountDistinct, Arg: "lks"},
	}
	want := HashGroup(l, []string{"lki"}, f)
	nullAt := -1
	for i, row := range want.Rows {
		if row[0].IsNull() {
			nullAt = i
		}
	}
	if nullAt <= 0 || nullAt == len(want.Rows)-1 {
		t.Fatalf("NULL group at %d of %d: the fixture must put it mid-sequence", nullAt, len(want.Rows))
	}
	for name, e := range intPathExecs() {
		identicalRows(t, "group/"+name, want, e.BatchHashGroup(lc, BindAggregation(lc.Schema, []string{"lki"}, f)).Table())
		identicalRows(t, "sortgroup/"+name, want, mustSortGroup(t, e, lc, []string{"lki"}, f).Table())
	}
}

// TestParallelIntUnderSelection feeds selection-vector views (semijoin
// outputs: shared columns, monotone Sel) into the int paths as grouping
// input, build side and probe side.
func TestParallelIntUnderSelection(t *testing.T) {
	l, r := intKeyTables()
	lc, rc := ColTableOf(l), ColTableOf(r)
	lk, rk := []int{1}, []int{1}
	f := aggfn.Vector{{Out: "n", Kind: aggfn.CountStar}, {Out: "sf", Kind: aggfn.Sum, Arg: "lf"}}
	// Selecting on the string key keeps NULL int keys in the view.
	lsel, rsel := HashSemiJoin(l, r, []int{4}, []int{3}), HashSemiJoin(r, l, []int{3}, []int{4})
	wantGroup := HashGroup(lsel, []string{"lki"}, f)
	wantJoins := newRowJoins(lsel, rsel, lk, rk)
	for name, e := range intPathExecs() {
		lv := e.BatchHashSemiJoin(lc, rc, []int{4}, []int{3})
		rv := e.BatchHashSemiJoin(rc, lc, []int{3}, []int{4})
		if lv.Sel == nil || rv.Sel == nil || lv.Card() == lc.Card() || rv.Card() == rc.Card() {
			t.Fatalf("%s: semijoin views carry no real selection", name)
		}
		identicalRows(t, "sel-group/"+name, wantGroup, e.BatchHashGroup(lv, BindAggregation(lv.Schema, []string{"lki"}, f)).Table())
		identicalRows(t, "sel-sortgroup/"+name, wantGroup, mustSortGroup(t, e, lv, []string{"lki"}, f).Table())
		wantJoins.check(t, "sel-join/"+name, e, lv, rv, lk, rk)
	}
}
