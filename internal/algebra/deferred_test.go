package algebra

import (
	"fmt"
	"testing"

	"eagg/internal/aggfn"
)

// Tests of late materialization (vector.go): a join's output is a view, and
// whatever reads it — the next join on either side, a selection, a padded
// side, Γ, Π, the weight product, the result boundary — must see exactly
// the values the row runtime copies, in its order, and the bag the frozen
// nested-loop operators of the reference executor produce.

// dnode is one operator of a little plan over keyTables' relations that
// runs on all three runtimes. The row runtime's and the reference's outputs
// are computed once; the batch runtime's per executor, since reading a
// view gathers into it.
type dnode struct {
	kind   string // scan, or a join kind of deferredKinds
	l, r   *dnode
	lk, rk string
	row    *Table
	ref    *Rel
}

func scanNode(t *Table) *dnode { return &dnode{kind: "scan", row: t, ref: t.Rel()} }

// deferredKinds are the six batch hash joins and the two merge joins that
// emit pairs.
var deferredKinds = []string{"join", "semi", "anti", "leftouter", "fullouter", "groupjoin", "merge", "mergeouter"}

// joinNode builds l ⋈ r of the given kind on l.lk = r.rk and evaluates it
// on the row runtime and the reference. Pads are NULL but for the right
// side's last attribute, which pads with 1 (the engine's count default);
// the groupjoin counts and sums that attribute.
func joinNode(kind string, l, r *dnode, lk, rk string) *dnode {
	n := &dnode{kind: kind, l: l, r: r, lk: lk, rk: rk}
	ls, rs := l.row.Schema, r.row.Schema
	lks, rks := ls.Slots([]string{lk}), rs.Slots([]string{rk})
	last := rs.Name(rs.Len() - 1)
	rpad, p, d := n.rpad(), EqAttr(lk, rk), Defaults{last: Int(1)}
	switch kind {
	case "join", "merge":
		n.row, n.ref = HashJoin(l.row, r.row, lks, rks), Join(l.ref, r.ref, p)
	case "semi":
		n.row, n.ref = HashSemiJoin(l.row, r.row, lks, rks), SemiJoin(l.ref, r.ref, p)
	case "anti":
		n.row, n.ref = HashAntiJoin(l.row, r.row, lks, rks), AntiJoin(l.ref, r.ref, p)
	case "leftouter", "mergeouter":
		n.row, n.ref = HashLeftOuter(l.row, r.row, lks, rks, rpad), LeftOuter(l.ref, r.ref, p, d)
	case "fullouter":
		n.row, n.ref = HashFullOuter(l.row, r.row, lks, rks, NullRow(ls), rpad), FullOuter(l.ref, r.ref, p, nil, d)
	case "groupjoin":
		n.row, n.ref = HashGroupJoin(l.row, r.row, lks, rks, n.groupJoinAggs()), GroupJoin(l.ref, r.ref, p, n.groupJoinAggs())
	}
	return n
}

func (n *dnode) rpad() Row {
	pad := NullRow(n.r.row.Schema)
	pad[len(pad)-1] = Int(1)
	return pad
}

func (n *dnode) groupJoinAggs() aggfn.Vector {
	rs := n.r.row.Schema
	return aggfn.Vector{{Out: "gjn", Kind: aggfn.CountStar}, {Out: "gjs", Kind: aggfn.Sum, Arg: rs.Name(rs.Len() - 1)},
		{Out: "gjm", Kind: aggfn.Min, Arg: rs.Name(0)}}
}

// batch evaluates the plan on e's batch operators.
func (n *dnode) batch(t *testing.T, e *Exec) *ColTable {
	if n.kind == "scan" {
		return n.row.Columnar()
	}
	l, r := n.l.batch(t, e), n.r.batch(t, e)
	lk, rk := l.Schema.Slots([]string{n.lk}), r.Schema.Slots([]string{n.rk})
	switch n.kind {
	case "join":
		return e.BatchHashJoin(l, r, lk, rk, l.Schema.Concat(r.Schema))
	case "semi":
		return e.BatchHashSemiJoin(l, r, lk, rk)
	case "anti":
		return e.BatchHashAntiJoin(l, r, lk, rk)
	case "leftouter":
		return e.BatchHashLeftOuter(l, r, lk, rk, n.rpad(), l.Schema.Concat(r.Schema))
	case "fullouter":
		return e.BatchHashFullOuter(l, r, lk, rk, NullRow(l.Schema), n.rpad(), l.Schema.Concat(r.Schema))
	case "groupjoin":
		f := n.groupJoinAggs()
		return e.BatchHashGroupJoin(l, r, lk, rk, BindVector(f, r.Schema), gjSchema(l, f))
	}
	kind := MergeInner
	if n.kind == "mergeouter" {
		kind = MergeLeftOuter
	}
	out, err := e.BatchMergeJoin(kind, l, r, lk, rk, true, true, n.rpad(), l.Schema.Concat(r.Schema))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// renamed is t's rows [lo, hi) under attribute names with the first letter
// replaced.
func renamed(t *Table, prefix string, lo, hi int) *Table {
	names := make([]string, t.Schema.Len())
	for i, n := range t.Schema.Names() {
		names[i] = prefix + n[1:]
	}
	return &Table{Schema: NewSchema(names), Rows: t.Rows[lo:hi]}
}

// present returns those of attrs that s has.
func present(s *Schema, attrs ...string) []string {
	var out []string
	for _, a := range attrs {
		if s.Has(a) {
			out = append(out, a)
		}
	}
	return out
}

// deferredExecs: the sequential arm, and workers 1/2/4 with morsels of 16
// rows — a dozen or more per operator on these inputs.
func deferredExecs() map[string]*Exec {
	m := map[string]*Exec{"nil": nil}
	for _, w := range []int{1, 2, 4} {
		m[fmt.Sprintf("w%d-m16", w)] = NewExec(w).WithMorselSize(16).WithBatchSize(7)
	}
	return m
}

// TestDeferredJoinsMatchRow: join chains of depth 1–4 whose top join is each
// of the eight pair-emitting or selecting operators — with the view as its
// probe side and, flipped, as its build side — over an inner join, a padded
// left outerjoin and a semijoin of a view below, on plain inputs and under a
// selection, on dense (stride 1) and hashed (stride 1000) keys. Join keys
// are int, float and string columns of the first relation, so every level
// reads a column one composition deeper. Each chain is read back four ways
// — as rows, by a Γ over columns of every side, by a Π (the ids are a key),
// and by the weight product with a Γ over it — by every executor of
// deferredExecs, and must equal the row runtime bit for bit and the
// reference's nested-loop operators as a bag.
func TestDeferredJoinsMatchRow(t *testing.T) {
	for _, stride := range []int64{1, 1000} {
		l, r := keyTables(stride, false)
		// Five relations with keys mostly unique in each, so chains stay
		// about as long as their inputs: every column kind, NULL keys and
		// NULL, NaN, mixed and string payloads (keyTables).
		a, b := scanNode(renamed(l, "l", 0, 200)), scanNode(renamed(r, "r", 0, 160))
		c, d := scanNode(renamed(l, "c", 100, 300)), scanNode(renamed(r, "d", 20, 180))
		f := scanNode(renamed(l, "f", 40, 180))
		if got := newKeyScan(b.row.Columnar(), []int{1}, true).dense; got != (stride == 1) {
			t.Fatalf("stride %d: build side dense = %v", stride, got)
		}
		for _, sel := range []string{"", "semi", "anti"} {
			base := a
			if sel != "" {
				base = joinNode(sel, a, f, "lks", "fks") // the chain's first relation under a selection
			}
			// Level i joins the chain so far with rels[i] on keys[i]; below
			// the top the kinds are fixed.
			rels := []*dnode{b, c, d, f}
			keys := [][2]string{{"lki", "rki"}, {"lki", "cki"}, {"lkf", "dki"}, {"lks", "fks"}}
			lower := []string{"join", "leftouter", "semi"}
			chain := base
			for depth := 1; depth <= 4; depth++ {
				lk, rk := keys[depth-1][0], keys[depth-1][1]
				if depth == 4 && sel != "" {
					break // f is spent on the selection
				}
				for _, kind := range deferredKinds {
					label := fmt.Sprintf("stride%d/sel=%s/depth%d/%s", stride, sel, depth, kind)
					checkDeferred(t, label, joinNode(kind, chain, rels[depth-1], lk, rk))
					if kind != "semi" && kind != "anti" { // the view as build side
						checkDeferred(t, label+"-flipped", joinNode(kind, rels[depth-1], chain, rk, lk))
					}
				}
				if depth < 4 {
					chain = joinNode(lower[depth-1], chain, rels[depth-1], lk, rk)
				}
			}
		}
	}
}

// checkDeferred reads plan n back the four ways on every executor.
func checkDeferred(t *testing.T, label string, n *dnode) {
	t.Helper()
	s := n.row.Schema
	if n.row.Card() == 0 {
		t.Fatalf("%s: empty fixture", label)
	}
	// Γ on a string column of the first relation over columns of every
	// side that is there: an order-sensitive float sum, a count of a
	// NULL-bearing and of a mixed column, string extremes.
	gBy := present(s, "lks")
	gf := aggfn.Vector{{Out: "n", Kind: aggfn.CountStar}, {Out: "sf", Kind: aggfn.Sum, Arg: "lf"},
		{Out: "cr", Kind: aggfn.Count, Arg: "rv"}, {Out: "mc", Kind: aggfn.Min, Arg: "cks"},
		{Out: "xd", Kind: aggfn.Count, Arg: "dkx"}, {Out: "xs", Kind: aggfn.Max, Arg: "dks"}, {Out: "sc", Kind: aggfn.Sum, Arg: "cf"}, {Out: "sg", Kind: aggfn.Sum, Arg: "gjs"}}
	// Π: the ids are a key of every chain.
	pBy := present(s, "lid", "rid", "cid", "did", "fid")
	pf := aggfn.Vector{{Out: "sf", Kind: aggfn.Sum, Arg: "lf"}, {Out: "cr", Kind: aggfn.Count, Arg: "rv"}, {Out: "ms", Kind: aggfn.Min, Arg: "lks"}}
	// The weight product: int factors with NULLs under the pads, and — at
	// odd widths — a float one, which takes the generic kernel.
	factors := present(s, "lid", "rv", "dv")
	if s.Len()%2 == 1 {
		factors = append(factors, present(s, "lf")...)
	}
	fslots := s.Slots(factors)
	product := func(row Row) Value {
		v := Int(1)
		for _, sl := range fslots {
			v = Mul(v, row[sl])
		}
		return v
	}
	wf := aggfn.Vector{{Out: "sw", Kind: aggfn.Sum, Arg: "w"}, {Out: "sf", Kind: aggfn.Sum, Arg: "lf"}}

	wantProd := ExtendTable(n.row, "w", product)
	refProd := Map(n.ref, map[string]func(Tuple) Value{"w": func(tu Tuple) Value {
		v := Int(1)
		for _, a := range factors {
			v = Mul(v, tu.Get(a))
		}
		return v
	}})
	want := map[string]*Table{
		"rows": n.row, "group": HashGroup(n.row, gBy, gf), "project": HashGroup(n.row, pBy, pf),
		"product": wantProd, "product-group": HashGroup(wantProd, gBy, wf),
	}
	ref := map[string]*Rel{
		"rows": n.ref, "group": Group(n.ref, gBy, gf), "project": Group(n.ref, pBy, pf),
		"product": refProd, "product-group": Group(refProd, gBy, wf),
	}
	if want["project"].Card() != n.row.Card() {
		t.Fatalf("%s: the ids %v are no key", label, pBy)
	}
	// The batch outputs must be the row runtime's bit for bit, so the bag
	// comparison with the reference needs making once, not per executor.
	for read, rel := range ref {
		if !EqualBags(rel, want[read].Rel(), nil) {
			t.Fatalf("%s/%s: the row runtime differs from the reference operators as a bag", label, read)
		}
	}
	for name, e := range deferredExecs() {
		prod := e.BatchExtendProduct(n.batch(t, e), wantProd.Schema, fslots)
		got := map[string]*ColTable{
			"rows": n.batch(t, e), "group": e.BatchHashGroup(n.batch(t, e), BindAggregation(s, gBy, gf)), "project": e.BatchProject(n.batch(t, e), BindAggregation(s, pBy, pf)),
			"product-group": e.BatchHashGroup(prod, BindAggregation(prod.Schema, gBy, wf)), "product": prod, // Γ first: it gathers into prod
		}
		for _, read := range []string{"rows", "group", "project", "product-group", "product"} {
			identicalRows(t, label+"/"+read+"/"+name, want[read], got[read].Table())
		}
		sorted, err := e.BatchSortGroup(n.batch(t, e), BindAggregation(s, gBy, gf), true, nil)
		if err != nil {
			t.Fatal(err)
		}
		identicalRows(t, label+"/sortgroup/"+name, want["group"], sorted.Table())
	}
}

// TestDeferredViewGathersOnRead pins the mechanism itself: a join copies no
// column, reading gathers exactly the columns read — once — and a chain
// composes index vectors instead of gathering.
func TestDeferredViewGathersOnRead(t *testing.T) {
	l, r := keyTables(1, false)
	lc, rc := ColTableOf(l), ColTableOf(r)
	hs := &HashStats{}
	e := NewExec(2).WithMorselSize(64).WithHashStats(hs)
	gathered := func() int64 { return hs.Snapshot().GatherCols }

	v := e.BatchHashJoin(lc, rc, []int{1}, []int{1}, lc.Schema.Concat(rc.Schema))
	if gathered() != 0 {
		t.Fatalf("an inner join gathered %d columns", gathered())
	}
	for c := range v.Cols {
		if v.ix(c) == nil {
			t.Fatalf("column %d of the join output is not deferred", c)
		}
	}
	if &v.Cols[0].Ints[0] != &lc.Cols[0].Ints[0] || &v.Cols[6].Ints[0] != &rc.Cols[0].Ints[0] {
		t.Fatal("the view does not share its inputs' vectors")
	}
	// A second join on a column of the view reads that one column and
	// composes the rest.
	d := ColTableOf(renamed(r, "d", 0, len(r.Rows)))
	v2 := e.BatchHashJoin(v, d, []int{0}, []int{4}, v.Schema.Concat(d.Schema))
	if gathered() != 1 || v.ix(0) != nil || v.ix(1) == nil {
		t.Fatalf("joining on one column of a view gathered %d columns", gathered())
	}
	if &v2.Cols[1].Ints[0] != &lc.Cols[1].Ints[0] {
		t.Fatal("a deferred column of the input was gathered by the join above it")
	}
	// Γ reads its key and its argument; reading them again gathers nothing.
	f := aggfn.Vector{{Out: "s", Kind: aggfn.Sum, Arg: "lf"}}
	e.BatchHashGroup(v2, BindAggregation(v2.Schema, []string{"lks"}, f))
	if gathered() != 3 {
		t.Fatalf("Γ over two columns of a view brought the count to %d, want 3", gathered())
	}
	e.BatchHashGroup(v2, BindAggregation(v2.Schema, []string{"lks"}, f))
	if gathered() != 3 {
		t.Fatalf("reading gathered columns again gathered %d more", gathered()-3)
	}
	// The result boundary reads every column still deferred through its
	// index vector: all but the two gathered above.
	e.RowTable(v2)
	if want := int64(3 + v2.Schema.Len() - 2); gathered() != want {
		t.Fatalf("the result boundary brought the count to %d, want %d", gathered(), want)
	}
}
