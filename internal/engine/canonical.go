package engine

import (
	"fmt"
	"math/rand"

	"eagg/internal/algebra"
	"eagg/internal/query"
)

// Canonical evaluates the query exactly as written: the initial operator
// tree followed by the top grouping. It is the reference result against
// which optimized plans are checked, and it runs on the sequential row
// operators — code the batch runtime shares nothing with; the frozen
// nested-loop evaluator (CanonicalRef) provides an independent second
// opinion for the differential tests.
func Canonical(q *query.Query, data Data) (*algebra.Rel, error) {
	tab, err := CanonicalTables(q, data.Tables())
	if err != nil {
		return nil, err
	}
	return tab.Rel(), nil
}

// CanonicalTables evaluates the query as written on slot-based tables.
func CanonicalTables(q *query.Query, data TableData) (*algebra.Table, error) {
	if q.Root == nil {
		return nil, fmt.Errorf("engine: query has no operator tree")
	}
	tab, err := evalTreeTables(q, q.Root, data)
	if err != nil {
		return nil, err
	}
	if !q.HasGrouping {
		return tab, nil
	}
	var g []string
	q.GroupBy.ForEach(func(a int) { g = append(g, q.AttrNames[a]) })
	return algebra.HashGroup(tab, g, q.Aggregates), nil
}

// CanonicalTablesOpts is CanonicalTables: the canonical evaluator is
// sequential by definition and reads no option. The name and signature
// are kept because the repository benchmark (bench/api.go) pins them.
func CanonicalTablesOpts(q *query.Query, data TableData, _ ExecOptions) (*algebra.Table, error) {
	return CanonicalTables(q, data)
}

func evalTreeTables(q *query.Query, n *query.OpNode, data TableData) (*algebra.Table, error) {
	if n.Kind == query.KindScan {
		tab, ok := data[n.Rel]
		if !ok {
			return nil, fmt.Errorf("engine: no data for relation %d", n.Rel)
		}
		return tab, nil
	}
	l, err := evalTreeTables(q, n.Left, data)
	if err != nil {
		return nil, err
	}
	r, err := evalTreeTables(q, n.Right, data)
	if err != nil {
		return nil, err
	}
	lk, rk := joinKeys(q, []*query.Predicate{n.Pred}, l.Schema, r.Schema)
	switch n.Kind {
	case query.KindJoin:
		return algebra.HashJoin(l, r, lk, rk), nil
	case query.KindSemiJoin:
		return algebra.HashSemiJoin(l, r, lk, rk), nil
	case query.KindAntiJoin:
		return algebra.HashAntiJoin(l, r, lk, rk), nil
	case query.KindLeftOuter:
		return algebra.HashLeftOuter(l, r, lk, rk, algebra.NullRow(r.Schema)), nil
	case query.KindFullOuter:
		return algebra.HashFullOuter(l, r, lk, rk, algebra.NullRow(l.Schema), algebra.NullRow(r.Schema)), nil
	case query.KindGroupJoin:
		return algebra.HashGroupJoin(l, r, lk, rk, n.GroupJoinAggs), nil
	}
	return nil, fmt.Errorf("engine: unsupported node kind %v", n.Kind)
}

// OutputAttrs returns the attribute names of the query result: G ∪ A(F)
// for grouping queries, or every visible attribute otherwise.
func OutputAttrs(q *query.Query) []string {
	if q.HasGrouping {
		var out []string
		q.GroupBy.ForEach(func(a int) { out = append(out, q.AttrNames[a]) })
		return append(out, q.Aggregates.Outs()...)
	}
	var out []string
	var visible func(n *query.OpNode)
	visible = func(n *query.OpNode) {
		if n.Kind == query.KindScan {
			q.Relations[n.Rel].Attrs.ForEach(func(a int) {
				out = append(out, q.AttrNames[a])
			})
			return
		}
		visible(n.Left)
		if !n.Kind.LeftOnly() {
			visible(n.Right)
		}
	}
	visible(q.Root)
	return out
}

// RandomData generates relation contents that respect the catalog's
// declared keys (unique values in key attributes) while keeping join
// attribute domains tiny so joins actually match. Aggregate inputs include
// NULLs to exercise the NULL semantics of the equivalences.
func RandomData(rng *rand.Rand, q *query.Query, maxRows int) Data {
	data := Data{}
	for ri := range q.Relations {
		rel := &q.Relations[ri]
		n := 1 + rng.Intn(maxRows)
		var keyAttrs []int
		for _, k := range rel.Keys {
			k.ForEach(func(a int) { keyAttrs = append(keyAttrs, a) })
		}
		isKey := map[int]bool{}
		for _, a := range keyAttrs {
			isKey[a] = true
		}
		r := &algebra.Rel{}
		rel.Attrs.ForEach(func(a int) { r.Attrs = append(r.Attrs, q.AttrNames[a]) })
		for row := 0; row < n; row++ {
			t := algebra.Tuple{}
			rel.Attrs.ForEach(func(a int) {
				name := q.AttrNames[a]
				switch {
				case isKey[a]:
					t[name] = algebra.Int(int64(row)) // unique
				case rng.Intn(7) == 0:
					t[name] = algebra.Null
				default:
					t[name] = algebra.Int(int64(rng.Intn(3)))
				}
			})
			r.Tuples = append(r.Tuples, t)
		}
		data[ri] = r
	}
	return data
}
