package engine

import (
	"fmt"

	"eagg/internal/algebra"
	"eagg/internal/query"
)

// Runtime selects the physical execution runtime. The batch runtime —
// batch-at-a-time over columnar vectors (internal/algebra's ColTable
// operators), morsel-parallel under ExecOptions.Workers — is what
// executes plans; the row runtime — row-at-a-time over []Value rows on
// Go maps, always sequential — is the differential oracle the batch
// runtime is tested against, reachable only by naming it. Both produce
// bit-identical output sequences.
type Runtime int

const (
	// RuntimeBatch, the zero value and the default, executes operators
	// batch at a time on columnar vectors, converting to rows only at the
	// result boundary.
	RuntimeBatch Runtime = iota
	// RuntimeRow executes operators row at a time on *algebra.Table, on
	// one goroutine: the sequential reference. It ignores
	// ExecOptions.Workers, MorselSize and Pool.
	RuntimeRow
)

func (r Runtime) String() string {
	switch r {
	case RuntimeBatch:
		return "batch"
	case RuntimeRow:
		return "row"
	}
	return fmt.Sprintf("Runtime(%d)", int(r))
}

// ParseRuntime parses a runtime name. The empty string selects the batch
// runtime (the default).
func ParseRuntime(s string) (Runtime, error) {
	switch s {
	case "", "batch":
		return RuntimeBatch, nil
	case "row":
		return RuntimeRow, nil
	}
	return 0, fmt.Errorf("engine: unknown runtime %q (want batch or row)", s)
}

// rtTable is a step's output in whichever representation the runtime
// works on. Both *algebra.Table and *algebra.ColTable implement it; a
// Program only ever reads the cardinality — everything else goes through
// runtimeOps.
type rtTable interface {
	Card() int
}

// runtimeOps is the operator surface a Program runs on. scan converts a
// stored table into the runtime's representation and result converts
// back; join, group and product run a step's operator from what Prepare
// resolved.
type runtimeOps interface {
	scan(t *algebra.Table) rtTable
	result(t rtTable) *algebra.Table
	join(st *step, l, r rtTable) (rtTable, error)
	group(st *step, t rtTable) (rtTable, error)
	product(pr *product, t rtTable) rtTable
}

// mergeKinds maps the operators with a sort-based form onto it.
var mergeKinds = map[query.OpKind]algebra.MergeKind{
	query.KindJoin:      algebra.MergeInner,
	query.KindSemiJoin:  algebra.MergeSemi,
	query.KindAntiJoin:  algebra.MergeAnti,
	query.KindLeftOuter: algebra.MergeLeftOuter,
}

// rowRuntime runs every operator on the sequential row-at-a-time
// operators, by attribute name where they take names. ex is a one-worker
// Exec (ExecOptions.exec): the hash layer does not use it, the sort
// layer's Columnar() → batch → Table() wrappers run sequentially under it.
type rowRuntime struct{ ex *algebra.Exec }

func (rt rowRuntime) tab(t rtTable) *algebra.Table { return t.(*algebra.Table) }

func (rt rowRuntime) scan(t *algebra.Table) rtTable { return t }
func (rt rowRuntime) result(t rtTable) *algebra.Table {
	return rt.tab(t)
}
func (rt rowRuntime) join(st *step, lt, rtt rtTable) (rtTable, error) {
	l, r, j := rt.tab(lt), rt.tab(rtt), st.join
	if st.kind == stepMergeJoin {
		out, err := rt.ex.MergeTables(j.merge, l, r, j.lk, j.rk, st.node.SortL, st.node.SortR, j.rpad)
		if err != nil {
			return nil, err
		}
		return out, nil
	}
	switch st.node.Op {
	case query.KindJoin:
		return algebra.HashJoin(l, r, j.lk, j.rk), nil
	case query.KindSemiJoin:
		return algebra.HashSemiJoin(l, r, j.lk, j.rk), nil
	case query.KindAntiJoin:
		return algebra.HashAntiJoin(l, r, j.lk, j.rk), nil
	case query.KindLeftOuter:
		return algebra.HashLeftOuter(l, r, j.lk, j.rk, j.rpad), nil
	case query.KindFullOuter:
		return algebra.HashFullOuter(l, r, j.lk, j.rk, j.lpad, j.rpad), nil
	}
	return algebra.HashGroupJoin(l, r, j.lk, j.rk, j.gjAggs), nil
}
func (rt rowRuntime) group(st *step, t rtTable) (rtTable, error) {
	g := st.group
	if st.kind == stepSortGroup {
		out, err := rt.ex.SortGroup(rt.tab(t), g.names, g.f, st.node.SortL, g.verify)
		if err != nil {
			return nil, err
		}
		return out, nil
	}
	return algebra.HashGroup(rt.tab(t), g.names, g.f), nil
}
func (rt rowRuntime) product(pr *product, t rtTable) rtTable {
	return algebra.ExtendTable(rt.tab(t), pr.out.Name(pr.out.Len()-1), func(row algebra.Row) algebra.Value {
		v := algebra.Int(1)
		for _, s := range pr.slots {
			v = algebra.Mul(v, row[s])
		}
		return v
	})
}

// batchRuntime runs every operator — both physical layers — batch at a
// time on columnar vectors: a step's data is a *algebra.ColTable from the
// scan to the plan root, and result, the one conversion to rows, is called
// there only. Output sequences are bit-identical to the row runtime's for
// every batch size.
type batchRuntime struct{ ex *algebra.Exec }

func (rt batchRuntime) col(t rtTable) *algebra.ColTable { return t.(*algebra.ColTable) }

func (rt batchRuntime) scan(t *algebra.Table) rtTable   { return t.Columnar() }
func (rt batchRuntime) result(t rtTable) *algebra.Table { return rt.ex.RowTable(rt.col(t)) }
func (rt batchRuntime) join(st *step, lt, rtt rtTable) (rtTable, error) {
	l, r, j := rt.col(lt), rt.col(rtt), st.join
	if st.kind == stepMergeJoin {
		out, err := rt.ex.BatchMergeJoin(j.merge, l, r, j.lk, j.rk, st.node.SortL, st.node.SortR, j.rpad, st.out)
		if err != nil {
			return nil, err
		}
		return out, nil
	}
	switch st.node.Op {
	case query.KindJoin:
		return rt.ex.BatchHashJoin(l, r, j.lk, j.rk, st.out), nil
	case query.KindSemiJoin:
		return rt.ex.BatchHashSemiJoin(l, r, j.lk, j.rk), nil
	case query.KindAntiJoin:
		return rt.ex.BatchHashAntiJoin(l, r, j.lk, j.rk), nil
	case query.KindLeftOuter:
		return rt.ex.BatchHashLeftOuter(l, r, j.lk, j.rk, j.rpad, st.out), nil
	case query.KindFullOuter:
		return rt.ex.BatchHashFullOuter(l, r, j.lk, j.rk, j.lpad, j.rpad, st.out), nil
	}
	return rt.ex.BatchHashGroupJoin(l, r, j.lk, j.rk, j.gjBound, st.out), nil
}
func (rt batchRuntime) group(st *step, t rtTable) (rtTable, error) {
	g := st.group
	switch st.kind {
	case stepProject:
		return rt.ex.BatchProject(rt.col(t), g.agg), nil
	case stepSortGroup:
		out, err := rt.ex.BatchSortGroup(rt.col(t), g.agg, st.node.SortL, g.verify)
		if err != nil {
			return nil, err
		}
		return out, nil
	}
	return rt.ex.BatchHashGroup(rt.col(t), g.agg), nil
}
func (rt batchRuntime) product(pr *product, t rtTable) rtTable {
	return rt.ex.BatchExtendProduct(rt.col(t), pr.out, pr.slots)
}
