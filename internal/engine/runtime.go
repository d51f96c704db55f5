package engine

import (
	"fmt"

	"eagg/internal/aggfn"
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

// rtTable is a compiled subplan's materialized data in whichever
// representation the runtime works on. Both *algebra.Table and
// *algebra.ColTable implement it; the compiler only ever needs the
// cardinality and the schema — everything else goes through runtimeOps.
type rtTable interface {
	Card() int
	TabSchema() *algebra.Schema
}

// runtimeOps is the operator surface the plan compiler executes against.
// scan converts a stored table into the runtime's representation and
// result converts back; every operator maps a plan node onto the
// corresponding algebra call.
type runtimeOps interface {
	scan(t *algebra.Table) rtTable
	result(t rtTable) *algebra.Table
	hashJoin(l, r rtTable, lk, rk []int) rtTable
	hashSemiJoin(l, r rtTable, lk, rk []int) rtTable
	hashAntiJoin(l, r rtTable, lk, rk []int) rtTable
	hashLeftOuter(l, r rtTable, lk, rk []int, rpad algebra.Row) rtTable
	hashFullOuter(l, r rtTable, lk, rk []int, lpad, rpad algebra.Row) rtTable
	hashGroupJoin(l, r rtTable, lk, rk []int, f aggfn.Vector) rtTable
	hashGroup(t rtTable, groupBy []string, f aggfn.Vector) rtTable
	// project is hashGroup for an input whose every group is known to be
	// a single row (plan.NodeProject).
	project(t rtTable, groupBy []string, f aggfn.Vector) rtTable
	sortGroup(t rtTable, groupBy []string, f aggfn.Vector, sortInput bool, verify []int) (rtTable, error)
	mergeJoin(op query.OpKind, l, r rtTable, lk, rk []int, sortL, sortR bool, rpad algebra.Row) (rtTable, error)
	product(t rtTable, name string, slots []int) rtTable
}

// mergeKinds maps the operators with a sort-based form onto it.
var mergeKinds = map[query.OpKind]algebra.MergeKind{
	query.KindJoin:      algebra.MergeInner,
	query.KindSemiJoin:  algebra.MergeSemi,
	query.KindAntiJoin:  algebra.MergeAnti,
	query.KindLeftOuter: algebra.MergeLeftOuter,
}

// rowRuntime runs every operator on the sequential row-at-a-time
// operators. ex is a one-worker Exec (ExecOptions.exec): the hash layer
// does not use it, the sort layer's Columnar() → batch → Table() wrappers
// run sequentially under it.
type rowRuntime struct{ ex *algebra.Exec }

func (rt rowRuntime) tab(t rtTable) *algebra.Table { return t.(*algebra.Table) }

func (rt rowRuntime) scan(t *algebra.Table) rtTable { return t }
func (rt rowRuntime) result(t rtTable) *algebra.Table {
	return rt.tab(t)
}
func (rt rowRuntime) hashJoin(l, r rtTable, lk, rk []int) rtTable {
	return algebra.HashJoin(rt.tab(l), rt.tab(r), lk, rk)
}
func (rt rowRuntime) hashSemiJoin(l, r rtTable, lk, rk []int) rtTable {
	return algebra.HashSemiJoin(rt.tab(l), rt.tab(r), lk, rk)
}
func (rt rowRuntime) hashAntiJoin(l, r rtTable, lk, rk []int) rtTable {
	return algebra.HashAntiJoin(rt.tab(l), rt.tab(r), lk, rk)
}
func (rt rowRuntime) hashLeftOuter(l, r rtTable, lk, rk []int, rpad algebra.Row) rtTable {
	return algebra.HashLeftOuter(rt.tab(l), rt.tab(r), lk, rk, rpad)
}
func (rt rowRuntime) hashFullOuter(l, r rtTable, lk, rk []int, lpad, rpad algebra.Row) rtTable {
	return algebra.HashFullOuter(rt.tab(l), rt.tab(r), lk, rk, lpad, rpad)
}
func (rt rowRuntime) hashGroupJoin(l, r rtTable, lk, rk []int, f aggfn.Vector) rtTable {
	return algebra.HashGroupJoin(rt.tab(l), rt.tab(r), lk, rk, f)
}
func (rt rowRuntime) hashGroup(t rtTable, groupBy []string, f aggfn.Vector) rtTable {
	return algebra.HashGroup(rt.tab(t), groupBy, f)
}
func (rt rowRuntime) project(t rtTable, groupBy []string, f aggfn.Vector) rtTable {
	return rt.hashGroup(t, groupBy, f)
}
func (rt rowRuntime) sortGroup(t rtTable, groupBy []string, f aggfn.Vector, sortInput bool, verify []int) (rtTable, error) {
	return rt.ex.SortGroup(rt.tab(t), groupBy, f, sortInput, verify)
}
func (rt rowRuntime) mergeJoin(op query.OpKind, l, r rtTable, lk, rk []int, sortL, sortR bool, rpad algebra.Row) (rtTable, error) {
	kind, ok := mergeKinds[op]
	if !ok {
		return nil, fmt.Errorf("engine: %v has no sort-based form", op)
	}
	return rt.ex.MergeTables(kind, rt.tab(l), rt.tab(r), lk, rk, sortL, sortR, rpad)
}
func (rt rowRuntime) product(t rtTable, name string, slots []int) rtTable {
	return algebra.ExtendTable(rt.tab(t), name, func(row algebra.Row) algebra.Value {
		v := algebra.Int(1)
		for _, s := range slots {
			v = algebra.Mul(v, row[s])
		}
		return v
	})
}

// batchRuntime runs every operator — both physical layers — batch at a
// time on columnar vectors: a subplan's data is a *algebra.ColTable from
// the scan to the plan root, and result, the one conversion to rows, is
// called there only. Output sequences are bit-identical to the row
// runtime's for every batch size.
type batchRuntime struct{ ex *algebra.Exec }

func (rt batchRuntime) col(t rtTable) *algebra.ColTable { return t.(*algebra.ColTable) }

func (rt batchRuntime) scan(t *algebra.Table) rtTable   { return t.Columnar() }
func (rt batchRuntime) result(t rtTable) *algebra.Table { return rt.ex.RowTable(rt.col(t)) }
func (rt batchRuntime) hashJoin(l, r rtTable, lk, rk []int) rtTable {
	return rt.ex.BatchHashJoin(rt.col(l), rt.col(r), lk, rk)
}
func (rt batchRuntime) hashSemiJoin(l, r rtTable, lk, rk []int) rtTable {
	return rt.ex.BatchHashSemiJoin(rt.col(l), rt.col(r), lk, rk)
}
func (rt batchRuntime) hashAntiJoin(l, r rtTable, lk, rk []int) rtTable {
	return rt.ex.BatchHashAntiJoin(rt.col(l), rt.col(r), lk, rk)
}
func (rt batchRuntime) hashLeftOuter(l, r rtTable, lk, rk []int, rpad algebra.Row) rtTable {
	return rt.ex.BatchHashLeftOuter(rt.col(l), rt.col(r), lk, rk, rpad)
}
func (rt batchRuntime) hashFullOuter(l, r rtTable, lk, rk []int, lpad, rpad algebra.Row) rtTable {
	return rt.ex.BatchHashFullOuter(rt.col(l), rt.col(r), lk, rk, lpad, rpad)
}
func (rt batchRuntime) hashGroupJoin(l, r rtTable, lk, rk []int, f aggfn.Vector) rtTable {
	return rt.ex.BatchHashGroupJoin(rt.col(l), rt.col(r), lk, rk, f)
}
func (rt batchRuntime) hashGroup(t rtTable, groupBy []string, f aggfn.Vector) rtTable {
	return rt.ex.BatchHashGroup(rt.col(t), groupBy, f)
}
func (rt batchRuntime) project(t rtTable, groupBy []string, f aggfn.Vector) rtTable {
	return rt.ex.BatchProject(rt.col(t), groupBy, f)
}
func (rt batchRuntime) sortGroup(t rtTable, groupBy []string, f aggfn.Vector, sortInput bool, verify []int) (rtTable, error) {
	out, err := rt.ex.BatchSortGroup(rt.col(t), groupBy, f, sortInput, verify)
	if err != nil {
		return nil, err
	}
	return out, nil
}
func (rt batchRuntime) mergeJoin(op query.OpKind, l, r rtTable, lk, rk []int, sortL, sortR bool, rpad algebra.Row) (rtTable, error) {
	kind, ok := mergeKinds[op]
	if !ok {
		return nil, fmt.Errorf("engine: %v has no sort-based form", op)
	}
	out, err := rt.ex.BatchMergeJoin(kind, rt.col(l), rt.col(r), lk, rk, sortL, sortR, rpad)
	if err != nil {
		return nil, err
	}
	return out, nil
}
func (rt batchRuntime) product(t rtTable, name string, slots []int) rtTable {
	return rt.ex.BatchExtendProduct(rt.col(t), name, slots)
}
