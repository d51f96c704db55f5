package engine

import (
	"eagg/internal/aggfn"
	"eagg/internal/algebra"
	"eagg/internal/plan"
	"eagg/internal/query"
)

// hashProject is the batch runtime with every projection evaluated as the
// full hash aggregation it replaces.
type hashProject struct{ batchRuntime }

func (rt hashProject) project(t rtTable, groupBy []string, f aggfn.Vector) rtTable {
	return rt.hashGroup(t, groupBy, f)
}

// ExecTablesHashProject is ExecTablesOpts on the batch runtime with
// plan.NodeProject run through BatchHashGroup — the reference form of
// the hash-free projection's differential test, for the external test
// package (which can import tpch).
func ExecTablesHashProject(q *query.Query, p *plan.Plan, data TableData, opts ExecOptions) (*algebra.Table, error) {
	ex := opts.exec()
	defer ex.Release()
	rt := hashProject{batchRuntime{ex: ex}}
	e := &executor{binder: binder{q: q}, data: data, rt: rt}
	c, err := e.compile(p)
	if err != nil {
		return nil, err
	}
	return rt.result(c.tab), nil
}

// FloatAggArgs exposes floatAggArgs to the external test package.
var FloatAggArgs = floatAggArgs

// RowOracle names the sequential row runtime: the reference side of the
// differential comparisons in this package's tests (internal and
// external). It ignores Workers, MorselSize and Pool.
var RowOracle = ExecOptions{Runtime: RuntimeRow}
