package engine

import (
	"eagg/internal/algebra"
	"eagg/internal/plan"
	"eagg/internal/query"
)

// hashProject is the batch runtime with every projection evaluated as the
// full hash aggregation it replaces.
type hashProject struct{ batchRuntime }

func (rt hashProject) group(st *step, t rtTable) (rtTable, error) {
	if st.kind == stepProject {
		return rt.ex.BatchHashGroup(rt.col(t), st.group.agg), nil
	}
	return rt.batchRuntime.group(st, t)
}

// ExecTablesHashProject is ExecTablesOpts on the batch runtime with
// plan.NodeProject run through BatchHashGroup — the reference form of
// the hash-free projection's differential test, for the external test
// package (which can import tpch).
func ExecTablesHashProject(q *query.Query, p *plan.Plan, data TableData, opts ExecOptions) (*algebra.Table, error) {
	prog, err := Prepare(q, p, data.Schemas())
	if err != nil {
		return nil, err
	}
	hs := &algebra.HashStats{}
	ex := opts.exec().WithHashStats(hs)
	defer ex.Release()
	tab, _, err := prog.run(data, hashProject{batchRuntime{ex: ex}}, ex, hs, nil)
	return tab, err
}

// FloatAggArgs exposes floatAggArgs to the external test package.
var FloatAggArgs = floatAggArgs

// RowOracle names the sequential row runtime: the reference side of the
// differential comparisons in this package's tests (internal and
// external). It ignores Workers, MorselSize and Pool.
var RowOracle = ExecOptions{Runtime: RuntimeRow}
