package engine

import (
	"fmt"
	"slices"

	"eagg/internal/aggfn"
	"eagg/internal/algebra"
	"eagg/internal/cost"
	"eagg/internal/obs"
	"eagg/internal/plan"
	"eagg/internal/query"
)

// Prepared execution. Compiling a plan — schemas, key and aggregate slots,
// the binder's partial and weight names, pad rows, cardinality keys, span
// names — depends on the plan and the base tables' schemas, never on their
// rows, so Prepare does it once and Run executes the result as often as
// asked (Neumann, VLDB'11: compile a query once, run the compiled form).
// What depends on the data stays in Run: dense vs hash per operator, the
// parallel arms, morsel sizes and buffer recycling.

// Schemas maps relation ids to the schemas of their tables: all Prepare
// reads of the data.
type Schemas map[int]*algebra.Schema

// Schemas returns the tables' schemas.
func (d TableData) Schemas() Schemas {
	out := make(Schemas, len(d))
	for id, t := range d {
		out[id] = t.Schema
	}
	return out
}

// Program is an optimized plan compiled against its base tables' schemas.
// It is immutable, so any number of goroutines may Run it at once, on the
// same data or on different data under the same schemas.
type Program struct {
	q     *query.Query
	cost  float64 // the plan's C_out estimate
	steps []step  // one per plan node, children first, in execution order; the root last
	ops   int     // steps with a cardinality key: ExecStats.Ops's length
}

// stepKind is a step's operator on the physical layer the plan selected.
type stepKind uint8

const (
	stepScan stepKind = iota
	stepHashJoin
	stepMergeJoin
	stepHashGroup
	stepSortGroup
	stepProject // a final grouping whose every group is a single row
)

// step is one plan node with everything its operator reads resolved.
type step struct {
	kind        stepKind
	node        *plan.Plan      // the plan node: relation, operator, sort flags, estimate
	span        string          // the span name (spanName)
	left, right int             // the child steps; -1 for none
	out         *algebra.Schema // a scan's: the schema its table must have
	join        *joinOp         // stepHashJoin, stepMergeJoin
	group       *groupOp        // stepHashGroup, stepSortGroup, stepProject
	keyed       bool            // a join or grouping: its output is recorded under key
	key         cost.CardKey
}

// joinOp is a join step's operator. The row runtime reads the groupjoin's
// vector, the batch runtime its binding to the right input.
type joinOp struct {
	merge      algebra.MergeKind // stepMergeJoin: the sort-based form of the operator
	lk, rk     []int
	lpad, rpad algebra.Row
	gjAggs     aggfn.Vector
	gjBound    []algebra.BoundAgg
}

// groupOp is a grouping step's operator: weight products appended to the
// input first, then the aggregation by name (row runtime) and resolved
// (batch runtime).
type groupOp struct {
	prods  []product
	names  []string
	f      aggfn.Vector
	agg    *algebra.Aggregation
	verify []int // stepSortGroup streaming its input: the order prefix checked
}

// product is one weight-product extension of a grouping's input.
type product struct {
	slots []int           // the factors' slots
	out   *algebra.Schema // the input extended by the product's name
}

// SchemaError reports a base table whose schema differs from the one the
// Program was prepared for (the same attributes in another order, say).
// Run checks before executing anything and never reads slots it did not
// resolve.
type SchemaError struct{ Rel int }

func (e *SchemaError) Error() string {
	return fmt.Sprintf("engine: the table of relation %d does not have the schema the program was prepared for", e.Rel)
}

// compiler is Prepare's walk over the plan.
type compiler struct {
	binder
	schemas Schemas
	prog    *Program
}

// compiled is a prepared subplan: its step, output schema and aggregate
// bookkeeping.
type compiled struct {
	step    int
	schema  *algebra.Schema
	weights []weight
	aggs    []aggState // indexed like the query's aggregation vector
}

// Prepare compiles plan p of query q against the base tables' schemas
// (TableData.Schemas). It reads no rows.
func Prepare(q *query.Query, p *plan.Plan, schemas Schemas) (*Program, error) {
	c := &compiler{binder: binder{q: q}, schemas: schemas, prog: &Program{q: q, cost: p.Cost, steps: make([]step, 0, nodes(p))}}
	if _, err := c.compile(p); err != nil {
		return nil, err
	}
	return c.prog, nil
}

// nodes counts the plan's nodes.
func nodes(p *plan.Plan) int {
	if p == nil {
		return 0
	}
	return 1 + nodes(p.Left) + nodes(p.Right)
}

// compile prepares one plan node, children first: the order operators run
// in and the binder names in.
func (c *compiler) compile(p *plan.Plan) (*compiled, error) {
	st := step{node: p, span: spanName(c.q, p), left: -1, right: -1}
	var out *compiled
	var err error
	switch p.Kind {
	case plan.NodeScan:
		s, ok := c.schemas[p.Rel]
		if !ok {
			return nil, fmt.Errorf("engine: no data for relation %d", p.Rel)
		}
		st.kind = stepScan
		out = &compiled{schema: s, aggs: make([]aggState, len(c.q.Aggregates))}
	case plan.NodeOp:
		var l, r *compiled
		if l, err = c.compile(p.Left); err != nil {
			return nil, err
		}
		if r, err = c.compile(p.Right); err != nil {
			return nil, err
		}
		st.left, st.right, st.join = l.step, r.step, &joinOp{}
		out, err = c.join(&st, l, r)
	case plan.NodeGroup, plan.NodeProject:
		var child *compiled
		if child, err = c.compile(p.Left); err != nil {
			return nil, err
		}
		st.left, st.group = child.step, &groupOp{}
		switch {
		case p.Kind == plan.NodeProject:
			// The projection replaces the final grouping when every group is
			// a single tuple; evaluating the final vector per group yields
			// identical results (Eqv. 42). It is free under C_out, so it has
			// no key and its output is not recorded — matching the
			// estimator, which prices NodeProject at its child's cost.
			out, err = c.finalGroup(&st, child, c.q.GroupBy, nil)
		case p.Final:
			out, err = c.finalGroup(&st, child, p.GroupBy, p)
		default:
			out, err = c.group(&st, child, p)
		}
	default:
		return nil, fmt.Errorf("engine: unknown node kind %d", p.Kind)
	}
	if err != nil {
		return nil, err
	}
	st.out = out.schema
	if st.key, st.keyed = cost.KeyOf(p); st.keyed {
		c.prog.ops++
	}
	out.step = len(c.prog.steps)
	c.prog.steps = append(c.prog.steps, st)
	return out, nil
}

// join prepares a join node: its output's aggregate bookkeeping, schema,
// key slots and pad rows.
func (c *compiler) join(st *step, l, r *compiled) (*compiled, error) {
	p, j := st.node, st.join
	out := &compiled{aggs: make([]aggState, len(c.q.Aggregates))}
	dropRight := p.Op.LeftOnly()
	for i := range out.aggs {
		switch {
		case l.aggs[i].partial != nil:
			out.aggs[i] = l.aggs[i]
		case !dropRight && r.aggs[i].partial != nil:
			out.aggs[i] = r.aggs[i]
		}
	}
	out.weights = append(out.weights, l.weights...)
	if !dropRight {
		out.weights = append(out.weights, r.weights...)
	}
	switch p.Op {
	case query.KindJoin, query.KindLeftOuter, query.KindFullOuter:
		out.schema = l.schema.Concat(r.schema)
	case query.KindSemiJoin, query.KindAntiJoin:
		out.schema = l.schema
	case query.KindGroupJoin:
		if len(r.weights) != 0 {
			return nil, fmt.Errorf("engine: groupjoin over a pre-aggregated right side is not supported")
		}
		// Locate the groupjoin's own vector on the original tree node.
		gj := findGroupJoin(c.q.Root, p.Rels)
		if gj == nil {
			return nil, fmt.Errorf("engine: groupjoin node not found in the query tree")
		}
		j.gjAggs, j.gjBound = gj.GroupJoinAggs, algebra.BindVector(gj.GroupJoinAggs, r.schema)
		out.schema = algebra.NewSchema(append(slices.Clone(l.schema.Names()), gj.GroupJoinAggs.Outs()...))
	default:
		return nil, fmt.Errorf("engine: unsupported operator %v", p.Op)
	}

	if p.Phys == plan.PhysSortMerge {
		// The sort-based layer: merge joins over the plan's merge-key
		// order, sorting only the inputs the optimizer could not prove
		// ordered. Output sequences equal the hash operators', so the
		// choice of layer never shows in results — only in the sorts
		// performed.
		kind, ok := mergeKinds[p.Op]
		if !ok {
			return nil, fmt.Errorf("engine: %v has no sort-based form", p.Op)
		}
		st.kind, j.merge = stepMergeJoin, kind
		j.lk, j.rk = mergeKeySlots(c.q, p, l.schema, r.schema)
	} else {
		st.kind = stepHashJoin
		j.lk, j.rk = joinKeys(c.q, p.Preds, l.schema, r.schema)
	}
	switch p.Op {
	case query.KindLeftOuter:
		j.rpad = padRow(r)
	case query.KindFullOuter:
		j.lpad, j.rpad = padRow(l), padRow(r)
	}
	return out, nil
}

// Run executes the program on data, which must hold a table of the
// prepared schema for every relation the plan scans, under the given
// options. Results are bit-identical for every worker count and runtime.
// Parallelism is intra-operator (morsels inside each operator), so the
// per-operator cardinality profile is accumulated by the single driver
// goroutine after each operator's barrier — no synchronization on
// ExecStats is needed, and the profile itself is deterministic. The
// intermediates go back to the free lists once the result's rows are
// copied out (algebra.Exec.Release); the result shares no memory with
// them.
func (p *Program) Run(data TableData, opts ExecOptions) (*algebra.Table, *ExecStats, error) {
	for i := range p.steps {
		if st := &p.steps[i]; st.kind == stepScan {
			rel := st.node.Rel
			t, ok := data[rel]
			if !ok {
				return nil, nil, fmt.Errorf("engine: no data for relation %d", rel)
			}
			if t.Schema != st.out && !slices.Equal(t.Schema.Names(), st.out.Names()) {
				return nil, nil, &SchemaError{Rel: rel}
			}
		}
	}
	hs := &algebra.HashStats{}
	ex := opts.exec().WithHashStats(hs)
	defer ex.Release()
	rt, err := opts.runtime(ex)
	if err != nil {
		return nil, nil, err
	}
	return p.run(data, rt, ex, hs, opts.Trace)
}

// run executes the checked program on the runtime rt over ex.
func (p *Program) run(data TableData, rt runtimeOps, ex *algebra.Exec, hs *algebra.HashStats, tr *obs.Trace) (*algebra.Table, *ExecStats, error) {
	stats := &ExecStats{EstimatedCout: p.cost, Workers: ex.Workers()}
	if p.ops > 0 {
		stats.Ops = make([]OpCard, 0, p.ops)
	}
	r := &runner{p: p, data: data, rt: rt, stats: stats, tr: tr, hs: hs}
	root := -1 // the root operator's span
	if tr != nil {
		root = tr.Len()
	}
	t, err := r.exec(len(p.steps) - 1)
	if err != nil {
		return nil, nil, err
	}
	res := rt.result(t)
	stats.ResultRows = res.Card()
	stats.Hash = hs.Snapshot()
	if root >= 0 {
		// MB of intermediate buffers served from the free lists / MB taken.
		tr.Annotatef(root, "reused", "%.1f/%.1f", float64(stats.Hash.BufReused)/1e6, float64(stats.Hash.BufBytes)/1e6)
	}
	return res, stats, nil
}

// runner is one execution of a program.
type runner struct {
	p     *Program
	data  TableData
	rt    runtimeOps
	stats *ExecStats
	tr    *obs.Trace         // nil = no tracing
	hs    *algebra.HashStats // live hash telemetry, for per-span deltas
	// mark is hs as of the last span closed (annotateSpan): operators run
	// one after another on the driver goroutine, so a span's own traffic
	// is what hs gained since.
	mark algebra.HashTableStats
}

// exec runs step i (children first), wrapped in a trace span when tracing
// is on. The span is opened before the children run and closed at the
// step's operator barrier, so spans nest by plan structure and a span's
// duration is the node's inclusive wall time — exactly what EXPLAIN
// ANALYZE prints. All recording happens on the driver goroutine; the
// morsel fan-outs inside operators never see the trace.
func (r *runner) exec(i int) (rtTable, error) {
	st := &r.p.steps[i]
	sid := -1
	if r.tr != nil {
		sid = r.tr.Begin(st.span, "op")
	}
	t, rowsIn, err := r.step(st)
	if sid >= 0 {
		if err == nil {
			r.tr.SetRows(sid, rowsIn, int64(t.Card()))
			annotateSpan(r.tr, sid, st.node, r.hs, &r.mark)
		}
		r.tr.End(sid)
	}
	return t, err
}

// step runs one step's children and operator, and records its output.
// rowsIn is the children's output (-1 for a scan).
func (r *runner) step(st *step) (t rtTable, rowsIn int64, err error) {
	if st.kind == stepScan {
		return r.rt.scan(r.data[st.node.Rel]), -1, nil
	}
	l, err := r.exec(st.left)
	if err != nil {
		return nil, 0, err
	}
	rowsIn = int64(l.Card())
	switch st.kind {
	case stepHashJoin, stepMergeJoin:
		var rt rtTable
		if rt, err = r.exec(st.right); err != nil {
			return nil, 0, err
		}
		rowsIn += int64(rt.Card())
		t, err = r.rt.join(st, l, rt)
	default:
		for k := range st.group.prods {
			l = r.rt.product(&st.group.prods[k], l)
		}
		t, err = r.rt.group(st, l)
	}
	if err != nil {
		return nil, 0, err
	}
	if st.keyed {
		// The measured counterpart of C_out, and — keyed by the operator's
		// canonical (relation-set, grouping-attrs) identity — the
		// per-operator profile the feedback loop harvests.
		act := float64(t.Card())
		r.stats.ActualCout += act
		r.stats.Ops = append(r.stats.Ops, OpCard{Key: st.key, Est: st.node.Card, Act: act})
	}
	return t, rowsIn, nil
}
