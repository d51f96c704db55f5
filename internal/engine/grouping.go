package engine

import (
	"fmt"

	"eagg/internal/aggfn"
	"eagg/internal/algebra"
	"eagg/internal/bitset"
	"eagg/internal/plan"
)

// product names the product of the given weight attributes ("" when there
// are none, the attribute itself when there is exactly one). Several are
// multiplied into a fresh column: the step extends its input *s by it,
// from the factors' slots, before aggregating (per row, or as a typed
// columnar kernel on the batch runtime).
func (c *compiler) product(st *step, s **algebra.Schema, attrs []string) string {
	switch len(attrs) {
	case 0:
		return ""
	case 1:
		return attrs[0]
	}
	name := c.fresh("prod")
	pr := product{slots: (*s).Slots(attrs), out: (*s).Extend(name)}
	st.group.prods = append(st.group.prods, pr)
	*s = pr.out
	return name
}

func weightAttrs(ws []weight, excludeCover bitset.VSet) []string {
	var out []string
	for _, w := range ws {
		if !w.cover.Intersects(excludeCover) {
			out = append(out, w.attr)
		}
	}
	return out
}

// group prepares a pushed-down grouping node: collapse the subtree to one
// row per G⁺ value, computing a fresh weight and partial aggregate
// states.
func (c *compiler) group(st *step, child *compiled, p *plan.Plan) (*compiled, error) {
	s := p.Rels
	in := child.schema
	out := &compiled{aggs: make([]aggState, len(c.q.Aggregates))}

	// Fresh weight: the number of original tuple combinations each
	// grouped row stands for — Σ over the group of the product of the
	// existing weights (count(*) when none exist yet).
	wAll := c.product(st, &in, weightAttrs(child.weights, bitset.VSet{}))
	wNew := c.fresh("w")
	inner := aggfn.Vector{}
	if wAll == "" {
		inner = append(inner, aggfn.Agg{Out: wNew, Kind: aggfn.CountStar})
	} else {
		inner = append(inner, aggfn.Agg{Out: wNew, Kind: aggfn.Sum, Arg: wAll})
	}

	srcs := c.q.AggSourceRels()
	for i, agg := range c.q.Aggregates {
		state := child.aggs[i]
		switch {
		case state.partial != nil:
			// Re-aggregate the partial, weighted by the multiplicities
			// of the other collapsed sides (the ⊗ adjustment).
			wOther := c.product(st, &in, weightAttrs(child.weights, state.cover))
			ns, err := c.reaggregate(agg.Kind, state, wOther, &inner, s)
			if err != nil {
				return nil, err
			}
			out.aggs[i] = ns
		case srcs[i].IsEmpty():
			// count(*): fully tracked by the weights.
		case !srcs[i].Intersects(s):
			// Raw and entirely outside this subtree: untouched.
		case !srcs[i].SubsetOf(s):
			return nil, fmt.Errorf("engine: aggregate %d spans the grouped subtree boundary — invalid plan", i)
		default:
			// First collapse: raw → partial, weighted by all existing
			// multiplicities.
			ns, err := c.collapse(agg, wAll, &inner, s)
			if err != nil {
				return nil, err
			}
			out.aggs[i] = ns
		}
	}

	out.schema = c.aggregate(st, in, c.attrNames(p.GroupBy), inner, p)
	out.weights = []weight{{attr: wNew, cover: s}}
	return out, nil
}

// aggregate resolves the step's aggregation of an input with schema in, on
// the physical layer the plan node selected: typed hash aggregation, or
// sort-group aggregation that either streams over the input's existing
// order (SortL false — the eliminated sort, verified against the covering
// order prefix the optimizer recorded in p.MergeL) or sorts by the
// grouping key first. Both layers emit the identical output sequence. A
// nil p is the projection: every group is a single row, which the runtime
// may exploit. It returns the output schema.
func (c *compiler) aggregate(st *step, in *algebra.Schema, gNames []string, f aggfn.Vector, p *plan.Plan) *algebra.Schema {
	g := st.group
	g.names, g.f, g.agg = gNames, f, algebra.BindAggregation(in, gNames, f)
	switch {
	case p == nil:
		st.kind = stepProject
	case p.Phys == plan.PhysSortMerge:
		st.kind = stepSortGroup
		if !p.SortL {
			for _, a := range p.MergeL {
				if slot, ok := in.Slot(c.q.AttrNames[a]); ok {
					g.verify = append(g.verify, slot)
				}
			}
		}
	default:
		st.kind = stepHashGroup
	}
	return g.agg.Out
}

// collapse turns a raw aggregate into a partial state, appending the
// needed inner aggregates.
func (e *binder) collapse(agg aggfn.Agg, w string, inner *aggfn.Vector, cover bitset.VSet) (aggState, error) {
	switch agg.Kind {
	case aggfn.Sum:
		p := e.fresh("p")
		if w == "" {
			*inner = append(*inner, aggfn.Agg{Out: p, Kind: aggfn.Sum, Arg: agg.Arg})
		} else {
			*inner = append(*inner, aggfn.Agg{Out: p, Kind: aggfn.SumTimes, Arg: agg.Arg, Arg2: w})
		}
		return aggState{partial: []string{p}, defaults: []aggfn.Default{aggfn.DefaultNull}, cover: cover}, nil
	case aggfn.Count:
		p := e.fresh("p")
		if w == "" {
			*inner = append(*inner, aggfn.Agg{Out: p, Kind: aggfn.Count, Arg: agg.Arg})
		} else {
			*inner = append(*inner, aggfn.Agg{Out: p, Kind: aggfn.SumIfNotNull, Arg: agg.Arg, Arg2: w})
		}
		return aggState{partial: []string{p}, defaults: []aggfn.Default{aggfn.DefaultZero}, cover: cover}, nil
	case aggfn.Min, aggfn.Max:
		p := e.fresh("p")
		*inner = append(*inner, aggfn.Agg{Out: p, Kind: agg.Kind, Arg: agg.Arg})
		return aggState{partial: []string{p}, defaults: []aggfn.Default{aggfn.DefaultNull}, cover: cover}, nil
	case aggfn.Avg:
		ps, pn := e.fresh("ps"), e.fresh("pn")
		if w == "" {
			*inner = append(*inner,
				aggfn.Agg{Out: ps, Kind: aggfn.Sum, Arg: agg.Arg},
				aggfn.Agg{Out: pn, Kind: aggfn.Count, Arg: agg.Arg})
		} else {
			*inner = append(*inner,
				aggfn.Agg{Out: ps, Kind: aggfn.SumTimes, Arg: agg.Arg, Arg2: w},
				aggfn.Agg{Out: pn, Kind: aggfn.SumIfNotNull, Arg: agg.Arg, Arg2: w})
		}
		return aggState{
			partial:  []string{ps, pn},
			defaults: []aggfn.Default{aggfn.DefaultNull, aggfn.DefaultZero},
			cover:    cover,
		}, nil
	}
	return aggState{}, fmt.Errorf("engine: aggregate kind %v cannot be pushed (not decomposable)", agg.Kind)
}

// reaggregate merges an existing partial at a higher grouping.
func (e *binder) reaggregate(kind aggfn.Kind, st aggState, wOther string, inner *aggfn.Vector, cover bitset.VSet) (aggState, error) {
	sumLike := func(src string, def aggfn.Default) (string, aggfn.Default) {
		p := e.fresh("p")
		if wOther == "" {
			*inner = append(*inner, aggfn.Agg{Out: p, Kind: aggfn.Sum, Arg: src})
		} else {
			*inner = append(*inner, aggfn.Agg{Out: p, Kind: aggfn.SumTimes, Arg: src, Arg2: wOther})
		}
		return p, def
	}
	switch kind {
	case aggfn.Sum, aggfn.Count:
		p, d := sumLike(st.partial[0], st.defaults[0])
		return aggState{partial: []string{p}, defaults: []aggfn.Default{d}, cover: cover}, nil
	case aggfn.Min, aggfn.Max:
		p := e.fresh("p")
		*inner = append(*inner, aggfn.Agg{Out: p, Kind: kind, Arg: st.partial[0]})
		return aggState{partial: []string{p}, defaults: []aggfn.Default{aggfn.DefaultNull}, cover: cover}, nil
	case aggfn.Avg:
		ps, _ := sumLike(st.partial[0], aggfn.DefaultNull)
		pn, _ := sumLike(st.partial[1], aggfn.DefaultZero)
		return aggState{
			partial:  []string{ps, pn},
			defaults: []aggfn.Default{aggfn.DefaultNull, aggfn.DefaultZero},
			cover:    cover,
		}, nil
	}
	return aggState{}, fmt.Errorf("engine: cannot re-aggregate partial of kind %v", kind)
}

// finalGroup prepares the query's final grouping (or its projection
// replacement — results are identical when G holds a key of a
// duplicate-free input, which is exactly when the optimizer chooses the
// projection). p is the plan node selecting the physical layer; nil is
// the projection path.
func (c *compiler) finalGroup(st *step, child *compiled, groupBy bitset.VSet, p *plan.Plan) (*compiled, error) {
	in := child.schema
	final := aggfn.Vector{}
	srcs := c.q.AggSourceRels()
	for i, agg := range c.q.Aggregates {
		state := child.aggs[i]
		if state.partial != nil {
			wOther := c.product(st, &in, weightAttrs(child.weights, state.cover))
			fa, err := finalOfPartial(agg, state, wOther)
			if err != nil {
				return nil, err
			}
			final = append(final, fa)
			continue
		}
		// Raw aggregate (or count(*)): weight by every collapsed side.
		wAll := c.product(st, &in, weightAttrs(child.weights, srcs[i]))
		fa, err := finalOfRaw(agg, wAll)
		if err != nil {
			return nil, err
		}
		final = append(final, fa)
	}
	out := c.aggregate(st, in, c.attrNames(groupBy), final, p)
	return &compiled{schema: out, aggs: make([]aggState, len(c.q.Aggregates))}, nil
}

func finalOfPartial(agg aggfn.Agg, st aggState, w string) (aggfn.Agg, error) {
	switch agg.Kind {
	case aggfn.Sum, aggfn.Count, aggfn.CountStar:
		if w == "" {
			return aggfn.Agg{Out: agg.Out, Kind: aggfn.Sum, Arg: st.partial[0]}, nil
		}
		return aggfn.Agg{Out: agg.Out, Kind: aggfn.SumTimes, Arg: st.partial[0], Arg2: w}, nil
	case aggfn.Min, aggfn.Max:
		return aggfn.Agg{Out: agg.Out, Kind: agg.Kind, Arg: st.partial[0]}, nil
	case aggfn.Avg:
		return aggfn.Agg{Out: agg.Out, Kind: aggfn.AvgMerge, Arg: st.partial[0], Arg2: st.partial[1], Weight: w}, nil
	}
	return aggfn.Agg{}, fmt.Errorf("engine: no final form for partial %v", agg.Kind)
}

func finalOfRaw(agg aggfn.Agg, w string) (aggfn.Agg, error) {
	if w == "" {
		return agg, nil
	}
	switch agg.Kind {
	case aggfn.CountStar:
		return aggfn.Agg{Out: agg.Out, Kind: aggfn.Sum, Arg: w}, nil
	case aggfn.Sum:
		return aggfn.Agg{Out: agg.Out, Kind: aggfn.SumTimes, Arg: agg.Arg, Arg2: w}, nil
	case aggfn.Count:
		return aggfn.Agg{Out: agg.Out, Kind: aggfn.SumIfNotNull, Arg: agg.Arg, Arg2: w}, nil
	case aggfn.Avg:
		return aggfn.Agg{Out: agg.Out, Kind: aggfn.AvgWeighted, Arg: agg.Arg, Arg2: w}, nil
	case aggfn.Min, aggfn.Max, aggfn.SumDistinct, aggfn.CountDistinct, aggfn.AvgDistinct:
		return agg, nil // duplicate agnostic
	}
	return aggfn.Agg{}, fmt.Errorf("engine: no weighted final form for %v", agg.Kind)
}
