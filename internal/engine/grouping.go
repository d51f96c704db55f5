package engine

import (
	"fmt"

	"eagg/internal/aggfn"
	"eagg/internal/bitset"
	"eagg/internal/plan"
)

// product materializes the product of the given weight attributes as a
// fresh column and returns its name ("" when there are none, the
// attribute itself when there is exactly one). The column is computed
// slot-wise: the weight attributes are resolved against the table schema
// once, and the runtime multiplies plain slot reads (per row, or as a
// typed columnar kernel on the batch runtime).
func (e *executor) product(tab rtTable, attrs []string) (string, rtTable) {
	switch len(attrs) {
	case 0:
		return "", tab
	case 1:
		return attrs[0], tab
	}
	name := e.fresh("prod")
	slots := tab.TabSchema().Slots(attrs)
	return name, e.rt.product(tab, name, slots)
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

// group executes a pushed-down grouping node: collapse the subtree to one
// row per G⁺ value, computing a fresh weight and partial aggregate
// states, via typed hash aggregation.
func (e *executor) group(child *compiled, p *plan.Plan) (*compiled, error) {
	s := p.Rels
	gNames := e.attrNames(p.GroupBy)
	tab := child.tab
	out := &compiled{aggs: make([]aggState, len(e.q.Aggregates))}

	// Fresh weight: the number of original tuple combinations each
	// grouped row stands for — Σ over the group of the product of the
	// existing weights (count(*) when none exist yet).
	wAll, tab2 := e.product(tab, weightAttrs(child.weights, bitset.VSet{}))
	tab = tab2
	wNew := e.fresh("w")
	inner := aggfn.Vector{}
	if wAll == "" {
		inner = append(inner, aggfn.Agg{Out: wNew, Kind: aggfn.CountStar})
	} else {
		inner = append(inner, aggfn.Agg{Out: wNew, Kind: aggfn.Sum, Arg: wAll})
	}

	srcs := e.q.AggSourceRels()
	for i, agg := range e.q.Aggregates {
		st := child.aggs[i]
		switch {
		case st.partial != nil:
			// Re-aggregate the partial, weighted by the multiplicities
			// of the other collapsed sides (the ⊗ adjustment).
			wOther, tab3 := e.product(tab, weightAttrs(child.weights, st.cover))
			tab = tab3
			ns, err := e.reaggregate(agg.Kind, st, wOther, &inner, s)
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
			ns, err := e.collapse(agg, wAll, &inner, s)
			if err != nil {
				return nil, err
			}
			out.aggs[i] = ns
		}
	}

	res, err := e.groupTable(tab, gNames, inner, p)
	if err != nil {
		return nil, err
	}
	out.tab = res
	out.weights = []weight{{attr: wNew, cover: s}}
	return out, nil
}

// groupTable runs one aggregation on the physical layer the plan node
// selected: typed hash aggregation, or sort-group aggregation that
// either streams over the input's existing order (SortL false — the
// eliminated sort, verified against the covering order prefix the
// optimizer recorded in p.MergeL) or sorts by the grouping key first.
// Both layers emit the identical output sequence. A nil p is the
// projection: every group is a single row, which the runtime may exploit.
func (e *executor) groupTable(tab rtTable, gNames []string, f aggfn.Vector, p *plan.Plan) (rtTable, error) {
	if p == nil {
		return e.rt.project(tab, gNames, f), nil
	}
	if p.Phys == plan.PhysSortMerge {
		var verify []int
		if !p.SortL {
			for _, a := range p.MergeL {
				if slot, ok := tab.TabSchema().Slot(e.q.AttrNames[a]); ok {
					verify = append(verify, slot)
				}
			}
		}
		return e.rt.sortGroup(tab, gNames, f, p.SortL, verify)
	}
	return e.rt.hashGroup(tab, gNames, f), nil
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

// finalGroup evaluates the query's final grouping (or its projection
// replacement — results are identical when G holds a key of a
// duplicate-free input, which is exactly when the optimizer chooses the
// projection). p is the plan node selecting the physical layer; nil is
// the projection path.
func (e *executor) finalGroup(child *compiled, groupBy bitset.VSet, p *plan.Plan) (*compiled, error) {
	tab := child.tab
	final := aggfn.Vector{}
	srcs := e.q.AggSourceRels()
	for i, agg := range e.q.Aggregates {
		st := child.aggs[i]
		if st.partial != nil {
			wOther, tab2 := e.product(tab, weightAttrs(child.weights, st.cover))
			tab = tab2
			fa, err := finalOfPartial(agg, st, wOther)
			if err != nil {
				return nil, err
			}
			final = append(final, fa)
			continue
		}
		// Raw aggregate (or count(*)): weight by every collapsed side.
		wAll, tab2 := e.product(tab, weightAttrs(child.weights, srcs[i]))
		tab = tab2
		fa, err := finalOfRaw(agg, wAll)
		if err != nil {
			return nil, err
		}
		final = append(final, fa)
	}
	gNames := e.attrNames(groupBy)
	res, err := e.groupTable(tab, gNames, final, p)
	if err != nil {
		return nil, err
	}
	return &compiled{tab: res, aggs: make([]aggState, len(e.q.Aggregates))}, nil
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
