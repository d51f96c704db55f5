// Trace integration: span naming and annotation for executor operators,
// the bridge that turns an optimization's core.Stats into optimizer
// spans, and the EXPLAIN ANALYZE renderer that joins a plan tree with
// the spans its execution recorded.
package engine

import (
	"fmt"
	"math"
	"strings"

	"eagg/internal/algebra"
	"eagg/internal/core"
	"eagg/internal/obs"
	"eagg/internal/plan"
	"eagg/internal/query"
)

// spanName renders a plan node's deterministic span name: the operator
// with its physical tag, plus the relation or grouping attributes that
// identify it. Names are pure functions of the plan and query, so they
// participate in the trace fingerprint the determinism suite compares.
func spanName(q *query.Query, p *plan.Plan) string {
	switch p.Kind {
	case plan.NodeScan:
		return "scan " + q.Relations[p.Rel].Name
	case plan.NodeOp:
		return p.Op.String() + p.PhysTag() + " " + attrList(q, p.Rels)
	case plan.NodeGroup:
		label := "Γ"
		if p.Final {
			label = "Γ(final)"
		}
		return label + p.PhysTag() + " " + groupAttrList(q, p)
	case plan.NodeProject:
		return "Π"
	}
	return fmt.Sprintf("node(%d)", int(p.Kind))
}

// attrList renders a relation set as {name, name, …}.
func attrList(q *query.Query, rels interface{ ForEach(func(int)) }) string {
	var names []string
	rels.ForEach(func(r int) { names = append(names, q.Relations[r].Name) })
	return "{" + strings.Join(names, ",") + "}"
}

// groupAttrList renders a grouping node's attribute set with names.
func groupAttrList(q *query.Query, p *plan.Plan) string {
	var names []string
	p.GroupBy.ForEach(func(a int) { names = append(names, q.AttrNames[a]) })
	return "{" + strings.Join(names, ",") + "}"
}

// annotateSpan attaches the non-deterministic (worker-count-dependent or
// advisory) operator telemetry to a finished span: the estimate the
// optimizer planned with, the sort decisions of the sort-merge layer,
// and the hash-table delta this operator contributed (batch runtime):
// sort=dense|radix|compare, the arms its performed sorts took (dense is
// the counting sort); the way its keys were addressed, table=dense for
// direct-addressed builds and group indexes, table=hash for the flat hash
// tables; and gathered=<columns>, how many columns of the views its
// inputs are (algebra.ColTable) this operator was the first to read, and
// so copied.
// Annotations are excluded from the fingerprint, so they may depend on
// the execution configuration freely. mark is the telemetry as of the
// last span closed before this operator ran — its last child's, children
// run first — and advances to this span's end.
func annotateSpan(tr *obs.Trace, id int, p *plan.Plan, hs *algebra.HashStats, mark *algebra.HashTableStats) {
	if p.Kind == plan.NodeOp || p.Kind == plan.NodeGroup {
		tr.Annotatef(id, "est_rows", "%.6g", p.Card)
	}
	if p.Phys == plan.PhysSortMerge {
		performed := 0
		count := func(need bool) {
			if need {
				performed++
			}
		}
		count(p.SortL)
		total := 1
		if p.Kind == plan.NodeOp {
			total = 2
			count(p.SortR)
		}
		tr.Annotatef(id, "sorts", "%d performed, %d eliminated", performed, total-performed)
	}
	if hs == nil {
		return
	}
	// The operator barrier has passed: every morsel task that touched the
	// shared HashStats is done, so the snapshot delta is exactly this
	// operator's traffic.
	before, after := *mark, hs.Snapshot()
	*mark = after
	var arms []string
	for _, a := range []struct {
		name string
		n    int64
	}{
		{"dense", after.SortDense - before.SortDense},
		{"radix", after.SortRadix - before.SortRadix},
		{"compare", after.SortCompare - before.SortCompare},
	} {
		if a.n > 0 {
			arms = append(arms, a.name)
		}
	}
	if len(arms) > 0 {
		tr.Annotate(id, "sort", strings.Join(arms, "+"))
	}
	if builds := after.Builds - before.Builds; builds > 0 {
		tr.Annotatef(id, "ht_builds", "%d", builds)
		tr.Annotatef(id, "ht_entries", "%d", after.Entries-before.Entries)
		switch dense := after.Dense - before.Dense; dense {
		case builds:
			tr.Annotate(id, "table", "dense")
		case 0:
			tr.Annotate(id, "table", "hash")
		default:
			tr.Annotate(id, "table", "dense+hash")
		}
	}
	if checks := after.BloomChecks - before.BloomChecks; checks > 0 {
		tr.Annotatef(id, "bloom_checks", "%d", checks)
		tr.Annotatef(id, "bloom_passes", "%d", after.BloomPasses-before.BloomPasses)
	}
	if cols := after.GatherCols - before.GatherCols; cols > 0 {
		tr.Annotatef(id, "gathered", "%d", cols)
		tr.Annotatef(id, "gathered_rows", "%d", after.GatherRows-before.GatherRows)
	}
}

// TraceOptimize runs one optimization under a trace span, attaching the
// optimizer's phase telemetry as child spans and annotations: one
// "dp-level" span per sealed DP level (pairs processed, subsets — the
// per-level timings core.Stats already records, re-anchored inside the
// optimize span), the csg-cmp-pair and plans-built totals, and whether
// the pair budget forced the greedy fallback. With a nil trace it is
// exactly fn(). The deterministic span fields (level structure, pair
// counts) are identical for every optimizer worker count — levels seal
// in the same order under the parallel driver.
func TraceOptimize(tr *obs.Trace, name string, fn func() (*core.Result, error)) (*core.Result, error) {
	if tr == nil {
		return fn()
	}
	id := tr.Begin(name, "optimize")
	res, err := fn()
	if err != nil {
		tr.End(id)
		return nil, err
	}
	s := res.Stats
	tr.Annotatef(id, "csg_cmp_pairs", "%d", s.CsgCmpPairs)
	tr.Annotatef(id, "plans_built", "%d", s.PlansBuilt)
	tr.Annotatef(id, "workers", "%d", s.Workers)
	if s.PairBudgetExceeded {
		tr.Annotate(id, "pair_budget", "exceeded: plan built by the deterministic greedy fallback")
	}
	// Levels seal strictly one after another, so re-anchoring them
	// back-to-back from the optimize span's start reconstructs the real
	// phase layout (enumeration and setup time shows as the gap before
	// the levels end and the span does).
	start := tr.Spans()[id].StartNS
	for _, l := range s.Levels {
		dur := l.Duration.Nanoseconds()
		lid := tr.Emit(id, fmt.Sprintf("dp-level %d", l.Level), "dp-level", start, dur, -1, int64(l.Pairs))
		tr.Annotatef(lid, "subsets", "%d", l.Subsets)
		start += dur
	}
	tr.End(id)
	return res, nil
}

// ExplainAnalyze renders the plan tree annotated with estimated versus
// actual cardinality, per-operator q-error and inclusive wall time — the
// EXPLAIN ANALYZE view. tr must hold the spans of exactly one execution
// of p (ExecOptions.Trace on a fresh obs.Trace); the executor records
// one "op" span per plan node in compile pre-order, which is the same
// pre-order this renderer walks, so spans and nodes join positionally.
func ExplainAnalyze(q *query.Query, p *plan.Plan, tr *obs.Trace) string {
	var ops []obs.Span
	for _, sp := range tr.Spans() {
		if sp.Cat == "op" {
			ops = append(ops, sp)
		}
	}
	var b strings.Builder
	idx := 0
	var walk func(n *plan.Plan, depth int)
	walk = func(n *plan.Plan, depth int) {
		if n == nil {
			return
		}
		indent := strings.Repeat("  ", depth)
		name := spanName(q, n)
		line := indent + name
		if idx < len(ops) {
			sp := ops[idx]
			idx++
			act := sp.RowsOut
			ms := float64(sp.DurNS) / 1e6
			// How the operator's keys were addressed, when it built a table,
			// which arms its sorts took, and how many columns of its input
			// views it gathered.
			notes := ""
			for _, kv := range sp.Args {
				if kv.Key == "table" || kv.Key == "sort" || kv.Key == "gathered" {
					notes += " " + kv.Key + "=" + kv.Value
				}
			}
			switch n.Kind {
			case plan.NodeScan:
				fmt.Fprintf(&b, "%s (rows=%d time=%.3fms)\n", line, act, ms)
			default:
				fmt.Fprintf(&b, "%s (est=%.6g act=%d q=%.2f time=%.3fms%s)\n",
					line, n.Card, act, qerror(n.Card, float64(act)), ms, notes)
			}
		} else {
			// No span left (foreign trace): degrade to the estimate-only view.
			fmt.Fprintf(&b, "%s (est=%.6g)\n", line, n.Card)
		}
		walk(n.Left, depth+1)
		walk(n.Right, depth+1)
	}
	walk(p, 0)
	return b.String()
}

// qerror is the clamped cardinality q-error (see ExecStats.CoutQError).
func qerror(est, act float64) float64 {
	e, a := math.Max(est, 1), math.Max(act, 1)
	if e > a {
		return e / a
	}
	return a / e
}
