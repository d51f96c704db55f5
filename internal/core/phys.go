package core

// Plan-class retention for the sort-based physical layer. In the hash
// mode every DP-table entry is one plan class and competes on C_out alone
// (one plan per relation set for the heuristics). In the sort mode,
// entries hold *plan classes* keyed by
//
//	(relation set, contractual order)
//
// — the relation set is the table key as before, and within an entry
// plans only compete against plans of the same order. A plan that is
// dominated on cost but carries a stronger order therefore survives
// enumeration (the classic interesting-order argument): its order may
// later eliminate a sort whose saving exceeds the cost gap. The collapse
// state (GroupsBelow) is deliberately not part of the class: that is the
// dimension EA-All enumerates, and a heuristic keeping one plan per
// collapse state builds more plans than EA-Prune. Selection inside a
// class — and at the top level — is by PhysCost: C_out plus the physical
// reorganization overheads of cost/phys.go. Ties keep the
// first-enumerated plan, which keeps the choice deterministic for the
// parallel driver.

import (
	"eagg/internal/ordering"
	"eagg/internal/plan"
	"eagg/internal/query"
)

// physOn reports whether the sort-based physical layer participates.
func (g *generator[S]) physOn() bool { return g.opts.Phys == PhysModeSort }

// opPhys returns the physical kind of a binary operator: sort-based in the
// sort mode, except for the operators without a sort-based form (full
// outerjoin, groupjoin), which stay on the hash layer in every mode.
func (g *generator[S]) opPhys(kind query.OpKind) plan.PhysKind {
	if kind == query.KindFullOuter || kind == query.KindGroupJoin {
		return plan.PhysHash
	}
	return g.groupPhys()
}

// groupPhys returns the physical kind of a grouping.
func (g *generator[S]) groupPhys() plan.PhysKind {
	if g.physOn() {
		return plan.PhysSortMerge
	}
	return plan.PhysHash
}

// rank is the cost the retention policies order plans by: PhysCost in the
// sort mode, C_out otherwise.
func (g *generator[S]) rank(p *plan.Plan) float64 {
	if g.physOn() {
		return p.PhysCost
	}
	return p.Cost
}

// sameClass reports whether two plans fall into the same plan class of
// one DP-table entry: always in the hash mode; in the sort mode when they
// have identical contractual order.
func (g *generator[S]) sameClass(a, b *plan.Plan) bool {
	return !g.physOn() || ordering.Order(a.Ord).Equal(ordering.Order(b.Ord))
}
