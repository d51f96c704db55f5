package core

// Plan-class retention for the sort-based physical layer. In the default
// hash mode every DP-table entry competes on C_out alone (one plan per
// relation set for the heuristics). With Options.Phys enabled, entries
// become *plan classes* keyed by
//
//	(relation set, GroupsBelow, contractual order)
//
// — the relation set is the table key as before, and within an entry
// plans only compete against plans of the same collapse state and the
// same order. A plan that is dominated on cost but carries a stronger
// order therefore survives enumeration (the classic interesting-order
// argument): its order may later eliminate a sort whose saving exceeds
// the cost gap. Selection inside a class — and at the top level — is by
// PhysCost: C_out plus the physical reorganization overheads of
// cost/phys.go. Ties keep the first-enumerated plan, which (hash
// variants are enumerated before sort variants) resolves toward the
// hash layer and keeps the choice deterministic for the parallel driver.

import (
	"eagg/internal/ordering"
	"eagg/internal/plan"
)

// physOn reports whether the sort-based physical layer participates.
func (g *generator[S]) physOn() bool { return g.opts.Phys != PhysModeHash }

// sameClass reports whether two plans fall into the same plan class of
// one DP-table entry: identical collapse state and identical contractual
// order.
func sameClass(a, b *plan.Plan) bool {
	return a.GroupsBelow == b.GroupsBelow && ordering.Order(a.Ord).Equal(ordering.Order(b.Ord))
}

// insertPhys is the retention policy of the sort/auto modes, applied per
// plan class. EA-Prune runs the same frontier as the hash mode, its
// dominance extended by the physical dimensions (see dominatesRest).
func (g *generator[S]) insertPhys(w *worker, e *entry, t *plan.Plan) {
	switch g.opts.Algorithm {
	case AlgEAAll:
		e.plans = append(e.plans, w.keep(t))
	case AlgEAPrune:
		g.pruneDominatedPlans(w, e, t)
	case AlgBeam:
		g.insertBeamPhys(w, e, t)
	case AlgH2:
		for i, old := range e.plans {
			if sameClass(old, t) {
				if g.compareAdjustedPhysCosts(t, old) {
					e.plans[i] = w.keep(t)
				}
				return
			}
		}
		e.plans = append(e.plans, w.keep(t))
	default: // DPhyp, H1: single cheapest plan per class
		for i, old := range e.plans {
			if sameClass(old, t) {
				if t.PhysCost < old.PhysCost {
					e.plans[i] = w.keep(t)
				}
				return
			}
		}
		e.plans = append(e.plans, w.keep(t))
	}
}

// compareAdjustedPhysCosts is H2's eagerness-biased comparison (Fig. 12)
// on physical costs: within a class, more eager plans get the tolerance
// factor F, exactly like the hash mode's compareAdjustedCosts does on
// C_out.
func (g *generator[S]) compareAdjustedPhysCosts(t, cur *plan.Plan) bool {
	et, ec := t.Eagerness(), cur.Eagerness()
	f := g.opts.F
	switch {
	case et == ec:
		return t.PhysCost < cur.PhysCost
	case et < ec:
		return f*t.PhysCost < cur.PhysCost
	default:
		return t.PhysCost < f*cur.PhysCost
	}
}

// insertBeamPhys keeps the BeamWidth physically cheapest plans per plan
// class. Within a class the worst member is evicted; on cost ties the
// earlier-enumerated plan stays (determinism).
func (g *generator[S]) insertBeamPhys(w *worker, e *entry, t *plan.Plan) {
	k := g.opts.BeamWidth
	members := 0
	worst := -1
	for i, old := range e.plans {
		if !sameClass(old, t) {
			continue
		}
		members++
		if worst < 0 || old.PhysCost > e.plans[worst].PhysCost {
			worst = i
		}
	}
	if members < k {
		e.plans = append(e.plans, w.keep(t))
	} else if worst >= 0 && t.PhysCost < e.plans[worst].PhysCost {
		e.plans[worst] = w.keep(t)
	}
}
