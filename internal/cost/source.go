// The stats-provider seam: cardinalities flow into the estimator through
// a FeedbackOverlay, so measured per-operator cardinalities harvested from
// an execution (internal/engine's ExecStats.Profile) can override the
// selectivity model during re-optimization — the
// execute→harvest→re-optimize loop of engine.Reoptimize.
//
// Operators are identified by canonical keys that survive plan changes:
// two plans that compute the same logical intermediate result map to the
// same CardKey, so a cardinality measured under one join order corrects
// the estimate of every other join order that builds the same result.

package cost

import (
	"fmt"
	"sort"
	"strings"

	"eagg/internal/bitset"
	"eagg/internal/plan"
	"eagg/internal/query"
)

// CardKey canonically identifies the logical intermediate result of one
// plan operator, independent of the join order that produced it:
//
//   - a binary operator over relation set S is keyed by (S, A), where A is
//     the union of the grouping-attribute sets of the eager groupings
//     active below it — the collapse state that determines its output
//     volume. For the left-only operators (semijoin, antijoin, groupjoin)
//     only the left side's groupings count: the right side contributes a
//     value set, which grouping does not change.
//   - a grouping Γ_G over S is keyed by (S, G) with IsGroup set. Its
//     output is the set of distinct G-combinations in the canonical
//     result over S, which is invariant under both join order and any
//     groupings pushed below it, so the key deliberately ignores the
//     subtree's collapse state.
//
// Scans and the free projection are not costed and carry no key. The
// canonicalization is exact for join-order changes and a close
// approximation across collapse states that share the same attribute
// union; a collision only blends two measured cardinalities — it can skew
// an estimate, never an executed result.
type CardKey struct {
	Rels    bitset.VSet
	Group   bitset.VSet
	IsGroup bool
}

// KeyOf returns the canonical key of a plan node, or ok=false for nodes
// that are not costed under C_out (scans, projections). The executor
// records measured cardinalities under exactly this key, and the
// estimator looks estimates up under exactly this key, so the two sides
// of the feedback loop cannot drift apart.
func KeyOf(p *plan.Plan) (CardKey, bool) {
	switch p.Kind {
	case plan.NodeOp:
		return CardKey{Rels: p.Rels, Group: p.GroupsBelow}, true
	case plan.NodeGroup:
		return CardKey{Rels: p.Rels, Group: p.GroupBy, IsGroup: true}, true
	}
	return CardKey{}, false
}

// Describe renders the key with relation and attribute names resolved
// against the query ("⨝{customer,orders}" / "Γ{o_orderdate}{orders,…}").
func (k CardKey) Describe(q *query.Query) string {
	var rels []string
	k.Rels.ForEach(func(r int) { rels = append(rels, q.Relations[r].Name) })
	if k.IsGroup {
		var attrs []string
		k.Group.ForEach(func(a int) { attrs = append(attrs, q.AttrNames[a]) })
		return fmt.Sprintf("Γ{%s}(%s)", strings.Join(attrs, ","), strings.Join(rels, "⨝"))
	}
	return "⨝{" + strings.Join(rels, ",") + "}"
}

// FeedbackOverlay supplies measured operator cardinalities: keys present
// in the overlay return their measured value, everything else falls back
// to the selectivity model. Build it from execution profiles
// (engine.ExecStats.Profile) and pass it to a re-optimization via
// core.Options.Stats. The overlay must not be mutated while an
// optimization that uses it is running.
type FeedbackOverlay struct {
	m map[CardKey]float64
}

// NewFeedbackOverlay returns an empty overlay (pure model behavior).
func NewFeedbackOverlay() *FeedbackOverlay {
	return &FeedbackOverlay{m: map[CardKey]float64{}}
}

// Card returns the measured cardinality for the key, or the model
// estimate when the key was never measured.
func (o *FeedbackOverlay) Card(key CardKey, model float64) float64 {
	if c, ok := o.m[key]; ok {
		return c
	}
	return model
}

// Lookup reports the measured cardinality for the key, if any.
func (o *FeedbackOverlay) Lookup(key CardKey) (float64, bool) {
	c, ok := o.m[key]
	return c, ok
}

// Set records a measured cardinality, overwriting earlier measurements of
// the same key (later rounds observe the same logical result; keeping the
// freshest value makes the loop self-correcting if a key ever collides).
func (o *FeedbackOverlay) Set(key CardKey, card float64) {
	o.m[key] = card
}

// Merge copies every measurement of src into o (src wins on key
// collisions). Used to seed a feedback loop with an externally
// harvested profile.
func (o *FeedbackOverlay) Merge(src *FeedbackOverlay) {
	for k, v := range src.m {
		o.m[k] = v
	}
}

// Len returns the number of measured keys.
func (o *FeedbackOverlay) Len() int { return len(o.m) }

// Keys returns the measured keys in deterministic order (for reports and
// tests).
func (o *FeedbackOverlay) Keys() []CardKey {
	out := make([]CardKey, 0, len(o.m))
	for k := range o.m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Rels != b.Rels {
			return a.Rels.Less(b.Rels)
		}
		if a.Group != b.Group {
			return a.Group.Less(b.Group)
		}
		return !a.IsGroup && b.IsGroup
	})
	return out
}
