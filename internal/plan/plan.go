// Package plan defines the operator trees the plan generators build, along
// with the logical properties attached to every subplan: estimated
// cardinality, accumulated C_out cost, candidate keys, duplicate-freeness
// and eagerness. Property computation lives in internal/cost.
package plan

import (
	"fmt"
	"strings"

	"eagg/internal/bitset"
	"eagg/internal/query"
)

// NodeKind discriminates plan nodes.
type NodeKind int

const (
	// NodeScan reads a base relation.
	NodeScan NodeKind = iota
	// NodeOp applies one of the binary operators of Sec. 2.2.
	NodeOp
	// NodeGroup is a pushed-down grouping operator Γ_{G⁺} introduced by
	// eager aggregation, or the query's final grouping Γ_G.
	NodeGroup
	// NodeProject stands for the duplicate-preserving projection that
	// replaces an unnecessary top grouping (Sec. 3.2); it is free under
	// C_out.
	NodeProject
)

// PhysKind selects the physical algebra a plan node executes on. The
// zero value is the hash layer, so plans built without the sort-based
// physical layer (the default optimization mode) are unchanged.
type PhysKind int

const (
	// PhysHash is the build/probe hash layer (hash join, typed hash
	// aggregation) — the default.
	PhysHash PhysKind = iota
	// PhysSortMerge is the sort-based layer: streaming sort-merge join
	// (inner/semi/anti/leftouter) and sort-group aggregation. Inputs
	// whose contractual order already covers the requirement skip their
	// sort (SortL/SortR false); the output sequence is bit-identical to
	// the hash layer's either way.
	PhysSortMerge
)

// Plan is an immutable plan node. Plans share subtrees freely (the DP
// table interleaves them), so nodes are never mutated after construction.
type Plan struct {
	Kind NodeKind
	// Rels is the set of base relations covered, T(T) in the paper.
	Rels bitset.VSet

	// Scan fields.
	Rel int

	// Op fields.
	Op          query.OpKind
	Preds       []*query.Predicate
	Left, Right *Plan

	// Group fields: the grouping attributes (G⁺ for pushed groupings, G
	// for the final grouping). Child is Left.
	GroupBy bitset.VSet
	// Final marks the query's top grouping (aggregates finalized here).
	Final bool

	// Logical properties (filled by the estimator).
	Card    float64
	Cost    float64
	Keys    []bitset.VSet
	DupFree bool

	// GroupsBelow is the union of the grouping-attribute sets of the
	// eager groupings that shape this node's output: the node's own
	// GroupBy plus the groupings below it, except across boundaries
	// where grouping cannot matter (the right side of semijoin, antijoin
	// and groupjoin contributes only a value set, which grouping leaves
	// unchanged). It is a pure function of the plan structure, filled at
	// construction by the estimator, and forms the grouping-attrs half of
	// the canonical (relation-set, grouping-attrs) keys the cardinality
	// feedback loop records and looks up measured cardinalities under
	// (internal/cost.KeyOf).
	GroupsBelow bitset.VSet

	// Physical properties, filled by the estimator only when the
	// optimizer runs with the sort-based physical layer enabled
	// (core.Options.Phys != PhysModeHash); plans built in the default
	// mode carry the zero values and behave exactly as before.

	// Phys is the physical algebra of this operator (NodeOp, NodeGroup).
	Phys PhysKind
	// SortL/SortR report that the sort-based operator must sort its
	// left/right input (NodeGroup uses SortL for its only input). False
	// on a PhysSortMerge node means the input's contractual order
	// already covers the requirement — the sort is eliminated.
	SortL, SortR bool
	// MergeL/MergeR are the equi-join attribute ids in merge-comparison
	// order (aligned pairs) on PhysSortMerge NodeOp nodes. The optimizer
	// permutes the predicate pairs so that an input's existing order is
	// matched where possible; the executor merges in exactly this order.
	// On a PhysSortMerge NodeGroup with SortL false, MergeL instead
	// holds the covering order prefix whose non-decreasingness the
	// runtime verifies before streaming runs.
	MergeL, MergeR []int
	// Ord is the contractual physical output order (ordering.Order as
	// attribute ids). It originates at declared scan orders and
	// propagates only through the sort-based layer; nil means no claim.
	Ord []int
	// PhysCost ranks plans in sort/auto optimization modes: the C_out
	// cost plus every operator's physical reorganization overhead (hash
	// operators pay the rows they hash, sort operators the rows of each
	// sort actually performed; reused orders are free). Zero in the
	// default hash mode, where plain Cost keeps ranking plans.
	PhysCost float64

	// Profile is the path-cardinality vector: one entry per relation of
	// Rels, in ascending relation order, holding the smallest cardinality
	// of any node on the path from this node down to the relation's scan —
	// an upper bound on how many of the relation's rows, and hence of its
	// attributes' distinct values, survive. The estimator derives it from
	// the children's vectors (an entry is min(child's entry, Card)) and
	// reads it for every future grouping estimate; it is the dominance
	// dimension of Sec. 4.6 that stands in for the paper's FD condition
	// (DESIGN "The EA-Prune inner loop").
	Profile []float64
}

// Input returns the only child of a unary node.
func (p *Plan) Input() *Plan { return p.Left }

// Eagerness implements Sec. 4.5: the number of grouping operators that are
// a direct child of the topmost operator. Non-operator nodes have
// eagerness 0.
func (p *Plan) Eagerness() int {
	if p == nil || p.Kind != NodeOp {
		return 0
	}
	e := 0
	if p.Left != nil && p.Left.Kind == NodeGroup {
		e++
	}
	if p.Right != nil && p.Right.Kind == NodeGroup {
		e++
	}
	return e
}

// HasKeySubsetOf reports whether some candidate key is contained in attrs
// — the key test of NeedsGrouping (Fig. 7).
func (p *Plan) HasKeySubsetOf(attrs bitset.VSet) bool {
	for _, k := range p.Keys {
		if k.SubsetOf(attrs) {
			return true
		}
	}
	return false
}

// CountGroupings returns the number of grouping operators in the plan,
// excluding the final grouping.
func (p *Plan) CountGroupings() int {
	if p == nil {
		return 0
	}
	n := p.Left.CountGroupings() + p.Right.CountGroupings()
	if p.Kind == NodeGroup && !p.Final {
		n++
	}
	return n
}

// String renders the plan as an indented tree.
func (p *Plan) String() string {
	var b strings.Builder
	p.render(&b, 0, nil)
	return b.String()
}

// StringWithQuery renders the plan with attribute and relation names
// resolved against the query.
func (p *Plan) StringWithQuery(q *query.Query) string {
	var b strings.Builder
	p.render(&b, 0, q)
	return b.String()
}

func (p *Plan) render(b *strings.Builder, depth int, q *query.Query) {
	if p == nil {
		return
	}
	indent := strings.Repeat("  ", depth)
	switch p.Kind {
	case NodeScan:
		name := fmt.Sprintf("R%d", p.Rel)
		if q != nil {
			name = q.Relations[p.Rel].Name
		}
		fmt.Fprintf(b, "%sscan %s (card=%.6g)\n", indent, name, p.Card)
	case NodeOp:
		fmt.Fprintf(b, "%s%v%s %v (card=%.6g cost=%.6g)\n", indent, p.Op, p.PhysTag(), p.Rels, p.Card, p.Cost)
		p.Left.render(b, depth+1, q)
		p.Right.render(b, depth+1, q)
	case NodeGroup:
		label := "Γ" + p.PhysTag()
		if p.Final {
			label = "Γ(final)" + p.PhysTag()
		}
		attrs := p.GroupBy.String()
		if q != nil {
			var names []string
			p.GroupBy.ForEach(func(a int) { names = append(names, q.AttrNames[a]) })
			attrs = "{" + strings.Join(names, ", ") + "}"
		}
		fmt.Fprintf(b, "%s%s %s (card=%.6g cost=%.6g)\n", indent, label, attrs, p.Card, p.Cost)
		p.Left.render(b, depth+1, q)
	case NodeProject:
		fmt.Fprintf(b, "%sΠ (card=%.6g cost=%.6g)\n", indent, p.Card, p.Cost)
		p.Left.render(b, depth+1, q)
	}
}

// Equal reports whether two plans are structurally identical with
// bit-identical estimates — the determinism contract between the
// sequential and parallel plan generators. Profiles are excluded: they are
// a function of the Card values along the tree, which are compared.
// Predicates are compared by identity, which is exact when both plans
// optimize the same Query.
func Equal(a, b *Plan) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Kind != b.Kind || a.Rels != b.Rels || a.Rel != b.Rel || a.Op != b.Op ||
		a.GroupBy != b.GroupBy || a.Final != b.Final ||
		a.Card != b.Card || a.Cost != b.Cost || a.DupFree != b.DupFree ||
		a.GroupsBelow != b.GroupsBelow ||
		a.Phys != b.Phys || a.SortL != b.SortL || a.SortR != b.SortR ||
		a.PhysCost != b.PhysCost {
		return false
	}
	if len(a.Keys) != len(b.Keys) || len(a.Preds) != len(b.Preds) {
		return false
	}
	if !equalInts(a.MergeL, b.MergeL) || !equalInts(a.MergeR, b.MergeR) || !equalInts(a.Ord, b.Ord) {
		return false
	}
	for i := range a.Keys {
		if a.Keys[i] != b.Keys[i] {
			return false
		}
	}
	for i := range a.Preds {
		if a.Preds[i] != b.Preds[i] {
			return false
		}
	}
	return Equal(a.Left, b.Left) && Equal(a.Right, b.Right)
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Signature returns a canonical string identifying the plan's structure
// (used by tests to compare plans irrespective of pointer identity).
func (p *Plan) Signature() string {
	if p == nil {
		return "·"
	}
	switch p.Kind {
	case NodeScan:
		return fmt.Sprintf("R%d", p.Rel)
	case NodeOp:
		return fmt.Sprintf("(%s %v%s %s)", p.Left.Signature(), p.Op, p.PhysTag(), p.Right.Signature())
	case NodeGroup:
		return fmt.Sprintf("Γ%s%v[%s]", p.PhysTag(), p.GroupBy, p.Left.Signature())
	case NodeProject:
		return fmt.Sprintf("Π[%s]", p.Left.Signature())
	}
	return "?"
}

// PhysTag renders the physical choice into signatures and trees: empty
// for hash (keeping default-mode signatures stable), "∘sort" for the
// sort-based layer with per-input sort/reuse marks.
func (p *Plan) PhysTag() string {
	if p.Phys != PhysSortMerge {
		return ""
	}
	mark := func(need bool) byte {
		if need {
			return 's' // sort performed
		}
		return 'o' // order reused, sort eliminated
	}
	if p.Kind == NodeGroup {
		return fmt.Sprintf("∘sort[%c]", mark(p.SortL))
	}
	return fmt.Sprintf("∘sort[%c%c]", mark(p.SortL), mark(p.SortR))
}

// SortStats counts the sorts of the plan's sort-based operators:
// performed (the input had to be sorted) versus eliminated (an existing
// order was reused). Hash operators contribute nothing.
func (p *Plan) SortStats() (performed, eliminated int) {
	if p == nil {
		return 0, 0
	}
	lp, le := p.Left.SortStats()
	rp, re := p.Right.SortStats()
	performed, eliminated = lp+rp, le+re
	if p.Phys == PhysSortMerge {
		count := func(need bool) {
			if need {
				performed++
			} else {
				eliminated++
			}
		}
		count(p.SortL)
		if p.Kind == NodeOp {
			count(p.SortR)
		}
	}
	return performed, eliminated
}

// StripPhys returns a copy of the plan with every physical annotation
// removed — the same logical tree on the pure hash layer. Executing the
// stripped plan is the differential oracle for the sort-based layer: the
// sort operators emit the hash-canonical output sequence, so results
// must be bit-identical, not merely bag-equal.
func StripPhys(p *Plan) *Plan {
	if p == nil {
		return nil
	}
	c := *p
	c.Phys = PhysHash
	c.SortL, c.SortR = false, false
	c.MergeL, c.MergeR = nil, nil
	c.Ord = nil
	c.PhysCost = 0
	c.Profile = nil
	c.Left = StripPhys(p.Left)
	c.Right = StripPhys(p.Right)
	return &c
}
