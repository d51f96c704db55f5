// Package query models the optimizer's input: base relations with
// statistics, a universe of attributes identified by small integers (so
// attribute sets are bitsets), equi-join predicates with selectivities, the
// initial operator tree produced by the parser, and the query's grouping
// attributes G plus aggregation vector F.
//
// Attribute ids are query-global and every attribute set — grouping sets,
// join attribute sets, keys, functional dependencies — is an adaptive-width
// bitset.VSet, so the universe is bounded only by the MaxAttrs sanity cap.
// Only attributes actually referenced by the query (predicates, group-by,
// aggregates, keys) need to be registered.
package query

import (
	"fmt"
	"math/bits"

	"eagg/internal/aggfn"
	"eagg/internal/bitset"
)

const (
	// MaxRelations is the relation capacity of the wide enumeration path
	// (bitset.WideBits with the same one-element headroom Set64 kept for
	// its 63-relation cap).
	MaxRelations = bitset.WideBits - 1
	// MaxAttrs caps the attribute universe. Attribute sets are
	// adaptive-width VSets with no intrinsic limit, so this is only a
	// sanity bound against absurd universes; it comfortably admits a
	// 100-relation clique (~10k predicate attributes).
	MaxAttrs = 1 << 14
)

// OpKind enumerates the operators of Sec. 2.2 that can appear in the
// initial operator tree.
type OpKind int

const (
	// KindScan is a base relation leaf.
	KindScan OpKind = iota
	// KindJoin is the inner join B.
	KindJoin
	// KindSemiJoin is the left semijoin N.
	KindSemiJoin
	// KindAntiJoin is the left antijoin T.
	KindAntiJoin
	// KindLeftOuter is the left outerjoin E.
	KindLeftOuter
	// KindFullOuter is the full outerjoin K.
	KindFullOuter
	// KindGroupJoin is the left groupjoin Z.
	KindGroupJoin
)

var kindNames = map[OpKind]string{
	KindScan:      "scan",
	KindJoin:      "join",
	KindSemiJoin:  "semijoin",
	KindAntiJoin:  "antijoin",
	KindLeftOuter: "leftouterjoin",
	KindFullOuter: "fullouterjoin",
	KindGroupJoin: "groupjoin",
}

func (k OpKind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// Commutative reports whether the operator commutes (Sec. 4.1 line 7).
func (k OpKind) Commutative() bool {
	return k == KindJoin || k == KindFullOuter
}

// LeftOnly reports whether the operator only preserves attributes of its
// left input (N, T, Z), which restricts grouping pushes to the left
// argument (Sec. 3.1.3).
func (k OpKind) LeftOnly() bool {
	return k == KindSemiJoin || k == KindAntiJoin || k == KindGroupJoin
}

// Relation is a base relation with statistics.
type Relation struct {
	Name string
	Card float64
	// Attrs is the set of registered attribute ids owned by the relation.
	Attrs bitset.VSet
	// Keys lists candidate keys (attribute sets). A relation with at
	// least one key is duplicate-free (SQL primary key / uniqueness
	// remark in Sec. 3.2).
	Keys []bitset.VSet
	// Ordered declares the physical row order the relation's data
	// arrives in: attribute ids in significance order, ascending under
	// the runtime's value comparison with NULLs first. It is a promise
	// about the data, not a hint — the sort-based physical layer reuses
	// the order to skip sorts, and the merge runtime verifies it while
	// streaming (a violated declaration is an execution error, never a
	// wrong result). Empty means "no known order".
	Ordered []int
}

// Predicate is an equi-join predicate ⋀ Left[i] = Right[i] between two
// relations' attributes, with an estimated selectivity w.r.t. the cross
// product of its two sides.
type Predicate struct {
	Left, Right []int // paired attribute ids
	Selectivity float64
}

// Attrs returns all attribute ids the predicate references, F(q).
func (p *Predicate) Attrs() bitset.VSet {
	var s bitset.VSet
	for _, a := range p.Left {
		s = s.Add(a)
	}
	for _, a := range p.Right {
		s = s.Add(a)
	}
	return s
}

// LeftAttrs returns the attribute ids on the left side.
func (p *Predicate) LeftAttrs() bitset.VSet {
	var s bitset.VSet
	for _, a := range p.Left {
		s = s.Add(a)
	}
	return s
}

// RightAttrs returns the attribute ids on the right side.
func (p *Predicate) RightAttrs() bitset.VSet {
	var s bitset.VSet
	for _, a := range p.Right {
		s = s.Add(a)
	}
	return s
}

// OpNode is a node of the initial operator tree.
type OpNode struct {
	Kind        OpKind
	Rel         int // for KindScan: relation id
	Left, Right *OpNode
	Pred        *Predicate
	// GroupJoinAggs is the groupjoin's own aggregation vector F̄
	// (KindGroupJoin only). Its outputs live on the left side afterwards.
	GroupJoinAggs aggfn.Vector
}

// Rels returns the set of relations in the subtree.
func (n *OpNode) Rels() bitset.VSet {
	if n == nil {
		return bitset.VSet{}
	}
	if n.Kind == KindScan {
		return bitset.SingleV(n.Rel)
	}
	return n.Left.Rels().Union(n.Right.Rels())
}

// Query is the complete optimizer input.
type Query struct {
	Relations []Relation
	// AttrNames maps attribute id → name; AttrRel maps id → owning
	// relation.
	AttrNames []string
	AttrRel   []int
	// Distinct holds the number of distinct values per attribute id.
	Distinct []float64
	// Root is the initial operator tree.
	Root *OpNode
	// GroupBy is the grouping attribute set G; Aggregates the vector F.
	// A query without grouping has an empty GroupBy and nil Aggregates
	// and degenerates to plain join ordering.
	GroupBy    bitset.VSet
	Aggregates aggfn.Vector
	// HasGrouping distinguishes "group by ∅ with aggregates" (a single
	// global group) from "no grouping at all".
	HasGrouping bool

	attrByName map[string]int
	// err records the first construction error (relation/attribute
	// capacity overflow). Construction methods keep returning ids so
	// fluent query building does not crash mid-way; Validate surfaces
	// the error, so core.Optimize and the eagg facade report it instead
	// of panicking.
	err error
}

// New returns an empty query.
func New() *Query {
	return &Query{attrByName: map[string]int{}}
}

// fail records the first construction error; later errors are dropped
// (the first one names the root cause).
func (q *Query) fail(err error) {
	if q.err == nil {
		q.err = err
	}
}

// Err returns the first construction error (capacity overflow), if any.
// Validate reports it too, so most callers never need this directly.
func (q *Query) Err() error { return q.err }

// AddRelation registers a relation and returns its id. Relation ids are
// bitset positions; queries with ≤63 relations take the Set64 fast path
// of the enumerator and larger ones (up to MaxRelations) the wide path.
// Adding more records an error (surfaced by Validate, core.Optimize and
// the eagg facade) and returns the last valid id so fluent construction
// can continue without crashing.
func (q *Query) AddRelation(name string, card float64) int {
	if len(q.Relations) >= MaxRelations {
		q.fail(fmt.Errorf("query: too many relations (relation %q exceeds the max of %d)", name, MaxRelations))
		return len(q.Relations) - 1
	}
	q.Relations = append(q.Relations, Relation{Name: name, Card: card})
	return len(q.Relations) - 1
}

// AddAttr registers an attribute of a relation with a distinct-value count
// and returns its id. Attribute names are query-global (qualify them like
// "s.nationkey" when needed). Attribute ids are bitset positions in
// adaptive-width sets; the MaxAttrs sanity cap guards against absurd
// universes, and overflow records an error (surfaced by Validate) and
// returns the last valid id instead of panicking.
func (q *Query) AddAttr(rel int, name string, distinct float64) int {
	if len(q.AttrNames) >= MaxAttrs {
		q.fail(fmt.Errorf("query: too many attributes (attribute %q exceeds the max of %d registered attributes per query)", name, MaxAttrs))
		return len(q.AttrNames) - 1
	}
	if _, dup := q.attrByName[name]; dup {
		panic(fmt.Sprintf("query: duplicate attribute %q", name))
	}
	if distinct < 1 {
		distinct = 1
	}
	id := len(q.AttrNames)
	q.AttrNames = append(q.AttrNames, name)
	q.AttrRel = append(q.AttrRel, rel)
	q.Distinct = append(q.Distinct, distinct)
	q.Relations[rel].Attrs = q.Relations[rel].Attrs.Add(id)
	q.attrByName[name] = id
	return id
}

// AttrID resolves an attribute name; panics on unknown names (query
// construction bug, not runtime input).
func (q *Query) AttrID(name string) int {
	id, ok := q.attrByName[name]
	if !ok {
		panic(fmt.Sprintf("query: unknown attribute %q", name))
	}
	return id
}

// AddKey declares a candidate key on a relation.
func (q *Query) AddKey(rel int, attrs ...int) {
	var s bitset.VSet
	for _, a := range attrs {
		s = s.Add(a)
	}
	q.Relations[rel].Keys = append(q.Relations[rel].Keys, s)
}

// SetScanOrder declares the physical row order of a relation's data:
// ascending by the given attributes (significance order, NULLs first).
// The sort-based physical layer treats the declaration as an interesting
// order it can reuse; the merge runtime verifies it during execution.
func (q *Query) SetScanOrder(rel int, attrs ...int) {
	q.Relations[rel].Ordered = append([]int(nil), attrs...)
}

// SetGrouping installs the top grouping Γ_G;F.
func (q *Query) SetGrouping(groupBy []int, f aggfn.Vector) {
	q.GroupBy = bitset.VSet{}
	for _, a := range groupBy {
		q.GroupBy = q.GroupBy.Add(a)
	}
	q.Aggregates = f
	q.HasGrouping = true
}

// RelsOf returns the set of relations owning the given attributes.
func (q *Query) RelsOf(attrs bitset.VSet) bitset.VSet {
	// Word-level iteration instead of ForEach: the closure would force the
	// accumulator onto the heap, and this runs on the optimizer's hot path.
	var out bitset.VSet
	for w, nw := 0, attrs.NumWords(); w < nw; w++ {
		for t := attrs.Word(w); t != 0; t &= t - 1 {
			out = out.Add(q.AttrRel[w*64+bits.TrailingZeros64(t)])
		}
	}
	return out
}

// AttrsOf returns the union of attribute sets of the given relations.
func (q *Query) AttrsOf(rels bitset.VSet) bitset.VSet {
	var buf [8]uint64
	ws := buf[:1]
	for w, nw := 0, rels.NumWords(); w < nw; w++ {
		for t := rels.Word(w); t != 0; t &= t - 1 {
			ws = q.Relations[w*64+bits.TrailingZeros64(t)].Attrs.OrInto(ws)
		}
	}
	return bitset.FromWords(ws)
}

// AggSourceRels returns, per aggregate of F, the set of relations its
// arguments come from (empty for count(*)). Aggregates referencing
// groupjoin outputs are attributed to the groupjoin's source relations via
// the extra attribute registrations done by AddGroupJoinOutput.
func (q *Query) AggSourceRels() []bitset.VSet {
	out := make([]bitset.VSet, len(q.Aggregates))
	for i, a := range q.Aggregates {
		var s bitset.VSet
		for _, arg := range a.Args() {
			s = s.Add(q.AttrRel[q.AttrID(arg)])
		}
		out[i] = s
	}
	return out
}

// Validate performs structural sanity checks and returns an error
// describing the first problem found.
func (q *Query) Validate() error {
	if q.err != nil {
		return q.err
	}
	if q.Root == nil {
		return fmt.Errorf("query: missing operator tree")
	}
	rels := q.Root.Rels()
	if rels.Len() != len(q.Relations) {
		return fmt.Errorf("query: operator tree covers %d relations, catalog has %d",
			rels.Len(), len(q.Relations))
	}
	var walk func(n *OpNode) error
	walk = func(n *OpNode) error {
		if n == nil {
			return fmt.Errorf("query: nil operator node")
		}
		if n.Kind == KindScan {
			if n.Rel < 0 || n.Rel >= len(q.Relations) {
				return fmt.Errorf("query: scan of unknown relation %d", n.Rel)
			}
			return nil
		}
		if n.Pred == nil {
			return fmt.Errorf("query: %v without predicate", n.Kind)
		}
		if len(n.Pred.Left) != len(n.Pred.Right) || len(n.Pred.Left) == 0 {
			return fmt.Errorf("query: malformed predicate on %v", n.Kind)
		}
		if n.Pred.Selectivity <= 0 || n.Pred.Selectivity > 1 {
			return fmt.Errorf("query: selectivity %v out of (0,1]", n.Pred.Selectivity)
		}
		lrels, rrels := n.Left.Rels(), n.Right.Rels()
		if !q.RelsOf(n.Pred.LeftAttrs()).SubsetOf(lrels) || !q.RelsOf(n.Pred.RightAttrs()).SubsetOf(rrels) {
			return fmt.Errorf("query: predicate attributes of %v not in the matching subtrees", n.Kind)
		}
		if err := walk(n.Left); err != nil {
			return err
		}
		return walk(n.Right)
	}
	if err := walk(q.Root); err != nil {
		return err
	}
	for _, a := range q.Aggregates {
		for _, arg := range a.Args() {
			if _, ok := q.attrByName[arg]; !ok {
				return fmt.Errorf("query: aggregate references unknown attribute %q", arg)
			}
		}
	}
	var bad error
	q.GroupBy.ForEach(func(a int) {
		if a >= len(q.AttrNames) && bad == nil {
			bad = fmt.Errorf("query: group-by references unregistered attribute %d", a)
		}
	})
	if bad != nil {
		return bad
	}
	for ri := range q.Relations {
		for _, a := range q.Relations[ri].Ordered {
			if a < 0 || a >= len(q.AttrNames) || !q.Relations[ri].Attrs.Contains(a) {
				return fmt.Errorf("query: scan order of %s references attribute %d outside the relation",
					q.Relations[ri].Name, a)
			}
		}
	}
	return nil
}
