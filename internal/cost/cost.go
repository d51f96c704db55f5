// Package cost implements the logical property estimator: the cardinality
// model, the candidate-key inference rules of Sec. 2.3, duplicate-freeness
// tracking, and the C_out cost function of Sec. 4.4:
//
//	C_out(T) = 0                                if T is a single table
//	         = |T| + C_out(T1) + C_out(T2)      if T = T1 ◦ T2
//	         = |T| + C_out(T1)                  if T = Γ(T1)
//
// All plan nodes are created through an Estimator so that every plan in
// the DP table carries consistent properties.
package cost

import (
	"math/bits"

	"eagg/internal/bitset"
	"eagg/internal/fd"
	"eagg/internal/plan"
	"eagg/internal/query"
)

// maxKeys caps the candidate-key lists carried per plan; beyond this the
// pairwise union rule would grow quadratically with no practical benefit.
const maxKeys = 8

// Estimator computes logical properties against a query's statistics.
type Estimator struct {
	Q *query.Query

	// preds caches every predicate of the query with its relation set,
	// for canonical set-level cardinalities. The cache is split by key
	// width: sets fitting the inline word (every ≤63-relation query) key
	// a uint64 map, the wide remainder keys the VSet map — struct keys
	// with a string field hash noticeably slower on the estimate path.
	preds   []predInfo
	canonLo map[uint64]float64
	canon   map[bitset.VSet]float64

	// local is the query's subplan-local dependency analysis (fd.Local),
	// the one place the query's dependencies live: the join key cap
	// (EstimateOp), the order inference of the sort layer (phys.go),
	// EA-Prune's dominance test and the final-grouping elimination all
	// read it.
	local fd.Local

	// Source overrides operator output cardinalities by canonical key
	// (see CardKey) with those measured during an execution; nil (the
	// default) is the pure selectivity model. The source is consulted for
	// every operator and grouping estimate, so all plans in one DP run
	// see a consistent view.
	Source *FeedbackOverlay
}

type predInfo struct {
	rels bitset.VSet
	sel  float64
}

// NewEstimator returns an estimator for the query on the pure selectivity
// model (a nil Source).
func NewEstimator(q *query.Query) *Estimator {
	e := &Estimator{Q: q, canonLo: map[uint64]float64{}, canon: map[bitset.VSet]float64{}, local: fd.NewLocal(q)}
	var walk func(n *query.OpNode)
	walk = func(n *query.OpNode) {
		if n == nil || n.Kind == query.KindScan {
			return
		}
		e.preds = append(e.preds, predInfo{
			rels: q.RelsOf(n.Pred.Attrs()),
			sel:  n.Pred.Selectivity,
		})
		walk(n.Left)
		walk(n.Right)
	}
	walk(q.Root)
	return e
}

// Clone returns an estimator sharing the immutable query analysis (the
// predicate list, the dependency analysis and the cardinality source never
// change during an optimization) but owning a private canonical-cardinality
// cache. Concurrent optimizer workers each estimate through their own
// clone, so the hot path needs no synchronization; cached values are pure
// functions of the query, so every clone stays numerically identical to
// the original.
func (e *Estimator) Clone() *Estimator {
	return &Estimator{
		Q:       e.Q,
		preds:   e.preds,
		canonLo: make(map[uint64]float64, len(e.canonLo)),
		canon:   make(map[bitset.VSet]float64, len(e.canon)),
		local:   e.local,
		Source:  e.Source,
	}
}

// Local returns the query's subplan-local dependency analysis.
func (e *Estimator) Local() *fd.Local { return &e.local }

// CanonCard is the canonical (plan-independent) cardinality of a relation
// set: base cardinalities times the selectivities of all internal
// predicates. Semijoin and antijoin match fractions and the padded tuples
// of the outer joins are computed against this value rather than the
// concrete other plan's cardinality — the match semantics depend on the
// other side's value set, not on how the plan shaped it, and a
// plan-dependent value would make those estimates anti-monotone (a pushed
// grouping would invent unmatched tuples) and break the dominance pruning
// of Sec. 4.6.
func (e *Estimator) CanonCard(s bitset.VSet) float64 {
	if lo, narrow := s.Lo(); narrow {
		if c, ok := e.canonLo[lo]; ok {
			return c
		}
		c := e.canonCardSlow(s)
		e.canonLo[lo] = c
		return c
	}
	if c, ok := e.canon[s]; ok {
		return c
	}
	c := e.canonCardSlow(s)
	e.canon[s] = c
	return c
}

func (e *Estimator) canonCardSlow(s bitset.VSet) float64 {
	c := 1.0
	for w, nw := 0, s.NumWords(); w < nw; w++ {
		for t := s.Word(w); t != 0; t &= t - 1 {
			c *= e.Q.Relations[w*64+bits.TrailingZeros64(t)].Card
		}
	}
	for _, p := range e.preds {
		if p.rels.SubsetOf(s) {
			c *= p.sel
		}
	}
	return maxf(1, c)
}

// Scan builds a leaf plan for a base relation: EstimateScan into a fresh
// allocation.
func (e *Estimator) Scan(rel int) *plan.Plan {
	p := new(plan.Plan)
	e.EstimateScan(p, rel)
	return p
}

// EstimateScan estimates the scan of a base relation into dst, under the
// buffer contract of EstimateOp. Scanning is free under C_out (the scan
// cost would be the same constant in every plan).
func (e *Estimator) EstimateScan(dst *plan.Plan, rel int) {
	r := e.Q.Relations[rel]
	dst.Kind, dst.Op, dst.Final, dst.DupFree = plan.NodeScan, query.KindScan, false, len(r.Keys) > 0
	dst.Rels, dst.Rel, dst.Preds, dst.Left, dst.Right = bitset.SingleV(rel), rel, nil, nil, nil
	dst.GroupBy, dst.GroupsBelow = bitset.VSet{}, bitset.VSet{}
	dst.Card, dst.Cost = r.Card, 0
	dst.Keys = capKeys(dst.Keys[:0], r.Keys)
	dst.Profile = append(dst.Profile[:0], r.Card)
	clearPhys(dst)
}

// clearPhys zeroes a node's physical properties, which every estimate
// leaves to the Physify methods (phys.go).
func clearPhys(p *plan.Plan) {
	p.Phys, p.SortL, p.SortR = plan.PhysHash, false, false
	p.MergeL, p.MergeR, p.Ord, p.PhysCost = nil, nil, nil, 0
}

// Distinct returns the distinct-value estimate of an attribute within a
// subplan. The base distinct count is capped by the cardinality of *every*
// intermediate result along the attribute's path through the plan: once a
// selective join shrank the rows carrying the attribute, later fan-out
// joins cannot re-create lost values. This propagation is what lets the
// estimator see that grouping a customer⨝orders⨝lineitem intermediate by
// c_custkey collapses to the number of participating customers.
func (e *Estimator) Distinct(attr int, p *plan.Plan) float64 {
	d := e.Q.Distinct[attr]
	if rel := e.Q.AttrRel[attr]; p != nil && p.Rels.Contains(rel) {
		d = minf(d, e.RelPathCard(rel, p))
	}
	return maxf(1, d)
}

// JoinPreds bundles the predicates one operator applies with what every
// estimate of that operator reads from them: the combined selectivity and
// the attribute sets of the two predicate sides. The plan generator fills
// one per (csg-cmp-pair, operator) and estimates every candidate tree of
// the pair against it.
type JoinPreds struct {
	Preds  []*query.Predicate
	sel    float64
	a1, a2 bitset.VSet
	// cl[0] and cl[1] hold the closures of a1 and a2 that EstimateOp's
	// key cap last computed (see sideKey).
	cl [2]sideClosure
}

// sideClosure is the closure of one side's join attributes under the
// dependencies of the plans over rels, as attribute words; grew reports
// that it holds more than the attributes themselves.
type sideClosure struct {
	rels  bitset.VSet
	words []uint64
	grew  bool
}

// Reset empties jp for the next operator, keeping its buffers.
func (jp *JoinPreds) Reset() {
	*jp = JoinPreds{Preds: jp.Preds[:0], sel: 1, cl: [2]sideClosure{{words: jp.cl[0].words}, {words: jp.cl[1].words}}}
}

// Add appends one predicate; left and right are p.LeftAttrs() and
// p.RightAttrs(), which a caller adding the same predicate for every pair
// it connects computes once.
func (jp *JoinPreds) Add(p *query.Predicate, left, right bitset.VSet) {
	jp.Preds = append(jp.Preds, p)
	jp.sel *= p.Selectivity
	jp.a1 = jp.a1.Union(left)
	jp.a2 = jp.a2.Union(right)
}

// Op builds a binary operator node: EstimateOp into a fresh allocation.
func (e *Estimator) Op(kind query.OpKind, preds []*query.Predicate, left, right *plan.Plan) *plan.Plan {
	var jp JoinPreds
	jp.Reset()
	for _, p := range preds {
		jp.Add(p, p.LeftAttrs(), p.RightAttrs())
	}
	p := new(plan.Plan)
	e.EstimateOp(p, kind, &jp, left, right)
	return p
}

// EstimateOp estimates the binary operator kind(left, right) into dst:
// every logical property a retention policy reads — cardinality, C_out,
// keys, duplicate-freeness, collapse state, path cardinalities — with
// dst.Keys and dst.Profile written into dst's own buffers, so estimating
// into a reused scratch node allocates nothing. Every estimate sets the
// fields it defines and zeroes the rest, field by field: a node is too
// large to build as a literal and copy per candidate. The inputs may
// themselves be scratch estimates; the caller copies dst (and them) only
// if the candidate survives. dst must not be one of its own inputs.
//
// The cardinality model is kept consistent with the key inference: when a
// side's join attributes imply one of its candidate keys, every tuple of
// the other side matches at most one tuple there, so the match count is
// capped by the other side's cardinality. Without this cap the key rules
// of Sec. 2.3 would declare keys that the cardinalities contradict, and
// NeedsGrouping would skip groupings as "waste" that are anything but.
// "Imply" is read under the side's subplan-local dependencies (fd.Local),
// the relation EA-Prune's dominance compares keys by: a plan whose keys
// imply another's must see the cap wherever that one does, or a join over
// the dominator could estimate larger than over the dominated plan.
func (e *Estimator) EstimateOp(dst *plan.Plan, kind query.OpKind, jp *JoinPreds, left, right *plan.Plan) {
	sel := jp.sel
	leftKey := e.sideKey(&jp.cl[0], jp.a1, left)   // A1 implies a key of e1
	rightKey := e.sideKey(&jp.cl[1], jp.a2, right) // A2 implies a key of e2

	inner := left.Card * right.Card * sel
	if leftKey {
		inner = minf(inner, right.Card)
	}
	if rightKey {
		inner = minf(inner, left.Card)
	}
	// Whether a tuple finds a partner depends on the other side's value
	// set, not on how its plan shaped it, so the match fraction of the
	// existence-style operators (N, T) and the padded tuples of the outer
	// joins are computed against the other side's canonical cardinality
	// (see CanonCard).
	unmatched := func(side, other *plan.Plan) float64 {
		return side.Card * maxf(0, 1-e.CanonCard(other.Rels)*sel)
	}

	var card float64
	switch kind {
	case query.KindJoin:
		card = inner
	case query.KindSemiJoin:
		card = left.Card * minf(1, e.CanonCard(right.Rels)*sel)
	case query.KindAntiJoin:
		card = unmatched(left, right)
	case query.KindLeftOuter:
		card = inner + unmatched(left, right)
	case query.KindFullOuter:
		card = inner + unmatched(left, right) + unmatched(right, left)
	case query.KindGroupJoin:
		card = left.Card
	default:
		panic("cost: unsupported operator kind")
	}
	card = maxf(1, card)

	// The collapse state below the operator: for left-only operators the
	// right side contributes a value set, which grouping cannot change,
	// so its groupings do not shape this output (and canonicalizing them
	// away lets a measurement taken with an ungrouped right side correct
	// plans that group it, and vice versa).
	groupsBelow := left.GroupsBelow
	if !kind.LeftOnly() {
		groupsBelow = groupsBelow.Union(right.GroupsBelow)
	}
	rels := left.Rels.Union(right.Rels)
	// Measured cardinalities (when the source carries feedback for this
	// canonical operator) replace the model estimate, un-clamped: a
	// measured empty intermediate is a real 0, not a 1.
	card = e.sourceCard(CardKey{Rels: rels, Group: groupsBelow}, card)

	dst.Kind, dst.Op, dst.Final, dst.DupFree = plan.NodeOp, kind, false, opDupFree(kind, left, right)
	dst.Rels, dst.Rel, dst.Preds, dst.Left, dst.Right = rels, 0, jp.Preds, left, right
	dst.GroupBy, dst.GroupsBelow = bitset.VSet{}, groupsBelow
	dst.Card, dst.Cost = card, card+left.Cost+right.Cost
	dst.Keys = opKeys(dst.Keys[:0], kind, leftKey, rightKey, left, right)
	clearPhys(dst)
	// The path-cardinality vector, merged from the children's in
	// ascending relation order: each relation's entry is its entry below
	// capped by this node's cardinality.
	path, li, ri := dst.Profile[:0], 0, 0
	for w, nw := 0, rels.NumWords(); w < nw; w++ {
		for t := rels.Word(w); t != 0; t &= t - 1 {
			var c float64
			if left.Rels.Contains(w*64 + bits.TrailingZeros64(t)) {
				c = left.Profile[li]
				li++
			} else {
				c = right.Profile[ri]
				ri++
			}
			path = append(path, minf(c, card))
		}
	}
	dst.Profile = path
}

// sideKey reports whether attrs, one side's join attributes, imply a key
// of p, the plan on that side: whether a key of p lies in their closure
// under the dependencies of the plans over p.Rels. The closure depends on
// the pair's predicates and p.Rels only, so c keeps it for every candidate
// of the pair with that side; a key inside attrs needs no closure, and
// over one relation the closure only adds its attributes to attrs holding
// one of its keys, which is then a key of p inside attrs.
func (e *Estimator) sideKey(c *sideClosure, attrs bitset.VSet, p *plan.Plan) bool {
	if p.HasKeySubsetOf(attrs) {
		return true
	}
	if len(p.Keys) == 0 || p.Rels.IsSingleton() {
		return false
	}
	if c.rels != p.Rels {
		c.rels = p.Rels
		c.words = e.local.CloseInto(c.words[:0], p.Rels, attrs)
		n := 0
		for _, w := range c.words {
			n += bits.OnesCount64(w)
		}
		c.grew = n > attrs.Len()
	}
	return c.grew && p.HasKeyInWords(c.words)
}

// opKeys implements the key-inference rules of Sec. 2.3, writing into dst.
func opKeys(dst []bitset.VSet, kind query.OpKind, leftKey, rightKey bool, left, right *plan.Plan) []bitset.VSet {
	switch kind {
	case query.KindSemiJoin, query.KindAntiJoin, query.KindGroupJoin:
		// Only left attributes survive; result keys are the left keys
		// (Sec. 2.3.4).
		return capKeys(dst, left.Keys)
	case query.KindJoin:
		switch {
		case leftKey && rightKey:
			return capKeys(dst, left.Keys, right.Keys)
		case leftKey:
			return capKeys(dst, right.Keys)
		case rightKey:
			return capKeys(dst, left.Keys)
		}
	case query.KindLeftOuter:
		if rightKey {
			return capKeys(dst, left.Keys)
		}
	}
	return pairwiseKeys(dst, left.Keys, right.Keys)
}

// opDupFree: joins of duplicate-free inputs are duplicate-free; the
// left-only operators preserve the left input's duplicate-freeness.
func opDupFree(kind query.OpKind, left, right *plan.Plan) bool {
	switch kind {
	case query.KindSemiJoin, query.KindAntiJoin, query.KindGroupJoin:
		return left.DupFree
	default:
		return left.DupFree && right.DupFree
	}
}

// Group builds a pushed-down grouping Γ_{G⁺} on top of child:
// EstimateGroup into a fresh allocation.
func (e *Estimator) Group(child *plan.Plan, groupBy bitset.VSet) *plan.Plan {
	p := new(plan.Plan)
	e.EstimateGroup(p, child, groupBy)
	return p
}

// EstimateGroup estimates Γ_groupBy(child) into dst, under the buffer
// contract of EstimateOp.
func (e *Estimator) EstimateGroup(dst, child *plan.Plan, groupBy bitset.VSet) {
	// A grouping's output — the distinct G-combinations over the child's
	// relation set — is invariant under join order and under groupings
	// below, so its canonical key ignores the child's collapse state.
	card := e.sourceCard(CardKey{Rels: child.Rels, Group: groupBy, IsGroup: true}, e.groupCard(child, groupBy))
	dst.Kind, dst.Op, dst.Final, dst.DupFree = plan.NodeGroup, query.KindScan, false, true
	dst.Rels, dst.Rel, dst.Preds, dst.Left, dst.Right = child.Rels, 0, nil, child, nil
	dst.GroupBy, dst.GroupsBelow = groupBy, child.GroupsBelow.Union(groupBy)
	dst.Card, dst.Cost = card, card+child.Cost
	dst.Keys = groupKeys(dst.Keys[:0], child, groupBy)
	dst.Profile = capPath(dst.Profile[:0], child.Profile, card)
	clearPhys(dst)
}

// capPath appends the child's path cardinalities, capped by the unary
// node's own cardinality.
func capPath(dst, child []float64, card float64) []float64 {
	for _, c := range child {
		dst = append(dst, minf(c, card))
	}
	return dst
}

// sourceCard resolves one operator cardinality through the estimator's
// Source; without one it returns the model estimate unchanged.
func (e *Estimator) sourceCard(key CardKey, model float64) float64 {
	if e.Source == nil {
		return model
	}
	return e.Source.Card(key, model)
}

// Project builds the duplicate-preserving projection replacing an
// unnecessary final grouping (Sec. 3.2): EstimateProject into a fresh
// allocation.
func (e *Estimator) Project(child *plan.Plan) *plan.Plan {
	p := new(plan.Plan)
	e.EstimateProject(p, child)
	return p
}

// EstimateProject estimates the projection into dst, under the buffer
// contract of EstimateOp; it is free under C_out.
func (e *Estimator) EstimateProject(dst, child *plan.Plan) {
	dst.Kind, dst.Op, dst.Final, dst.DupFree = plan.NodeProject, query.KindScan, false, child.DupFree
	dst.Rels, dst.Rel, dst.Preds, dst.Left, dst.Right = child.Rels, 0, nil, child, nil
	dst.GroupBy, dst.GroupsBelow = bitset.VSet{}, child.GroupsBelow
	dst.Card, dst.Cost = child.Card, child.Cost
	dst.Keys = capKeys(dst.Keys[:0], child.Keys)
	dst.Profile = capPath(dst.Profile[:0], child.Profile, child.Card)
	clearPhys(dst)
}

// groupCard estimates |Γ_G(e)| = min(|e|, Π d); the distinct product is
// computed per owning relation, capping each relation's contribution by
// that relation's path-capped row count: the attributes of one relation
// cannot form more combinations than the relation has surviving rows
// (c_custkey and c_name never multiply). Grouping on ∅ yields one group.
func (e *Estimator) groupCard(child *plan.Plan, groupBy bitset.VSet) float64 {
	card := 1.0
	rels := e.Q.RelsOf(groupBy)
	for w, nw := 0, rels.NumWords(); w < nw; w++ {
		for t := rels.Word(w); t != 0; t &= t - 1 {
			rel := w*64 + bits.TrailingZeros64(t)
			// One path lookup per relation: each attribute's distinct count
			// is its base count capped by the relation's surviving rows.
			contained := child.Rels.Contains(rel)
			pathCard := e.RelPathCard(rel, child)
			relProd := 1.0
			ra := groupBy.Intersect(e.Q.Relations[rel].Attrs)
			for w2, nw2 := 0, ra.NumWords(); w2 < nw2; w2++ {
				for t2 := ra.Word(w2); t2 != 0; t2 &= t2 - 1 {
					d := e.Q.Distinct[w2*64+bits.TrailingZeros64(t2)]
					if contained {
						d = minf(d, pathCard)
					}
					relProd *= maxf(1, d)
				}
			}
			card *= minf(relProd, pathCard)
		}
	}
	return maxf(1, minf(card, child.Card))
}

// RelPathCard is the smallest cardinality of any subplan containing the
// relation — an upper bound on how many of the relation's rows survive in
// the result, and hence on the distinct combinations of its attributes.
// Every node this estimator builds carries the values in its
// path-cardinality vector (Plan.Profile, indexed by the relation's rank in
// Rels); the walk below is the definition, kept for nodes without one.
func (e *Estimator) RelPathCard(rel int, p *plan.Plan) float64 {
	if p == nil || !p.Rels.Contains(rel) {
		return e.Q.Relations[rel].Card
	}
	if len(p.Profile) > 0 {
		return p.Profile[p.Rels.Rank(rel)]
	}
	switch p.Kind {
	case plan.NodeScan:
		return p.Card
	case plan.NodeOp:
		var c float64
		if p.Left.Rels.Contains(rel) {
			c = e.RelPathCard(rel, p.Left)
		} else {
			c = e.RelPathCard(rel, p.Right)
		}
		return minf(c, p.Card)
	default:
		return minf(e.RelPathCard(rel, p.Left), p.Card)
	}
}

// groupKeys: the grouping attributes are a key of the result, and keys of
// the child contained in G remain keys.
func groupKeys(dst []bitset.VSet, child *plan.Plan, groupBy bitset.VSet) []bitset.VSet {
	out := addKey(dst[:0], groupBy)
	for _, k := range child.Keys {
		if k.SubsetOf(groupBy) && k != groupBy {
			if out = addKey(out, k); len(out) >= maxKeys {
				break
			}
		}
	}
	return out
}

// pairwiseKeys combines keys k1 ∪ k2 per Sec. 2.3's fallback rule.
func pairwiseKeys(dst, a, b []bitset.VSet) []bitset.VSet {
	out := dst[:0]
	for _, k1 := range a {
		for _, k2 := range b {
			out = append(out, k1.Union(k2))
			if len(out) >= maxKeys {
				return out
			}
		}
	}
	return out
}

// capKeys writes the minimal form of the concatenated key lists into dst:
// duplicates and dominated keys dropped, at most maxKeys kept.
func capKeys(dst []bitset.VSet, lists ...[]bitset.VSet) []bitset.VSet {
	out := dst[:0]
	for _, keys := range lists {
		for _, k := range keys {
			if out = addKey(out, k); len(out) >= maxKeys {
				return out
			}
		}
	}
	return out
}

// addKey folds k into the minimal key list out: a key that is a superset
// of another key carries no extra information, so k is skipped when a
// listed key implies it and evicts the listed keys it implies.
func addKey(out []bitset.VSet, k bitset.VSet) []bitset.VSet {
	for _, o := range out {
		if o.SubsetOf(k) {
			return out
		}
	}
	kept := out[:0]
	for _, o := range out {
		if !k.SubsetOf(o) {
			kept = append(kept, o)
		}
	}
	return append(kept, k)
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
