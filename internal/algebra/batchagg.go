package algebra

import (
	"math/bits"
	"slices"

	"eagg/internal/aggfn"
)

// Batch-at-a-time hash aggregation. Every aggregate of the vector picks a
// fold kernel ONCE per operator, from (aggregate kind, input column
// kinds): typed columns get monomorphic loops over []int64 / []float64 /
// []string payloads with no per-value kind dispatch; ColMixed columns,
// absent arguments and the rare aggregate forms fall back to the shared
// row-runtime accumulator core (aggCell.updateVals), which is
// bit-identical by construction.
//
// The typed kernels replicate the aggCell trajectories exactly:
//
//   - Sums use first-assignment start (the first non-NULL term is
//     assigned, not added to a zero), matching addTo — observable with
//     float -0.0: addTo(NULL, -0.0) is -0.0, while 0 + -0.0 would be
//     +0.0.
//   - A typed column fixes every term's kind, so an int column's running
//     sum stays Int and a float column's stays Float, exactly like
//     Add/Mul on uniform-kind operands; terms fold in input order, so
//     float rounding is reproduced bit for bit.
//   - Min/Max use plain </> against the current best, replicating
//     CompareStrict's NaN behavior (NaN compares r=0, keeping the
//     current best) and its -0.0 == +0.0 tie (neither < nor >, keep
//     current).

// foldKind selects the batch fold kernel of one aggregate.
type foldKind uint8

const (
	foldGeneric foldKind = iota
	foldCountStar
	foldCount
	foldSumInt
	foldSumFloat
	foldSumTimesInt   // both factors int columns
	foldSumTimesFloat // numeric factors, at least one float column
	foldSumIfInt      // SumIfNotNull with an int (or absent) arg2 column
	foldMinInt
	foldMaxInt
	foldMinFloat
	foldMaxFloat
	foldMinStr
	foldMaxStr
	foldAvgInt
	foldAvgFloat
)

// foldKindOf picks the kernel for one bound aggregate against the input
// column kinds. Any argument the aggregate reads that is absent (slot -1)
// routes to the generic kernel — correctness first, those cases are rare.
func foldKindOf(a *BoundAgg, t *ColTable) foldKind {
	kind := func(slot int) (ColKind, bool) {
		if slot < 0 {
			return 0, false
		}
		return t.Cols[slot].Kind, true
	}
	switch a.Kind {
	case aggfn.CountStar:
		return foldCountStar
	case aggfn.Count:
		if _, ok := kind(a.Arg); ok {
			return foldCount
		}
	case aggfn.Sum:
		switch k, ok := kind(a.Arg); {
		case ok && k == ColInt:
			return foldSumInt
		case ok && k == ColFloat:
			return foldSumFloat
		}
	case aggfn.SumTimes:
		k1, ok1 := kind(a.Arg)
		k2, ok2 := kind(a.Arg2)
		if ok1 && ok2 && (k1 == ColInt || k1 == ColFloat) && (k2 == ColInt || k2 == ColFloat) {
			if k1 == ColInt && k2 == ColInt {
				return foldSumTimesInt
			}
			return foldSumTimesFloat
		}
	case aggfn.SumIfNotNull:
		if _, ok := kind(a.Arg); ok {
			// Int(0) terms for NULL args keep the running sum on the Int
			// trajectory only if non-NULL terms are Int too.
			if k2, ok2 := kind(a.Arg2); !ok2 || k2 == ColInt {
				return foldSumIfInt
			}
		}
	case aggfn.Min, aggfn.Max:
		k, ok := kind(a.Arg)
		if !ok {
			return foldGeneric
		}
		mn := a.Kind == aggfn.Min
		switch k {
		case ColInt:
			if mn {
				return foldMinInt
			}
			return foldMaxInt
		case ColFloat:
			if mn {
				return foldMinFloat
			}
			return foldMaxFloat
		case ColStr:
			if mn {
				return foldMinStr
			}
			return foldMaxStr
		}
	case aggfn.Avg:
		switch k, ok := kind(a.Arg); {
		case ok && k == ColInt:
			return foldAvgInt
		case ok && k == ColFloat:
			return foldAvgFloat
		}
	}
	return foldGeneric
}

// bitmap is a flat bit set indexed by group id.
type bitmap []uint64

func (b bitmap) get(i int32) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }
func (b bitmap) set(i int32)      { b[i>>6] |= 1 << (uint(i) & 63) }

// aggState holds one aggregate's accumulators for every group of a
// grouper, struct-of-arrays and indexed by group id. A kernel allocates
// only the components it folds into (foldKind.parts), and none of the
// typed ones carries a pointer, so the collector never scans them. seen
// marks the groups whose running value a term has fixed (addTo's first
// assignment); everything else is the valid empty state — zero counts,
// NULL sums — like the zero aggCell.
type aggState struct {
	fold  foldKind // the aggregate's kernel
	count []int64
	i     []int64
	f     []float64
	seen  bitmap
	s     []string  // string min/max only
	gen   []aggCell // generic kernel only
}

// The components of an aggState.
const (
	partCount = 1 << iota
	partInt
	partFloat
	partSeen
	partStr
	partGen
)

// parts returns the aggState components kernel fk folds into.
func (fk foldKind) parts() uint8 {
	switch fk {
	case foldCountStar, foldCount:
		return partCount
	case foldSumInt, foldSumTimesInt, foldSumIfInt, foldMinInt, foldMaxInt:
		return partInt | partSeen
	case foldSumFloat, foldSumTimesFloat, foldMinFloat, foldMaxFloat:
		return partFloat | partSeen
	case foldMinStr, foldMaxStr:
		return partStr | partSeen
	case foldAvgInt:
		return partCount | partInt | partSeen
	case foldAvgFloat:
		return partCount | partFloat | partSeen
	}
	return partGen
}

// growTo extends s to at least n elements, taken from e: exactly on first
// use (callers that know their group count size once), doubling
// afterwards. A taken array's spare capacity holds stale values, so the
// elements a reslice exposes are cleared — valid empty state.
func growTo[T any](e *Exec, s []T, n int) []T {
	switch {
	case n <= len(s):
		return s
	case n <= cap(s):
		clear(s[len(s):n])
		return s[:n]
	}
	size := n
	if s != nil {
		size = 2 * n
	}
	ns := takeDirty[T](e, size)[:n]
	clear(ns[copy(ns, s):])
	return ns
}

// grow extends the kernel's components to at least ng groups.
func (st *aggState) grow(e *Exec, ng int) {
	parts := st.fold.parts()
	if parts&partCount != 0 {
		st.count = growTo(e, st.count, ng)
	}
	if parts&partInt != 0 {
		st.i = growTo(e, st.i, ng)
	}
	if parts&partFloat != 0 {
		st.f = growTo(e, st.f, ng)
	}
	if parts&partSeen != 0 {
		st.seen = growTo(e, st.seen, (ng+63)/64)
	}
	if parts&partStr != 0 {
		st.s = growTo(e, st.s, ng)
	}
	if parts&partGen != 0 {
		st.gen = growTo(e, st.gen, ng)
	}
}

// move copies the given components of src's group from into st's group
// to — the merge step of mergeGroupers.
func (st *aggState) move(parts uint8, to int32, src *aggState, from int32) {
	if parts&partCount != 0 {
		st.count[to] = src.count[from]
	}
	if parts&partInt != 0 {
		st.i[to] = src.i[from]
	}
	if parts&partFloat != 0 {
		st.f[to] = src.f[from]
	}
	if parts&partSeen != 0 && src.seen.get(from) {
		st.seen.set(to)
	}
	if parts&partStr != 0 {
		st.s[to] = src.s[from]
	}
	if parts&partGen != 0 {
		st.gen[to] = src.gen[from]
	}
}

// final produces group gi's aggregate result under kernel fk — the
// finalization of the kernels whose output column does not assemble
// straight from the arrays (averages, the generic kernel).
func (st *aggState) final(fk foldKind, a *BoundAgg, gi int32) Value {
	switch fk {
	case foldAvgInt:
		if !st.seen.get(gi) {
			return Null // Div(NULL, count) is NULL
		}
		return Div(Int(st.i[gi]), Int(st.count[gi]))
	case foldAvgFloat:
		if !st.seen.get(gi) {
			return Null
		}
		return Div(Float(st.f[gi]), Int(st.count[gi]))
	}
	return st.gen[gi].final(a)
}

// batchGrouper accumulates groups of one aggregation (one span of it,
// under a parallel sort-group). Groups are discovered per batch, then
// each aggregate's kernel folds the whole batch against the resolved
// group ids — one kernel dispatch per aggregate per batch.
type batchGrouper struct {
	e          *Exec // what the accumulators and indexes are taken from
	t          *ColTable
	groupSlots []int
	bound      []BoundAgg
	states     []aggState  // per aggregate
	ints       bool        // keys are raw int64 payloads (keyScan's int path)
	groups     *bytesIndex // encoded-key group index (hashtable.go)
	intGroups  *intIndex   // int-key group index
	// dense, when non-nil, replaces intGroups for a dense int key range
	// (dense.go): dense[key−dmin] is the key's group id plus one, 0 until
	// seen.
	dense   []int32
	dmin    int64
	nullGid int32   // the NULL int key's group id; -1 until seen
	firsts  []int32 // per group: physical index of its first row
	// sc lends the per-batch scratch (sc.rows: physical rows, sc.gids:
	// their group ids) from the first batch until finish.
	sc      *batchScratch
	scratch []byte // distinct-key scratch of the generic kernel
}

// newBatchGrouper returns an empty grouper; ints selects the int-key
// group index over the encoded-key one.
func newBatchGrouper(e *Exec, t *ColTable, groupSlots []int, bound []BoundAgg, ints bool) *batchGrouper {
	g := &batchGrouper{
		e:          e,
		t:          t,
		groupSlots: groupSlots,
		bound:      bound,
		states:     make([]aggState, len(bound)),
		ints:       ints,
		nullGid:    -1,
	}
	for i := range bound {
		g.states[i].fold = foldKindOf(&bound[i], t)
	}
	return g
}

// add folds one run of key entries; group ids are assigned in
// first-encounter order. On the int path the group key IS the int64
// payload (NULL keeps its own group, exactly the keyNull tag's), so no
// key bytes are encoded or compared, and group discovery order — and
// therefore the output's first-encounter order — matches the encoded
// path row for row.
func (g *batchGrouper) add(ents []keyEntry, arena []byte) {
	if g.groups == nil && g.intGroups == nil {
		seed := min(groupIndexSeedCap, g.t.Card())
		if g.ints {
			g.intGroups = newIntIndex(g.e, seed)
		} else {
			g.groups = newBytesIndex(g.e, seed)
		}
	}
	sc := g.resetBatch(len(ents))
	for k := range ents {
		en := &ents[k]
		next := int32(len(g.firsts))
		var id int32
		var added bool
		switch {
		case !g.ints:
			id, added = g.groups.lookupOrAdd(en.hash, en.bytes(arena), next)
		case en.klen == nullKey:
			id, added = g.nullID(next)
		default:
			id, added = g.intGroups.lookupOrAdd(en.hash, en.key, next)
		}
		if added {
			g.firsts = append(g.firsts, en.row)
		}
		sc.rows[k], sc.gids[k] = en.row, id
	}
	g.foldBatch()
}

// nullID returns the NULL int key's group id, claiming next for it on
// first encounter.
func (g *batchGrouper) nullID(next int32) (id int32, added bool) {
	if added = g.nullGid < 0; added {
		g.nullGid = next
	}
	return g.nullGid, added
}

// useDense switches the grouper to the direct-addressed index of a dense
// scan over rows rows, and sizes its arrays once instead of doubling into
// them: at most one group per key of the range and per row, plus the NULL
// key's. On a dense range that bound is close (Q3's Γ{l_orderkey}: 400k
// for 253k groups, 9 MB less allocated than by doubling) and never more
// than one group per row; where it is not — few keys far apart — the
// presized arrays go back to the free lists with the rest (recycle.go).
func (g *batchGrouper) useDense(ks *keyScan, rows int) {
	g.dense, g.dmin = take[int32](g.e, ks.span), ks.min
	bound := min(ks.span, rows) + 1
	g.firsts = takeDirty[int32](g.e, bound)[:0]
	for j := range g.states {
		g.states[j].grow(g.e, bound)
	}
}

// addDense folds one run of rows of a dense key scan, resolving group ids
// by direct addressing: no hash, no probing, no entries. Ids are claimed
// in first-encounter order exactly as add claims them, so the output is
// the same.
func (g *batchGrouper) addDense(rows []int32) {
	col := g.t.Cols[g.groupSlots[0]]
	sc := g.resetBatch(len(rows))
	copy(sc.rows, rows)
	for k, i := range rows {
		next := int32(len(g.firsts))
		var id int32
		var added bool
		if col.IsNull(int(i)) {
			id, added = g.nullID(next)
		} else {
			slot := &g.dense[col.Ints[i]-g.dmin]
			if added = *slot == 0; added {
				*slot = next + 1
			}
			id = *slot - 1
		}
		if added {
			g.firsts = append(g.firsts, i)
		}
		sc.gids[k] = id
	}
	g.foldBatch()
}

// addSingletons folds one batch of rows as one group each — the
// projection's fold: no key, no index, group id = input position.
func (g *batchGrouper) addSingletons(rows []int32) {
	sc := g.resetBatch(len(rows))
	copy(sc.rows, rows)
	for k := range rows {
		sc.gids[k] = int32(len(g.firsts) + k)
	}
	g.firsts = append(g.firsts, rows...)
	g.foldBatch()
}

// addRuns folds the equal-key runs of kr that start in entries [lo, hi),
// each to completion, as one group per run — the sort layer's fold: no
// key, no index, group id = run number. A run's rows ascend, so every
// group folds in input order exactly like under add.
func (g *batchGrouper) addRuns(kr *keyRuns, lo, hi, bs int) {
	ra, _ := slices.BinarySearch(kr.starts, int32(lo))
	rb, _ := slices.BinarySearch(kr.starts, int32(hi))
	if ra == rb {
		return
	}
	g.firsts = takeDirty[int32](g.e, rb-ra)
	for i := range g.firsts {
		g.firsts[i] = kr.rows[kr.starts[ra+i]]
	}
	run := ra
	for p, end := int(kr.starts[ra]), int(kr.starts[rb]); p < end; p += bs {
		q := min(p+bs, end)
		sc := g.resetBatch(q - p)
		copy(sc.rows, kr.rows[p:q])
		for k := range sc.gids {
			for int(kr.starts[run+1]) <= p+k {
				run++
			}
			sc.gids[k] = int32(run - ra)
		}
		g.foldBatch()
	}
}

// resetBatch returns the batch scratch sized for n rows, borrowing it on
// first use.
func (g *batchGrouper) resetBatch(n int) *batchScratch {
	if g.sc == nil {
		g.sc = batchScratchPool.Get().(*batchScratch)
	}
	g.sc.rows, g.sc.gids = slices.Grow(g.sc.rows[:0], n)[:n], slices.Grow(g.sc.gids[:0], n)[:n]
	return g.sc
}

// finish ends the adding phase: the batch scratch goes back to the pool
// and the group indexes report their final geometry and go back to e.
func (g *batchGrouper) finish(hs *HashStats) {
	if g.sc != nil {
		batchScratchPool.Put(g.sc)
		g.sc = nil
	}
	if g.groups != nil {
		g.groups.record(hs)
		g.groups.release()
	}
	if g.intGroups != nil {
		g.intGroups.record(hs)
		g.intGroups.release()
	}
	if hs != nil && g.dense != nil {
		keys := len(g.firsts)
		if g.nullGid >= 0 {
			keys--
		}
		hs.recordDense(keys, len(g.dense))
	}
}

// foldBatch extends the accumulators to the current group count and runs
// every aggregate's kernel over the batch in the scratch.
func (g *batchGrouper) foldBatch() {
	for j := range g.bound {
		g.states[j].grow(g.e, len(g.firsts))
		g.fold(j)
	}
}

// fold runs aggregate j's kernel over the batch. The hot kernels hoist
// the payload and accumulator slices out of the loop; each loop body is
// monomorphic over one payload type.
func (g *batchGrouper) fold(j int) {
	a := &g.bound[j]
	st := &g.states[j]
	rows, gids := g.sc.rows, g.sc.gids
	var col *Vector
	if a.Arg >= 0 {
		col = g.t.Cols[a.Arg]
	}
	switch st.fold {
	case foldCountStar:
		for _, gi := range gids {
			st.count[gi]++
		}
	case foldCount:
		for k, i := range rows {
			if !col.IsNull(int(i)) {
				st.count[gids[k]]++
			}
		}
	case foldSumInt:
		vals := col.Ints
		for k, i := range rows {
			if col.IsNull(int(i)) {
				continue
			}
			// Integer sums need no first-assignment branch: 0 + v is v.
			gi := gids[k]
			st.i[gi] += vals[i]
			st.seen.set(gi)
		}
	case foldSumFloat:
		vals := col.Floats
		for k, i := range rows {
			if col.IsNull(int(i)) {
				continue
			}
			if gi := gids[k]; !st.seen.get(gi) {
				st.f[gi] = vals[i]
				st.seen.set(gi)
			} else {
				st.f[gi] += vals[i]
			}
		}
	case foldSumTimesInt:
		col2 := g.t.Cols[a.Arg2]
		v1, v2 := col.Ints, col2.Ints
		for k, i := range rows {
			if col.IsNull(int(i)) || col2.IsNull(int(i)) {
				continue // Mul with a NULL factor is NULL; addTo skips it
			}
			gi := gids[k]
			st.i[gi] += v1[i] * v2[i]
			st.seen.set(gi)
		}
	case foldSumTimesFloat:
		col2 := g.t.Cols[a.Arg2]
		fac := func(c *Vector, i int32) float64 {
			if c.Kind == ColInt {
				return float64(c.Ints[i])
			}
			return c.Floats[i]
		}
		for k, i := range rows {
			if col.IsNull(int(i)) || col2.IsNull(int(i)) {
				continue
			}
			// Mul with a float operand is Float(a.AsFloat()*b.AsFloat()).
			term := fac(col, i) * fac(col2, i)
			if gi := gids[k]; !st.seen.get(gi) {
				st.f[gi] = term
				st.seen.set(gi)
			} else {
				st.f[gi] += term
			}
		}
	case foldSumIfInt:
		var col2 *Vector
		if a.Arg2 >= 0 {
			col2 = g.t.Cols[a.Arg2]
		}
		for k, i := range rows {
			var term int64 // NULL arg folds Int(0)
			if !col.IsNull(int(i)) {
				if col2 == nil || col2.IsNull(int(i)) {
					continue // non-NULL arg, NULL arg2: addTo skips
				}
				term = col2.Ints[i]
			}
			gi := gids[k]
			st.i[gi] += term
			st.seen.set(gi)
		}
	case foldMinInt, foldMaxInt:
		mn := st.fold == foldMinInt
		vals := col.Ints
		for k, i := range rows {
			if col.IsNull(int(i)) {
				continue
			}
			v := vals[i]
			if gi := gids[k]; !st.seen.get(gi) {
				st.i[gi] = v
				st.seen.set(gi)
			} else if (mn && v < st.i[gi]) || (!mn && v > st.i[gi]) {
				st.i[gi] = v
			}
		}
	case foldMinFloat, foldMaxFloat:
		mn := st.fold == foldMinFloat
		vals := col.Floats
		for k, i := range rows {
			if col.IsNull(int(i)) {
				continue
			}
			v := vals[i]
			if gi := gids[k]; !st.seen.get(gi) {
				st.f[gi] = v
				st.seen.set(gi)
			} else if (mn && v < st.f[gi]) || (!mn && v > st.f[gi]) {
				// NaN terms compare false either way — current best kept,
				// like CompareStrict's r=0 for NaN.
				st.f[gi] = v
			}
		}
	case foldMinStr, foldMaxStr:
		mn := st.fold == foldMinStr
		vals := col.Strs
		for k, i := range rows {
			if col.IsNull(int(i)) {
				continue
			}
			v := vals[i]
			if gi := gids[k]; !st.seen.get(gi) {
				st.s[gi] = v
				st.seen.set(gi)
			} else if (mn && v < st.s[gi]) || (!mn && v > st.s[gi]) {
				st.s[gi] = v
			}
		}
	case foldAvgInt:
		vals := col.Ints
		for k, i := range rows {
			if col.IsNull(int(i)) {
				continue
			}
			gi := gids[k]
			st.count[gi]++
			st.i[gi] += vals[i]
			st.seen.set(gi)
		}
	case foldAvgFloat:
		vals := col.Floats
		for k, i := range rows {
			if col.IsNull(int(i)) {
				continue
			}
			gi := gids[k]
			st.count[gi]++
			if !st.seen.get(gi) {
				st.f[gi] = vals[i]
				st.seen.set(gi)
			} else {
				st.f[gi] += vals[i]
			}
		}
	default: // foldGeneric: the shared row-runtime accumulator core
		for k, i := range rows {
			st.gen[gids[k]].updateVals(a, colValue(g.t, a.Arg, i), colValue(g.t, a.Arg2, i), colValue(g.t, a.Wgt, i), &g.scratch)
		}
	}
}

// emitTable assembles the finished groups directly as a columnar table in
// group-id order: group columns are one typed gather of the first-row
// indices each (representative grouping values are read back from each
// group's first row — the input is immutable, so they equal the values
// seen at discovery), aggregate columns come straight from the flat
// accumulator arrays — no per-group row materialization at all. Columns
// are independent, so par fans them out over the task scheduler. When
// every row of a table without a selection is a group of its own (the
// projection, a grouping on a key) the first rows are all rows in order:
// the group columns are the input's as they stand — read here, once, if
// they were still deferred.
func (g *batchGrouper) emitTable(e *Exec, s *Schema, par bool) *ColTable {
	ng := len(g.firsts)
	out := &ColTable{Schema: s, N: ng}
	w := len(g.groupSlots) + len(g.bound)
	out.Cols = make([]*Vector, w)
	vecs := make([]Vector, w) // the new columns' headers
	allRows := g.t.Sel == nil && ng == g.t.N
	if allRows {
		e.read(g.t, g.groupSlots...)
	}
	if par {
		e.forTasks(w, func(ci int) { g.emitCol(e, out, vecs, allRows, ci) })
	} else {
		for ci := range vecs {
			g.emitCol(e, out, vecs, allRows, ci)
		}
	}
	return out
}

// emitCol assembles emitTable's column ci: the input's own (allRows), or a
// new one in vecs[ci].
func (g *batchGrouper) emitCol(e *Exec, out *ColTable, vecs []Vector, allRows bool, ci int) {
	if ci < len(g.groupSlots) && g.groupSlots[ci] >= 0 && allRows {
		out.Cols[ci] = g.t.Cols[g.groupSlots[ci]]
		return
	}
	out.Cols[ci] = &vecs[ci]
	if ci >= len(g.groupSlots) {
		vecs[ci] = g.aggCol(ci - len(g.groupSlots))
	} else if slot := g.groupSlots[ci]; slot >= 0 {
		vecs[ci] = e.gatherCol(g.t.Cols[slot], g.firsts, false) // columns fan out, not rows
	} else {
		// Absent grouping attribute: an all-NULL column, like the
		// untyped colBuilder produces.
		var b colBuilder
		for range out.N {
			b.append(Null)
		}
		vecs[ci] = b.finish()
	}
}

// aggCol materializes aggregate j's output column. Counts and the
// int/float/string running values of the typed kernels ARE the column
// payload (unseen groups still hold their zero placeholders, and the
// NULL bitmap is the complement of seen); averages and the generic
// kernel route through final (and the colBuilder) for the exact
// row-runtime finalization.
func (g *batchGrouper) aggCol(j int) Vector {
	ng := len(g.firsts)
	st := &g.states[j]
	st.grow(g.e, ng) // a grouper that never saw a batch has no arrays yet
	var v Vector
	switch st.fold {
	case foldCountStar, foldCount:
		return Vector{Kind: ColInt, Ints: st.count[:ng:ng]}
	case foldSumInt, foldSumTimesInt, foldSumIfInt, foldMinInt, foldMaxInt:
		v = Vector{Kind: ColInt, Ints: st.i[:ng:ng]}
	case foldSumFloat, foldSumTimesFloat, foldMinFloat, foldMaxFloat:
		v = Vector{Kind: ColFloat, Floats: st.f[:ng:ng]}
	case foldMinStr, foldMaxStr:
		v = Vector{Kind: ColStr, Strs: st.s[:ng:ng]}
	default:
		var b colBuilder
		for gi := 0; gi < ng; gi++ {
			b.append(st.final(st.fold, &g.bound[j], int32(gi)))
		}
		return b.finish()
	}
	nulls := takeDirty[uint64](g.e, (ng+63)/64)
	hasNull := false
	for w, seen := range st.seen[:len(nulls)] {
		nulls[w] = ^seen
		if w == len(nulls)-1 && ng&63 != 0 {
			nulls[w] &= 1<<(uint(ng)&63) - 1
		}
		hasNull = hasNull || nulls[w] != 0
	}
	if hasNull {
		v.Nulls = nulls
	}
	return v
}

// mergeGroupers combines the span groupers of one parallel sort-group
// (BatchSortGroup, sort.go) into a single grouper whose group ids ascend
// with the groups' first input rows — first-encounter order, whatever span
// folded a group. First rows are distinct physical indices, so a group's
// id is simply the rank of its first row among all of them: one bitmap
// over the input marks them, a running popcount ranks them (that is the
// whole permutation), and every accumulator moves to its rank in one typed
// pass per aggregate, fanned out over the aggregates. No rows, no
// comparison sort.
func (e *Exec) mergeGroupers(spans []*batchGrouper, t *ColTable, groupSlots []int, bound []BoundAgg) *batchGrouper {
	marks := bitmap(take[uint64](e, (t.N+63)/64))
	ng := 0
	for _, g := range spans {
		ng += len(g.firsts)
		for _, f := range g.firsts {
			marks.set(f)
		}
	}
	below := takeDirty[int32](e, len(marks)) // marked rows in earlier words
	for w, n := 0, int32(0); w < len(marks); w++ {
		below[w] = n
		n += int32(bits.OnesCount64(marks[w]))
	}
	out := newBatchGrouper(e, t, groupSlots, bound, false)
	out.firsts = takeDirty[int32](e, ng)
	perm := takeDirty[int32](e, ng)[:0] // the groups' ranks, span by span
	for _, g := range spans {
		for _, f := range g.firsts {
			r := below[f>>6] + int32(bits.OnesCount64(marks[f>>6]&(1<<(uint(f)&63)-1)))
			out.firsts[r] = f
			perm = append(perm, r)
		}
	}
	e.forTasks(len(bound), func(j int) {
		st := &out.states[j]
		comps := st.fold.parts()
		st.grow(e, ng)
		to := perm
		for _, g := range spans {
			for li := range g.firsts {
				st.move(comps, to[li], &g.states[j], int32(li))
			}
			to = to[len(g.firsts):]
		}
	})
	return out
}

// BatchHashGroup is typed hash aggregation on the batch runtime: one
// output row per distinct grouping key in first-encounter order, exactly
// HashGroup's contract. One grouper discovers and folds the groups batch
// by batch in input order, on the calling goroutine at every size — a
// dense key through its gid array, any other through its key index
// (DESIGN.md "One goroutine, by measurement"); only the emit fans out.
func (e *Exec) BatchHashGroup(t *ColTable, a *Aggregation) *ColTable {
	n := t.Card()
	e.readAggs(t, a.Aggs, a.Groups...)
	ks := newKeyScan(t, a.Groups, false)
	g := newBatchGrouper(e, t, a.Groups, a.Aggs, ks.col != nil)
	if ks.dense {
		g.useDense(ks, n)
	}
	ks.feed(g, n, e.batchSize())
	g.finish(e.hashStats())
	return g.emitTable(e, a.Out, e.parForBatch(n))
}

// BatchProject evaluates an aggregation vector over groups the caller
// knows to be single rows — the projection that replaces a final
// grouping whose key is a key of its duplicate-free input. Every row
// folds as its own group through the same kernels and the same emit as
// BatchHashGroup, whose output it reproduces exactly (input order is
// first-encounter order) without hashing anything.
func (e *Exec) BatchProject(t *ColTable, a *Aggregation) *ColTable {
	e.readAggs(t, a.Aggs)
	g := newBatchGrouper(e, t, a.Groups, a.Aggs, false)
	bs := e.batchSize()
	n := t.Card()
	g.firsts = takeDirty[int32](e, n)[:0]
	for j := range g.states {
		g.states[j].grow(e, n)
	}
	var rows []int32
	for b := 0; b < n; b += bs {
		rows = t.physBatch(b, min(b+bs, n), rows)
		g.addSingletons(rows)
	}
	g.finish(nil)
	return g.emitTable(e, a.Out, e.parForBatch(n))
}

// Aggregation is an aggregation vector resolved against its input schema
// ahead of execution, so the batch aggregation operators resolve no name.
type Aggregation struct {
	Groups []int      // the grouping attributes' input slots (-1: absent, reads NULL)
	Aggs   []BoundAgg // the vector bound to the input schema
	Out    *Schema    // the grouping attributes, then the vector's outputs
}

// BindAggregation resolves the grouping of an input with schema in by
// groupBy, computing f.
func BindAggregation(in *Schema, groupBy []string, f aggfn.Vector) *Aggregation {
	names := make([]string, 0, len(groupBy)+len(f))
	names = append(names, groupBy...)
	names = append(names, f.Outs()...)
	return &Aggregation{Groups: in.Slots(groupBy), Aggs: BindVector(f, in), Out: NewSchema(names)}
}

// BatchExtendProduct appends the product column of the slot values (the
// engine's weight-product extension): Int(1) times every slot value, NULL
// if any factor is NULL — exactly Mul's trajectory. s is t's schema
// extended by the product's name. All-int inputs (the engine's weights
// always are) run a typed kernel; anything else folds Values through Mul
// itself.
func (e *Exec) BatchExtendProduct(t *ColTable, s *Schema, slots []int) *ColTable {
	e.read(t, slots...)
	// The product is dense over t's logical rows; t's columns stay views.
	out := e.extended(t, s)
	allInt, anyNulls := true, false
	for _, s := range slots {
		allInt = allInt && t.Cols[s].Kind == ColInt
		anyNulls = anyNulls || t.Cols[s].Nulls != nil
	}
	n := t.Card()
	if !allInt {
		var b colBuilder
		for i := 0; i < n; i++ {
			v := Int(1)
			for _, s := range slots {
				v = Mul(v, t.Cols[s].Value(int(t.phys(i))))
			}
			b.append(v)
		}
		v := b.finish()
		out.addDense(&v)
		return out
	}
	v := &Vector{Kind: ColInt, Ints: take[int64](e, n)}
	if !anyNulls {
		e.forSpans(n, e.parForBatch(n), func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				p, prod := t.phys(i), int64(1)
				for _, s := range slots {
					prod *= t.Cols[s].Ints[p]
				}
				v.Ints[i] = prod
			}
		})
		out.addDense(v)
		return out
	}
	// NULL factors are absorbing (Mul(_, NULL) is NULL). Sequential:
	// morsel spans share bitmap words, so a parallel fill would race.
	nulls := take[uint64](e, (n+63)/64)
	for i := 0; i < n; i++ {
		p, prod, null := int(t.phys(i)), int64(1), false
		for _, s := range slots {
			null = null || t.Cols[s].IsNull(p)
			prod *= t.Cols[s].Ints[p]
		}
		if null {
			nulls[i>>6] |= 1 << (uint(i) & 63)
			v.Nulls = nulls
		} else {
			v.Ints[i] = prod
		}
	}
	out.addDense(v)
	return out
}
