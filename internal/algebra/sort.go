package algebra

// Sort-based physical operators: sort-merge equi-joins
// (inner/semi/anti/leftouter) and sort-group aggregation over columnar
// tables — the second physical layer beside the hash operators. The row
// runtime's MergeTables and SortGroup are Columnar() → batch operator →
// Table() wrappers around the same code.
//
// Every operator here emits the *hash-canonical output sequence*: the
// exact row order its hash counterpart produces (probe rows in input
// order with matches in build-input order; groups in first-encounter
// order, every group folded in input order). Sortedness is exploited
// internally — to find join partners by merging instead of hashing, and
// to assign group ids by run instead of by hash lookup — but never leaks
// into the output order. Two consequences:
//
//   - results are bit-identical to the hash layer for every operator,
//     every worker count and every input, float aggregation included,
//     so the whole differential-testing story of the runtime carries
//     over unchanged; and
//   - an operator's output keeps its left/probe input's physical order,
//     which is exactly the contractual order propagation the optimizer
//     assumes (internal/ordering): orders originate at sorted scans and
//     survive through the sort-based layer.
//
// A sort input is reduced to its participating physical rows plus a
// sortKey over the key columns; rows are never materialized. An
// all-ColInt key — every key TPC-H has — becomes one uint64 id per row:
// every column less its minimum, bit-packed with the first column most
// significant (packKey). Ids whose range is at most denseMultiple × rows
// are counting-sorted through the hash layer's sortPostings, wider ones
// radix-sorted over their bytes; the runs and their key tuples are read
// off the ids, and the keys compare as raw int64 payloads everywhere
// else. Ids that do not fit 62 bits, and float, string and ColMixed
// columns, take one comparator over Vectors (cmpKeys) that is
// compareJoinValue/compareGroupValue applied column-wise. Either way rows
// end up ordered by (key, row): the order is total, so the permutation is
// unique and identical for every worker count and morsel geometry.
//
// When an input's sort is *eliminated* (the optimizer proved its
// contractual order covers the requirement), the operator does not trust
// the claim: it checks non-decreasing keys on the same typed key and
// fails the execution on a violated declaration — a wrong scan-order
// declaration is an error, never a wrong result.

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"

	"eagg/internal/aggfn"
)

// ---------------------------------------------------------------------
// Comparators
// ---------------------------------------------------------------------

// compareJoinValue is the total order behind merge joins. Its equality
// coincides with join-key equality (strict, numeric across int/float —
// Int(2) = Float(2.0), like appendJoinKey's normalization); NULL and NaN
// never reach it (rows with such keys are filtered like in the hash
// operators). Mixed number/string keys order numbers first — consistent
// on both sides, which is all a merge needs.
func compareJoinValue(a, b Value) int {
	as, bs := a.Kind == KindString, b.Kind == KindString
	if as || bs {
		if as && bs {
			return strings.Compare(a.S, b.S)
		}
		if bs {
			return -1 // number < string
		}
		return 1
	}
	if a.Kind == KindInt && b.Kind == KindInt {
		switch {
		case a.I < b.I:
			return -1
		case a.I > b.I:
			return 1
		}
		return 0
	}
	af, bf := a.AsFloat(), b.AsFloat()
	switch {
	case af < bf:
		return -1
	case af > bf:
		return 1
	}
	return 0
}

// compareGroupValue is the total order behind sort-group aggregation.
// Its equality coincides with grouping equality (NULL = NULL, all NaNs
// one group, otherwise kind- and bit-sensitive like appendRowKey): values
// that hash aggregation keeps apart never compare equal here.
func compareGroupValue(a, b Value) int {
	ra, rb := groupRank(a), groupRank(b)
	if ra != rb {
		return ra - rb
	}
	switch ra {
	case 0, 1: // both NULL / both NaN
		return 0
	case 3:
		return strings.Compare(a.S, b.S)
	}
	if c := compareJoinValue(a, b); c != 0 {
		return c
	}
	// Numerically equal but kind-sensitive: Int(2) before Float(2.0).
	if c := int(a.Kind) - int(b.Kind); c != 0 || a.Kind != KindFloat {
		return c
	}
	// -0.0 and +0.0 encode differently, so they are two groups: -0.0 first.
	switch sa := math.Signbit(a.F); {
	case sa == math.Signbit(b.F):
		return 0
	case sa:
		return -1
	}
	return 1
}

func groupRank(v Value) int {
	switch v.Kind {
	case KindNull:
		return 0
	case KindString:
		return 3
	case KindFloat:
		if math.IsNaN(v.F) {
			return 1
		}
	}
	return 2
}

// ---------------------------------------------------------------------
// Sort keys
// ---------------------------------------------------------------------

// sortKey is the key of one sort input: its key columns and the order
// they compare under.
type sortKey struct {
	cols []*Vector // nil: the attribute was dropped below — a NULL column
	join bool      // join order (NULL/NaN rows take no part) or grouping order
	// ints: every column is ColInt and no participating row holds a NULL,
	// so keys are raw int64 payloads — both orders reduce to theirs.
	ints bool
}

func newSortKey(t *ColTable, slots []int, join bool) *sortKey {
	k := &sortKey{cols: make([]*Vector, len(slots)), join: join, ints: true}
	for i, s := range slots {
		if s < 0 {
			k.ints = false
			continue
		}
		c := &t.Cols[s]
		k.cols[i] = c
		k.ints = k.ints && c.Kind == ColInt && (join || c.Nulls == nil)
	}
	return k
}

// keyValue reads row i of key column c; a dropped attribute reads as NULL.
func keyValue(c *Vector, i int32) Value {
	if c == nil {
		return Null
	}
	return c.Value(int(i))
}

// cmpKeys compares row a under key x with row b under key y (two rows of
// one input, or a left and a right row of a merge): inline over the int64
// payloads when both keys are ints, column-wise under the join or
// grouping comparator otherwise.
func cmpKeys(x *sortKey, a int32, y *sortKey, b int32) int {
	if x.ints && y.ints {
		for i, c := range x.cols {
			if p, q := c.Ints[a], y.cols[i].Ints[b]; p != q {
				if p < q {
					return -1
				}
				return 1
			}
		}
		return 0
	}
	cmp := compareGroupValue
	if x.join {
		cmp = compareJoinValue
	}
	for i, c := range x.cols {
		if r := cmp(keyValue(c, a), keyValue(y.cols[i], b)); r != 0 {
			return r
		}
	}
	return 0
}

// dead reports whether row i takes no part in a join: a NULL or NaN key
// component matches nothing under strict equality.
func (k *sortKey) dead(i int32) bool {
	for _, c := range k.cols {
		if v := keyValue(c, i); v.IsNull() || (v.Kind == KindFloat && math.IsNaN(v.F)) {
			return true
		}
	}
	return false
}

// liveRows returns the physical rows of t that take part in the sort, in
// input order: all of them under the grouping order (NULL is a key value
// of its own), those not dead under the join order.
func (e *Exec) liveRows(k *sortKey, t *ColTable) []int32 {
	rows := t.physBatch(0, t.Card(), takeDirty[int32](e, t.Card()))
	if !k.join || (k.ints && !slices.ContainsFunc(k.cols, func(c *Vector) bool { return c.Nulls != nil })) {
		return rows
	}
	live := rows[:0]
	for _, i := range rows {
		if !k.dead(i) {
			live = append(live, i)
		}
	}
	return live
}

// firstDescent verifies the claim behind an eliminated sort: rows (in
// input order) are non-decreasing under the key. It returns the first
// row that sorts below its predecessor, or -1.
func (k *sortKey) firstDescent(rows []int32) int32 {
	for i := 1; i < len(rows); i++ {
		if cmpKeys(k, rows[i-1], k, rows[i]) > 0 {
			return rows[i]
		}
	}
	return -1
}

// keyRuns is one prepared sort input: its participating rows in (key,
// row) order and the equal-key runs among them. Within a run rows ascend,
// so a run lists a join key's partners in input order — a hash build's
// posting list — and a group's rows in the order hash aggregation folds
// them.
type keyRuns struct {
	key    *sortKey
	rows   []int32
	starts []int32 // offset of every run in rows, closed by len(rows)
	keys   []int64 // ints keys only: every run's key tuple, run-major
}

// keyRuns orders rows (k's participating rows in input order) by (key,
// row) unless the input's order already is that (needSort false — the
// caller has verified what it must), and finds the runs. An int key whose
// ids fit (packKey) is counting-sorted when its id range is at most
// denseMultiple × rows and radix-sorted otherwise; every other sort takes
// the comparator.
func (e *Exec) keyRuns(k *sortKey, rows []int32, needSort, par bool) *keyRuns {
	kr := &keyRuns{key: k, rows: rows}
	sort := needSort && len(rows) > 1 && len(k.cols) > 0
	if sort && k.ints {
		if p, ok := packKey(k, rows); ok {
			if p.span <= denseMultiple*uint64(len(rows)) && p.span <= math.MaxInt32 {
				e.countingSort(kr, p)
			} else {
				e.radixSort(kr, p, par)
			}
			return kr
		}
	}
	if sort {
		e.compareSort(kr)
	}
	if k.ints {
		e.intRuns(kr)
		return kr
	}
	for i := range rows {
		if i == 0 || cmpKeys(k, rows[i-1], k, rows[i]) != 0 {
			kr.starts = append(kr.starts, int32(i))
		}
	}
	kr.starts = append(kr.starts, int32(len(rows)))
	return kr
}

// compareSort orders kr's rows by (key, row) under cmpKeys: the arm of
// every key that is not ints, and of int keys whose ids do not fit.
func (e *Exec) compareSort(kr *keyRuns) {
	e.hashStats().recordSort(false, false)
	k := kr.key
	slices.SortFunc(kr.rows, func(a, b int32) int {
		if c := cmpKeys(k, a, k, b); c != 0 {
			return c
		}
		return int(a - b)
	})
}

// intRuns finds the runs among kr's rows, already in key order, under an
// int key: one typed pass compares adjacent rows' payloads, and every
// run's key tuple is read off its first row.
func (e *Exec) intRuns(kr *keyRuns) {
	cols, rows := kr.key.cols, kr.rows
	firsts := scratch[int32](e, len(rows))[:0]
	for i, r := range rows {
		same := i > 0
		for c := 0; same && c < len(cols); c++ {
			same = cols[c].Ints[r] == cols[c].Ints[rows[i-1]]
		}
		if !same {
			firsts = append(firsts, int32(i))
		}
	}
	e.sizeRuns(kr, len(firsts))
	for _, f := range firsts {
		kr.starts = append(kr.starts, f)
		for _, c := range cols {
			kr.keys = append(kr.keys, c.Ints[rows[f]])
		}
	}
	kr.starts = append(kr.starts, int32(len(rows)))
	give(e, firsts)
}

// sizeRuns takes kr's starts and keys for the given number of runs at
// their final size, empty, for the caller to append to.
func (e *Exec) sizeRuns(kr *keyRuns, runs int) {
	kr.starts, kr.keys = takeDirty[int32](e, runs+1)[:0], takeDirty[int64](e, runs*len(kr.key.cols))[:0]
}

// ---------------------------------------------------------------------
// The typed sorts
// ---------------------------------------------------------------------

// idPacking bit-packs an int key into one uint64 id per row, the first
// column most significant: a column contributes its value less its
// minimum, shifted left past the columns after it. Ids order exactly like
// the key tuples they pack, and a tuple decodes from its id by shift and
// mask.
type idPacking struct {
	cols []packedCol
	span uint64 // every id is below span: the id range
}

type packedCol struct {
	vals  []int64
	min   int64
	shift uint
	mask  uint64
}

// packKey returns the packing of k over rows (at least one), and false
// when the ids do not fit 62 bits — a column holding both extremes of
// int64, say. The spare bits keep the id range — the largest id plus
// one — clear of overflow.
func packKey(k *sortKey, rows []int32) (idPacking, bool) {
	p := idPacking{cols: make([]packedCol, len(k.cols))}
	shift := uint(0)
	for c := len(k.cols) - 1; c >= 0; c-- {
		vals := k.cols[c].Ints
		lo, hi := vals[rows[0]], vals[rows[0]]
		for _, r := range rows[1:] {
			lo, hi = min(lo, vals[r]), max(hi, vals[r])
		}
		w := uint64(hi) - uint64(lo) // max−min overflows int64 for wide columns
		b := uint(bits.Len64(w))
		p.cols[c] = packedCol{vals, lo, shift, 1<<b - 1}
		p.span += w << shift
		shift += b
	}
	p.span++
	return p, shift <= 62
}

// id returns row r's id.
func (p *idPacking) id(r int32) uint64 {
	var id uint64
	for i := range p.cols {
		c := &p.cols[i]
		id |= (uint64(c.vals[r]) - uint64(c.min)) << c.shift
	}
	return id
}

// decode replaces the ids of runs runs at the front of keys by the key
// tuples they pack, run-major, in place: from the last run back, so no
// tuple overwrites an id still to be read.
func (p *idPacking) decode(keys []int64, runs int) []int64 {
	nc := len(p.cols)
	for j := runs - 1; j >= 0; j-- {
		id := uint64(keys[j])
		for i := range p.cols {
			c := &p.cols[i]
			keys[j*nc+i] = int64(uint64(c.min) + id>>c.shift&c.mask)
		}
	}
	return keys
}

// countingSort orders kr's rows by (id, row) through the hash layer's
// counting sort (sortPostings): stable, so every id's rows stay in input
// order, and on the calling goroutine like every build. The runs are the
// non-empty postings, their key tuples decoded from the ids.
func (e *Exec) countingSort(kr *keyRuns, p idPacking) {
	e.hashStats().recordSort(true, false)
	rows := kr.rows
	ids := scratch[int32](e, len(rows))
	for i, r := range rows {
		ids[i] = int32(p.id(r))
	}
	post, runs := e.sortPostings(int(p.span), len(rows), func(lo, hi int) ([]int32, []int32) { return ids[lo:hi], rows[lo:hi] })
	give(e, ids)
	kr.rows = post.rows
	// Without a branch: every id writes its posting's start and itself at
	// run j, and only a non-empty posting moves j on (offsets ascend, so
	// the difference's sign bit says which).
	starts, keys := takeDirty[int32](e, runs+1), takeDirty[int64](e, runs*len(p.cols)+1)
	j := 0
	for d := range int32(p.span) {
		starts[j], keys[j] = post.offs[d], int64(d)
		j += int(uint32(post.offs[d]-post.offs[d+1]) >> 31)
	}
	starts[runs] = int32(len(rows))
	kr.starts, kr.keys = starts, p.decode(keys[:runs*len(p.cols)], runs)
}

// sortRec is one row's radix sort record. Pointer-free: record arrays are
// invisible to the garbage collector's scan.
type sortRec struct {
	key uint64 // the row's id
	row int32
}

// radixSort orders kr's rows by (id, row): a stable LSD radix sort over
// the id's bytes from the lowest — rows arrive ascending and no pass
// reorders equal digits, so ties end up in row order. Bytes above the
// id range are zero in every id and skipped. The runs are read off the
// sorted ids, their key tuples decoded from them. The two record arrays
// are the sort's scratch, handed back when it ends; stale contents are
// harmless, a sort writes every record it later reads.
func (e *Exec) radixSort(kr *keyRuns, p idPacking, par bool) {
	e.hashStats().recordSort(false, true)
	rows := kr.rows
	n := len(rows)
	recs, tmp := scratch[sortRec](e, n), scratch[sortRec](e, n)
	e.forSpans(n, par, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			recs[i] = sortRec{p.id(rows[i]), rows[i]}
		}
	})
	offs := make([]int32, e.spans(n, par)*256)
	for shift := uint(0); shift < uint(bits.Len64(p.span-1)); shift += 8 {
		e.radixPass(recs, tmp, shift, offs, par)
		recs, tmp = tmp, recs
	}
	runs := 0
	for i, rc := range recs {
		rows[i] = rc.row
		if i == 0 || rc.key != recs[i-1].key {
			runs++
		}
	}
	e.sizeRuns(kr, runs)
	for i, rc := range recs {
		if i == 0 || rc.key != recs[i-1].key {
			kr.starts = append(kr.starts, int32(i))
			kr.keys = append(kr.keys, int64(rc.key))
		}
	}
	kr.starts = append(kr.starts, int32(n))
	kr.keys = p.decode(kr.keys[:runs*len(p.cols)], runs)
	give(e, recs)
	give(e, tmp)
}

// radixPass moves src into dst ordered by the key byte at shift, keeping
// the order of equal bytes: every span counts its bytes, a byte-major
// prefix sum over the counts gives every (span, byte) run its place in
// dst, and the spans scatter concurrently. Span geometry is a pure
// function of (n, workers, configuration) and the result does not depend
// on it anyway — a stable pass has exactly one outcome.
func (e *Exec) radixPass(src, dst []sortRec, shift uint, offs []int32, par bool) {
	n := len(src)
	clear(offs)
	e.forSpans(n, par, func(m, lo, hi int) {
		hist := offs[m*256 : (m+1)*256]
		for i := lo; i < hi; i++ {
			hist[byte(src[i].key>>shift)]++
		}
	})
	pos := int32(0)
	for b := 0; b < 256; b++ {
		for m := b; m < len(offs); m += 256 {
			c := offs[m]
			offs[m] = pos
			pos += c
		}
	}
	e.forSpans(n, par, func(m, lo, hi int) {
		next := offs[m*256 : (m+1)*256]
		for i := lo; i < hi; i++ {
			b := byte(src[i].key >> shift)
			dst[next[b]] = src[i]
			next[b]++
		}
	})
}

// ---------------------------------------------------------------------
// Merge joins
// ---------------------------------------------------------------------

// MergeKind selects the join form of BatchMergeJoin.
type MergeKind uint8

const (
	MergeInner MergeKind = iota
	MergeSemi
	MergeAnti
	MergeLeftOuter
)

// mergeInput prepares one merge-join input: sorted by its key, or — the
// eliminated sort — verified to be. A violation is an execution error:
// the scan-order declaration (or an unsound order inference) lied about
// the data.
func (e *Exec) mergeInput(t *ColTable, slots []int, needSort, par bool) (*keyRuns, error) {
	e.read(t, slots...)
	k := newSortKey(t, slots, true)
	rows := e.liveRows(k, t)
	if !needSort {
		if bad := k.firstDescent(rows); bad >= 0 {
			return nil, fmt.Errorf(
				"algebra: input declared sorted on merge keys but row %d is out of order (violated scan-order declaration)", bad)
		}
	}
	return e.keyRuns(k, rows, needSort, par), nil
}

// matchRuns walks the runs of both inputs once, in key order, and returns
// per physical left row the right run holding its join partners, or -1
// (no partner, or a NULL key). Keys strictly ascend from run to run on
// either side, so the right cursor only moves forward.
func (e *Exec) matchRuns(l, r *keyRuns, leftRows int) []int32 {
	match := takeDirty[int32](e, leftRows)
	for i := range match {
		match[i] = -1
	}
	ints, nc := l.key.ints && r.key.ints, len(l.key.cols)
	j, nr := 0, len(r.starts)-1
	for i := 0; i+1 < len(l.starts); i++ {
		c := -1
		for ; j < nr; j++ {
			if ints {
				c = slices.Compare(r.keys[j*nc:(j+1)*nc], l.keys[i*nc:(i+1)*nc])
			} else {
				c = cmpKeys(r.key, r.rows[r.starts[j]], l.key, l.rows[l.starts[i]])
			}
			if c >= 0 {
				break
			}
		}
		if j == nr {
			break
		}
		if c == 0 {
			for _, row := range l.rows[l.starts[i]:l.starts[i+1]] {
				match[row] = int32(j)
			}
		}
	}
	return match
}

// BatchMergeJoin is the sort-merge equi-join of l and r on the batch
// runtime. sortL and sortR say which inputs must be sorted; a false flag
// is the eliminated-sort case and requires (and verifies) that the input
// is already non-decreasing on its key slots. The output sequence equals
// the hash operator's of the same kind exactly: left rows in input order,
// each with its partners in right-input order. pad (MergeLeftOuter only)
// must be a full row over r's schema. s is the output schema of the inner
// and left outer kinds, l.Schema.Concat(r.Schema).
func (e *Exec) BatchMergeJoin(kind MergeKind, l, r *ColTable, lk, rk []int, sortL, sortR bool, pad Row, s *Schema) (*ColTable, error) {
	par := e.parForBatch(max(l.Card(), r.Card()))
	lr, err := e.mergeInput(l, lk, sortL, par)
	if err != nil {
		return nil, fmt.Errorf("merge join, left input: %w", err)
	}
	rr, err := e.mergeInput(r, rk, sortR, par)
	if err != nil {
		return nil, fmt.Errorf("merge join, right input: %w", err)
	}
	match := e.matchRuns(lr, rr, l.N)
	n := l.Card()
	if kind == MergeSemi || kind == MergeAnti {
		// A pure selection over the shared columns; NULL-key left rows
		// have no partner, so the antijoin keeps them.
		var sel []int32
		for li := 0; li < n; li++ {
			if i := l.phys(li); (match[i] >= 0) == (kind == MergeSemi) {
				sel = append(sel, i)
			}
		}
		return selTable(l, sel), nil
	}
	// The (left, right) output pairs in left-input order: every span
	// counts its pairs, a prefix sum places it, the spans fill in place.
	partners := func(i int32) []int32 {
		if m := match[i]; m >= 0 {
			return rr.rows[rr.starts[m]:rr.starts[m+1]]
		}
		return nil
	}
	offs := make([]int, e.spans(n, par)+1)
	padded := make([]bool, len(offs)) // per span: it emits a pad
	e.forSpans(n, par, func(m, lo, hi int) {
		c := 0
		for li := lo; li < hi; li++ {
			if ps := partners(l.phys(li)); len(ps) > 0 {
				c += len(ps)
			} else if kind == MergeLeftOuter {
				c++
				padded[m] = true
			}
		}
		offs[m+1] = c
	})
	for m := 1; m < len(offs); m++ {
		offs[m] += offs[m-1]
	}
	lidx := takeDirty[int32](e, offs[len(offs)-1])
	ridx := takeDirty[int32](e, len(lidx))
	e.forSpans(n, par, func(m, lo, hi int) {
		o := offs[m]
		for li := lo; li < hi; li++ {
			i := l.phys(li)
			ps := partners(i)
			if len(ps) == 0 && kind == MergeLeftOuter {
				lidx[o], ridx[o] = i, -1
				o++
			}
			for _, ri := range ps {
				lidx[o], ridx[o] = i, ri
				o++
			}
		}
	})
	return e.joinView(l, r, s, lidx, ridx, nil, pad, false, slices.Contains(padded, true), par), nil
}

// MergeTables is the sort-merge equi-join of the given kind for the row
// runtime: BatchMergeJoin between a conversion to columns and one back.
// The output sequence equals the hash operator's of the same kind exactly.
func (e *Exec) MergeTables(kind MergeKind, l, r *Table, lk, rk []int, sortL, sortR bool, pad Row) (*Table, error) {
	out, err := e.BatchMergeJoin(kind, l.Columnar(), r.Columnar(), lk, rk, sortL, sortR, pad, l.Schema.Concat(r.Schema))
	if err != nil {
		return nil, err
	}
	return out.Table(), nil
}

// ---------------------------------------------------------------------
// Sort-group
// ---------------------------------------------------------------------

// BatchSortGroup is sort-group aggregation on the batch runtime: group
// ids come from sorting instead of hashing. With sortInput true rows are
// ordered by (grouping key, row) and every equal-key run is a group. With
// sortInput false the input's contractual order already makes every group
// a consecutive run (non-decreasing on the verify slots, the covering
// order prefix — checked, not trusted) and the runs are read off the
// input as it stands. Either way a run holds its rows in input order, the
// runs fold through BatchHashGroup's typed kernels, and the groups are
// emitted by ascending first row: the output is bit-identical to
// BatchHashGroup's.
func (e *Exec) BatchSortGroup(t *ColTable, a *Aggregation, sortInput bool, verify []int) (*ColTable, error) {
	bound, groupSlots := a.Aggs, a.Groups
	par := e.parForBatch(t.Card())
	e.read(t, groupSlots...)
	e.read(t, verify...)
	e.readAggs(t, bound)
	k := newSortKey(t, groupSlots, false)
	rows := e.liveRows(k, t)
	if !sortInput {
		if bad := newSortKey(t, verify, false).firstDescent(rows); bad >= 0 {
			return nil, fmt.Errorf(
				"algebra: input declared ordered for streaming aggregation but row %d is out of order (violated scan-order declaration)", bad)
		}
	}
	kr := e.keyRuns(k, rows, sortInput, par)
	// Every span folds the runs that start in it, to completion, into a
	// grouper of its own; a group is one run, so exactly one task folds
	// it, front to back.
	n := len(rows)
	spans := make([]*batchGrouper, e.spans(n, par))
	e.forSpans(n, par, func(m, lo, hi int) {
		g := newBatchGrouper(e, t, groupSlots, bound, false)
		g.addRuns(kr, lo, hi, e.batchSize())
		g.finish(nil)
		spans[m] = g
	})
	return e.mergeGroupers(spans, t, groupSlots, bound).emitTable(e, a.Out, par), nil
}

// SortGroup is sort-group aggregation on the row runtime; the output is
// bit-identical to HashGroup's.
func (e *Exec) SortGroup(t *Table, groupBy []string, f aggfn.Vector, sortInput bool, verify []int) (*Table, error) {
	out, err := e.BatchSortGroup(t.Columnar(), BindAggregation(t.Schema, groupBy, f), sortInput, verify)
	if err != nil {
		return nil, err
	}
	return out.Table(), nil
}
