package algebra

import "math"

// Direct-addressed keys. A join build or grouping key that is one typed
// int column whose values fill a range not much wider than the row count
// — every key column the TPC-H shapes join and group on — is already an
// array index: key−min addresses a slot directly, so the operator neither
// hashes it nor probes for it, and never materializes a keyEntry. The X100
// direct-aggregation kernel (Boncz et al., CIDR'05), extended to the join
// build side. newKeyScan makes the choice from the data (denseRange);
// everything else keeps the hash path.
//
//   - A join build side becomes a denseTable: a counting sort of the build
//     rows by key into one postings slab in CSR form. A counting sort is
//     stable, so every posting list is in build-input order by
//     construction — the lists the flat hash tables produce.
//   - A grouper's key→group-id index becomes a plain array (batchGrouper
//     .dense) that hands out ids in first-encounter order exactly like the
//     hash index it replaces, feeding the same fold kernels and emit.
//
// Both consume the input's physical rows batch by batch in input order, on
// one goroutine whatever the worker count: the passes are streaming and
// cheap enough that partitioning the rows first does not pay for itself
// (DESIGN.md "Direct-addressed keys"). The rest of the operator — probe,
// gather, emit — still fans out under parForBatch.

// denseMultiple bounds the key range of the direct-addressed path at this
// many times the input's row count, read off the sweep=density arms of
// BenchmarkBatchParallelCrossover (DESIGN.md "Direct-addressed keys"): up
// to it the join build allocates under half of what the hash tables do;
// the group index costs about 13 B per row more than the hash index at
// 4×, and its allocation doubles one step further. Time alone would
// favour dense up to about 16×.
const denseMultiple = 4

// denseRange returns the smallest key of the int column col over t's rows
// and the width of its key range, and whether that width qualifies for
// direct addressing. NULLs are no keys. The width is computed in uint64:
// max−min overflows int64 for ranges wider than half the domain.
func denseRange(t *ColTable, col *Vector) (lo int64, span int, ok bool) {
	n := t.Card()
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	if t.Sel == nil && col.Nulls == nil {
		for _, v := range col.Ints[:n] {
			lo, hi = min(lo, v), max(hi, v)
		}
	} else {
		for li := 0; li < n; li++ {
			if i := int(t.phys(li)); !col.IsNull(i) {
				lo, hi = min(lo, col.Ints[i]), max(hi, col.Ints[i])
			}
		}
	}
	if lo > hi {
		return 0, 0, true // no key at all: nothing to address
	}
	if w := uint64(hi) - uint64(lo); w < denseMultiple*uint64(n) {
		return lo, int(w) + 1, true
	}
	return 0, 0, false
}

// denseTable is a direct-addressed join build side: key k's postings are
// posts[offs[k−min]:offs[k−min+1]], in build-input order.
type denseTable struct {
	col   *Vector
	min   int64
	offs  []int32
	posts []int32
}

// lookup returns v's postings, empty if absent.
func (dt *denseTable) lookup(v int64) []int32 {
	d := uint64(v) - uint64(dt.min)
	if d >= uint64(len(dt.offs)-1) {
		return nil
	}
	return dt.posts[dt.offs[d]:dt.offs[d+1]]
}

// The counting sort is count, countEnds, place — over the same rows, place
// seeing them in reverse: count leaves every key's posting count at its
// offset, countEnds turns the counts into end offsets, and place
// decrements a key's offset before every write. That leaves each offset at
// its key's start and the postings in input order, with no second cursor
// array. NULL keys are skipped.

func (dt *denseTable) count(rows []int32) {
	for _, i := range rows {
		if !dt.col.IsNull(int(i)) {
			dt.offs[uint64(dt.col.Ints[i])-uint64(dt.min)]++
		}
	}
}

// countEnds returns how many keys are present.
func countEnds(cnt []int32) (keys int) {
	var base int32
	for d, c := range cnt {
		if c > 0 {
			keys++
		}
		base += c
		cnt[d] = base
	}
	return keys
}

func (dt *denseTable) place(rows []int32) {
	for k := len(rows) - 1; k >= 0; k-- {
		if i := rows[k]; !dt.col.IsNull(int(i)) {
			d := uint64(dt.col.Ints[i]) - uint64(dt.min)
			dt.offs[d]--
			dt.posts[dt.offs[d]] = i
		}
	}
}

// buildDense counting-sorts the build rows of a dense key scan, batch by
// batch off the input, on the calling goroutine: three streaming passes
// that a partitioning pass in front of them does not pay for at any
// measured size (DESIGN.md "Direct-addressed keys").
func (e *Exec) buildDense(ks *keyScan) *denseTable {
	t, n, bs := ks.t, ks.t.Card(), e.batchSize()
	dt := &denseTable{col: ks.col, min: ks.min, offs: take[int32](e, ks.span+1)}
	var rows []int32
	for b := 0; b < n; b += bs {
		rows = t.physBatch(b, min(b+bs, n), rows)
		dt.count(rows)
	}
	keys := countEnds(dt.offs[:ks.span])
	dt.posts = takeDirty[int32](e, int(dt.offs[max(ks.span, 1)-1]))
	for b := (n - 1) / bs * bs; n > 0 && b >= 0; b -= bs {
		rows = t.physBatch(b, min(b+bs, n), rows)
		dt.place(rows)
	}
	dt.offs[ks.span] = int32(len(dt.posts))
	e.hashStats().recordDense(keys, ks.span)
	return dt
}
