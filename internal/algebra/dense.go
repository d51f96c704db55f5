package algebra

import (
	"math"
	"slices"
)

// Direct-addressed keys. A join build or grouping key that is one typed
// int column whose values fill a range not much wider than the row count
// — every key column the TPC-H shapes join and group on — is already an
// array index: key−min addresses a slot directly, so the operator neither
// hashes it nor probes for it, and never materializes a keyEntry. The X100
// direct-aggregation kernel (Boncz et al., CIDR'05), extended to the join
// build side. newKeyScan makes the choice from the data (denseRange);
// everything else keeps the hash path.
//
//   - A join build side becomes dense postings: the build rows counting-sorted
//     by key−min into one postings slab in CSR form. The hash paths run the
//     same counting sort (sortPostings) over the dense ids their key index
//     hands out, so a join build is postings + min here, postings + index
//     there. A counting sort is stable: every posting list is in
//     build-input order by construction.
//   - A grouper's key→group-id index becomes a plain array (batchGrouper
//     .dense) that hands out ids in first-encounter order exactly like the
//     hash index it replaces, feeding the same fold kernels and emit.
//
// Both consume the input's physical rows batch by batch in input order, on
// one goroutine whatever the worker count, like the hashed builds and
// groupings: the passes are streaming and cheap enough that partitioning
// the rows first does not pay for itself (DESIGN.md "One goroutine, by
// measurement"). The rest of the operator — probe, gather, emit — still
// fans out under parForBatch.

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

// postings are a join build side's posting lists in CSR form: id d's rows
// are rows[offs[d]:offs[d+1]], in build-input order.
type postings struct {
	offs, rows []int32
}

func (p *postings) of(d int32) []int32 { return p.rows[p.offs[d]:p.offs[d+1]] }

// sortPostings is the counting sort every join build fills its postings
// through: n entries with ids in [0, width), handed over by batch(lo, hi)
// as parallel id and physical-row lists (a batch may drop entries — NULL
// keys), a batch of the operator's size at a time. It runs count,
// countEnds, place — over the same batches, place seeing them in reverse:
// count leaves every id's posting count at its offset, countEnds turns the
// counts into end offsets, and place decrements an id's offset before
// every write. That leaves each offset at its id's start and the postings
// in input order, with no second cursor array. It returns how many ids
// have postings.
func (e *Exec) sortPostings(width, n int, batch func(lo, hi int) (ids, rows []int32)) (postings, int) {
	bs := e.batchSize()
	offs := take[int32](e, width+1)
	for lo := 0; lo < n; lo += bs {
		ids, _ := batch(lo, min(lo+bs, n))
		for _, d := range ids {
			offs[d]++
		}
	}
	keys := countEnds(offs[:width])
	out := takeDirty[int32](e, int(offs[max(width, 1)-1]))
	for lo := (n - 1) / bs * bs; n > 0 && lo >= 0; lo -= bs {
		ids, rows := batch(lo, min(lo+bs, n))
		for k := len(ids) - 1; k >= 0; k-- {
			d := ids[k]
			offs[d]--
			out[offs[d]] = rows[k]
		}
	}
	offs[width] = int32(len(out))
	return postings{offs, out}, keys
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

// buildDense counting-sorts the build rows of a dense key scan by key−min,
// batch by batch off the input, on the calling goroutine: streaming passes
// that a partitioning pass in front of them does not pay for at any
// measured size (DESIGN.md "Direct-addressed keys"). NULL keys are dropped;
// the postings' ids are key−min.
func (e *Exec) buildDense(ks *keyScan) postings {
	t, col, lo := ks.t, ks.col, uint64(ks.min)
	sc := batchScratchPool.Get().(*batchScratch)
	p, keys := e.sortPostings(ks.span, t.Card(), func(b, end int) ([]int32, []int32) {
		rows := t.physBatch(b, end, sc.rows)
		ids := slices.Grow(sc.gids[:0], len(rows))[:len(rows)]
		sc.rows, sc.gids = rows, ids
		if col.Nulls == nil {
			for k, i := range rows {
				ids[k] = int32(uint64(col.Ints[i]) - lo)
			}
			return ids, rows
		}
		k := 0 // rows[k:] are past the kept ones: a NULL row's slot is overwritten
		for _, i := range rows {
			rows[k], ids[k] = i, int32(uint64(col.Ints[i])-lo)
			if !col.IsNull(int(i)) {
				k++
			}
		}
		return ids[:k], rows[:k]
	})
	batchScratchPool.Put(sc)
	e.hashStats().recordDense(keys, ks.span)
	return p
}
