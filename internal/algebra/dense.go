package algebra

import (
	"math"
	"sync/atomic"
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
//   - A join build side becomes a denseTable: a counting sort of the build
//     rows by key into one postings slab in CSR form. A counting sort is
//     stable, so every posting list is in build-input order by
//     construction — the lists the flat hash tables produce.
//   - A grouper's key→group-id index becomes a plain array (batchGrouper
//     .dense) that hands out ids in first-encounter order exactly like the
//     hash index it replaces, feeding the same fold kernels and emit.
//
// Both consume runs of physical rows in input order. The sequential arms
// take them from the input batch by batch; the parallel arms partition the
// rows first (denseScatter) — radix.go's two passes on 4-byte row ids, the
// partition being the HIGH bits of key−min: partition p owns one
// contiguous key sub-range, so all partitions work on disjoint slices of
// the same arrays, and a partition's random accesses stay within 1/64 of
// the range.

// denseMultiple bounds the key range of the direct-addressed path at this
// many times the input's row count, read off the sweep=density arms of
// BenchmarkBatchParallelCrossover (DESIGN.md "Direct-addressed keys"): up
// to it the arrays are no larger than the hash table they replace, and
// faster at every width.
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

// partRange returns the sub-range of [0, span) that partition p owns.
func (ks *keyScan) partRange(p int) (lo, hi int) {
	return min(p<<ks.shift, ks.span), min((p+1)<<ks.shift, ks.span)
}

// densePart returns the partition of physical row i: its key's sub-range,
// partition 0 for the NULL key of a grouping scan, -1 for the NULL key of
// a join scan (it matches nothing).
func (ks *keyScan) densePart(i int32) int {
	if ks.col.IsNull(int(i)) {
		if ks.join {
			return -1
		}
		return 0
	}
	return int((uint64(ks.col.Ints[i]) - uint64(ks.min)) >> ks.shift)
}

// rowParts is an input's rows partitioned by key sub-range: partition p's
// rows are contiguous, morsel by morsel and ascending within a morsel —
// global input order, like radixParts' entries.
type rowParts struct {
	rows    []int32
	offs    []int32 // as radixParts.offs
	morsels int
}

func (rp *rowParts) part(p int) []int32 {
	return rp.rows[rp.offs[p]:rp.offs[rp.morsels*partitions+p]]
}

func (rp *rowParts) count(p int) int { return len(rp.part(p)) }

func (rp *rowParts) feed(p, bs int, g *batchGrouper) {
	for rows := rp.part(p); len(rows) > 0; rows = rows[min(bs, len(rows)):] {
		g.addDense(rows[:min(bs, len(rows))])
	}
}

func (rp *rowParts) release() {}

// denseScatter partitions the rows of a dense key scan in radixScatter's
// two morsel-parallel passes, reading the key column twice instead of
// writing entries: count per (morsel, partition), prefix sum, place.
func (e *Exec) denseScatter(ks *keyScan, n int) *rowParts {
	morsels := e.morselCount(n)
	rp := &rowParts{morsels: morsels, offs: make([]int32, (morsels+1)*partitions)}
	e.forMorsels(n, func(m, lo, hi int) {
		hist := rp.offs[m*partitions : (m+1)*partitions]
		for li := lo; li < hi; li++ {
			if p := ks.densePart(ks.t.phys(li)); p >= 0 {
				hist[p]++
			}
		}
	})
	rp.rows = make([]int32, prefixParts(rp.offs, morsels))
	e.forMorsels(n, func(m, lo, hi int) {
		var next [partitions]int32
		copy(next[:], rp.offs[m*partitions:])
		for li := lo; li < hi; li++ {
			i := ks.t.phys(li)
			if p := ks.densePart(i); p >= 0 {
				rp.rows[next[p]] = i
				next[p]++
			}
		}
	})
	return rp
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

// countEnds covers the key sub-range whose counts are cnt and whose first
// posting goes to base; it returns how many of its keys are present.
func countEnds(cnt []int32, base int32) (keys int) {
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

// buildDense counting-sorts the build rows of a dense key scan: batch by
// batch off the input, or (par) every partition into its own slices of
// the shared arrays. The result is the same CSR either way — it is a
// function of the input alone.
func (e *Exec) buildDense(ks *keyScan, par bool) *denseTable {
	t, n, bs := ks.t, ks.t.Card(), e.batchSize()
	dt := &denseTable{col: ks.col, min: ks.min, offs: make([]int32, ks.span+1)}
	var keys int
	if !par {
		var rows []int32
		for b := 0; b < n; b += bs {
			rows = t.physBatch(b, min(b+bs, n), rows)
			dt.count(rows)
		}
		keys = countEnds(dt.offs[:ks.span], 0)
		dt.posts = make([]int32, dt.offs[max(ks.span, 1)-1])
		for b := (n - 1) / bs * bs; n > 0 && b >= 0; b -= bs {
			rows = t.physBatch(b, min(b+bs, n), rows)
			dt.place(rows)
		}
	} else {
		rp := e.denseScatter(ks, n)
		dt.posts = make([]int32, len(rp.rows))
		var total atomic.Int64
		e.forParts(func(p int) {
			dt.count(rp.part(p))
			lo, hi := ks.partRange(p)
			total.Add(int64(countEnds(dt.offs[lo:hi], rp.offs[p])))
			dt.place(rp.part(p))
		})
		keys = int(total.Load())
	}
	dt.offs[ks.span] = int32(len(dt.posts))
	e.hashStats().recordDense(keys, ks.span)
	return dt
}
