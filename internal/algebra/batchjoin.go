package algebra

import (
	"math"
	"sync"
	"sync/atomic"

	"eagg/internal/aggfn"
)

// Batch-at-a-time hash joins over columnar tables. The operators mirror
// the row runtime's hashjoin.go/parallel.go exactly — same build order,
// same probe order, same NULL-key semantics — but work on ColTables:
// keys are encoded column-major a batch at a time (batchkey.go), probes
// accumulate (left, right) physical index pairs instead of copying rows,
// and the output columns are assembled by one typed gather per column.
// Semijoin and antijoin never copy anything: their output is a selection
// vector over the shared input columns.
//
// All indices flowing through here are physical row numbers. Because
// selection vectors are monotone (vector.go), physical order equals
// logical order, so posting lists accumulated in logical scan order, the
// morsel-ordered chunk concatenation, and the full-outer right tail all
// reproduce the row runtime's output sequence bit for bit.

// batchScratch bundles the per-batch scratch buffers (physical row list,
// key encodings, hashed key entries, group ids, resolved posting lists)
// one batch driver needs. Pooled: an operator borrows one set for its
// whole scan instead of growing fresh buffers, so steady-state batch
// iteration allocates nothing.
type batchScratch struct {
	kb    keyBatch
	rows  []int32
	gids  []int32
	posts [][]int32
	ents  []keyEntry
	arena []byte
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// batchBuild is a hashed build side over the flat tables of
// hashtable.go: one table when built sequentially, one per radix
// partition when built in parallel (a nil partition holds no keys).
// Joins on a single int column — the overwhelmingly common equi-join
// shape — skip byte encoding entirely and hash the int64 payloads
// themselves; everything else uses the canonical key encoding. Posting
// lists are identical either way: same keys, same build-input order
// (integral floats probe the int64 table through the same normalization
// the encoding applies). bloom, when non-nil, pre-filters probe keys by
// their cached hashes: negatives are exact (an absent key resolves to
// nil postings either way) and false positives just fall through to the
// table probe, so the filter never changes results. A single int column
// with a dense key range is not hashed at all: dense holds it
// direct-addressed (dense.go), same posting lists again, and needs
// neither tables nor filter.
type batchBuild struct {
	dense *denseTable   // single-ColInt build key, dense range
	its   []*intTable   // single-ColInt build key
	bts   []*bytesTable // encoded keys
	pmask uint64        // table count - 1: the hash's low bits pick the table
	bloom *bloomFilter
}

// lookInt resolves an int build's postings for probe key v, counting the
// Bloom filter's traffic when one is attached.
func (b *batchBuild) lookInt(v int64, checks, passes *int) []int32 {
	if b.dense != nil {
		return b.dense.lookup(v)
	}
	h := hashInt64(v)
	if b.bloom != nil {
		*checks++
		if !b.bloom.mayContain(h) {
			return nil
		}
		*passes++
	}
	if t := b.its[h&b.pmask]; t != nil {
		return t.lookupHashed(h, v)
	}
	return nil
}

func (b *batchBuild) lookBytes(h uint64, key []byte) []int32 {
	if t := b.bts[h&b.pmask]; t != nil {
		return t.lookupHashed(h, key)
	}
	return nil
}

// entrySource yields a run of key entries at a time, in input order.
type entrySource func(fn func(ents []keyEntry, arena []byte))

// buildInts builds table p over the int-keyed entries src yields and
// returns its distinct key count; buildBytes is the encoded-key twin.
func (b *batchBuild) buildInts(p, hint int, hs *HashStats, src entrySource) int {
	t := newIntTable(hint)
	src(func(ents []keyEntry, _ []byte) {
		for i := range ents {
			t.insertHashed(ents[i].hash, ents[i].key, ents[i].row)
		}
	})
	t.finalize()
	t.record(hs)
	b.its[p] = t
	return t.n
}

func (b *batchBuild) buildBytes(p, hint int, hs *HashStats, src entrySource) int {
	t := newBytesTable(hint)
	src(func(ents []keyEntry, arena []byte) {
		for i := range ents {
			t.insert(ents[i].hash, ents[i].bytes(arena), ents[i].row)
		}
	})
	t.finalize()
	t.record(hs)
	b.bts[p] = t
	return t.n
}

// batchBuildSide hashes the build input's join keys: one scan into one
// table, or (par) a radix scatter and one table per partition, every
// partition inserting its entries in build-input order. Posting lists
// are identical to the row runtime's up to physical renumbering under a
// selection — same keys, same order. probeCard is the probe input's
// cardinality, used only to gate the optional Bloom filter; pass -1 to
// disable it (operators that emit every probe row regardless).
func (e *Exec) batchBuildSide(r *ColTable, rk []int, par bool, probeCard int) *batchBuild {
	hs := e.hashStats()
	n := r.Card()
	ks := newKeyScan(r, rk, true)
	if ks.dense {
		return &batchBuild{dense: e.buildDense(ks)}
	}
	nt := 1
	if par {
		nt = partitions
	}
	b := &batchBuild{pmask: uint64(nt - 1)}
	build := b.buildBytes
	if ks.col != nil {
		b.its = make([]*intTable, nt)
		build = b.buildInts
	} else {
		b.bts = make([]*bytesTable, nt)
	}
	keys := 0 // distinct build keys, for the Bloom gate
	if !par {
		keys = build(0, n, hs, func(fn func([]keyEntry, []byte)) { ks.scan(0, n, e.batchSize(), fn) })
	} else {
		// Every partition's table is sized exactly from its entry count
		// (a pure function of the data), so capacities, and with them
		// every probe sequence, are identical for every worker count.
		rp := e.radixScatter(ks, n)
		var total atomic.Int64
		e.forParts(func(p int) {
			if c := rp.count(p); c > 0 {
				total.Add(int64(build(p, c, hs, func(fn func([]keyEntry, []byte)) { rp.runs(p, e.batchSize(), fn) })))
			}
		})
		keys = int(total.Load())
		rp.release()
	}
	if f := buildBloom(keys, probeCard); f != nil {
		// The tables cache every distinct key's hash, so the filter fills
		// from them in one sequential pass — no racing bit-sets inside
		// the partition fan-out.
		for _, t := range b.its {
			if t != nil {
				t.fillBloom(f)
			}
		}
		for _, t := range b.bts {
			if t != nil {
				t.fillBloom(f)
			}
		}
		b.bloom = f
	}
	return b
}

// probePostings iterates probe rows [lo, hi) of l in batches, resolving
// every row's build-side posting list — nil both for dead rows (NULL/NaN
// key components match nothing) and for keys without a partner, which
// every probe operator treats identically. On the int fast path the
// resolution is one column-kind dispatch per batch over the raw payloads;
// otherwise keys are encoded and looked up. posts is scratch; fn must not
// retain it.
func (e *Exec) probePostings(l *ColTable, lk []int, b *batchBuild, lo, hi int, fn func(rows []int32, posts [][]int32)) {
	bs := e.batchSize()
	bloomChecks, bloomPasses := 0, 0
	defer func() { e.hashStats().recordBloom(bloomChecks, bloomPasses) }()
	if b.bts != nil {
		sc := batchScratchPool.Get().(*batchScratch)
		for bb := lo; bb < hi; bb += bs {
			sc.rows = l.physBatch(bb, min(bb+bs, hi), sc.rows)
			sc.kb.encodeJoin(l, sc.rows, lk)
			rows, kb := sc.rows, &sc.kb
			if cap(sc.posts) < len(rows) {
				sc.posts = make([][]int32, len(rows))
			}
			posts := sc.posts[:len(rows)]
			for k := range rows {
				if kb.dead[k] {
					posts[k] = nil
					continue
				}
				h := hashKey(kb.keys[k])
				if b.bloom != nil {
					bloomChecks++
					if !b.bloom.mayContain(h) {
						posts[k] = nil
						continue
					}
					bloomPasses++
				}
				posts[k] = b.lookBytes(h, kb.keys[k])
			}
			fn(rows, posts)
		}
		batchScratchPool.Put(sc)
		return
	}
	// Single-int build: the probe key is the raw int64 payload, one
	// column-kind dispatch per batch.
	look := func(v int64) []int32 { return b.lookInt(v, &bloomChecks, &bloomPasses) }
	sc := batchScratchPool.Get().(*batchScratch)
	slot := lk[0]
	var col *Vector
	if slot >= 0 {
		col = &l.Cols[slot]
	}
	for bb := lo; bb < hi; bb += bs {
		end := min(bb+bs, hi)
		sc.rows = l.physBatch(bb, end, sc.rows)
		rows := sc.rows
		if cap(sc.posts) < len(rows) {
			sc.posts = make([][]int32, len(rows))
		}
		posts := sc.posts[:len(rows)]
		switch {
		case col == nil: // absent attribute: NULL key, matches nothing
			for k := range rows {
				posts[k] = nil
			}
		case col.Kind == ColInt:
			for k, i := range rows {
				if col.IsNull(int(i)) {
					posts[k] = nil
				} else {
					posts[k] = look(col.Ints[i])
				}
			}
		case col.Kind == ColFloat:
			for k, i := range rows {
				posts[k] = nil
				if col.IsNull(int(i)) {
					continue
				}
				// Integral floats equal their int64 under join
				// normalization; NaN and fractional floats fail the
				// round-trip check and match nothing.
				f := col.Floats[i]
				if n := int64(f); float64(n) == f {
					posts[k] = look(n)
				}
			}
		case col.Kind == ColStr:
			for k := range rows {
				posts[k] = nil // strings never equal numeric keys
			}
		default: // ColMixed
			for k, i := range rows {
				posts[k] = nil
				switch v := col.Vals[i]; v.Kind {
				case KindInt:
					posts[k] = look(v.I)
				case KindFloat:
					if math.IsNaN(v.F) {
						continue
					}
					if n := int64(v.F); float64(n) == v.F {
						posts[k] = look(n)
					}
				}
			}
		}
		fn(rows, posts)
	}
	batchScratchPool.Put(sc)
}

// idxPairs is one morsel's accumulated (left, right) output pairs.
type idxPairs struct {
	li, ri []int32
}

// concatPairs concatenates per-morsel pair chunks in morsel order.
func concatPairs(chunks []idxPairs) (li, ri []int32) {
	total := 0
	for _, c := range chunks {
		total += len(c.li)
	}
	li = make([]int32, 0, total)
	ri = make([]int32, 0, total)
	for _, c := range chunks {
		li = append(li, c.li...)
		ri = append(ri, c.ri...)
	}
	return li, ri
}

// gatherConcat assembles the concatenated join output: left columns
// gathered by lidx, right columns by ridx, one typed gather per column
// (fanned out over the task scheduler when par). Index -1 reads the
// corresponding pad value; a nil pad row means NULL padding.
func (e *Exec) gatherConcat(l, r *ColTable, lidx, ridx []int32, lpad, rpad Row, par bool) *ColTable {
	out := &ColTable{Schema: l.Schema.Concat(r.Schema), N: len(lidx)}
	lw := l.Schema.Len()
	out.Cols = make([]Vector, lw+r.Schema.Len())
	task := func(ci int) {
		if ci < lw {
			pad := Null
			if lpad != nil {
				pad = lpad[ci]
			}
			out.Cols[ci] = gatherColPad(&l.Cols[ci], lidx, pad)
		} else {
			pad := Null
			if rpad != nil {
				pad = rpad[ci-lw]
			}
			out.Cols[ci] = gatherColPad(&r.Cols[ci-lw], ridx, pad)
		}
	}
	if par {
		e.forTasks(len(out.Cols), task)
	} else {
		for ci := range out.Cols {
			task(ci)
		}
	}
	return out
}

// selTable wraps the shared input columns under a selection vector; a nil
// sel (no surviving rows) becomes the empty selection, not "all rows".
func selTable(t *ColTable, sel []int32) *ColTable {
	if sel == nil {
		sel = []int32{}
	}
	return &ColTable{Schema: t.Schema, Cols: t.Cols, N: t.N, Sel: sel}
}

// BatchHashJoin is the inner equi-join l ⋈ r on the batch runtime.
func (e *Exec) BatchHashJoin(l, r *ColTable, lk, rk []int) *ColTable {
	par := e.parForBatch(max(l.Card(), r.Card()))
	bld := e.batchBuildSide(r, rk, par, l.Card())
	n := l.Card()
	nm := 1
	if par {
		nm = e.morselCount(n)
	}
	chunks := make([]idxPairs, nm)
	work := func(m, lo, hi int) {
		var p idxPairs
		e.probePostings(l, lk, bld, lo, hi, func(rows []int32, posts [][]int32) {
			for k, i := range rows {
				for _, ri := range posts[k] {
					p.li = append(p.li, i)
					p.ri = append(p.ri, ri)
				}
			}
		})
		chunks[m] = p
	}
	if par {
		e.forMorsels(n, work)
	} else {
		work(0, 0, n)
	}
	lidx, ridx := concatPairs(chunks)
	return e.gatherConcat(l, r, lidx, ridx, nil, nil, par)
}

// BatchHashSemiJoin is the left semijoin l ⋉ r: a pure selection-vector
// operation, zero row copies.
func (e *Exec) BatchHashSemiJoin(l, r *ColTable, lk, rk []int) *ColTable {
	par := e.parForBatch(max(l.Card(), r.Card()))
	bld := e.batchBuildSide(r, rk, par, l.Card())
	n := l.Card()
	nm := 1
	if par {
		nm = e.morselCount(n)
	}
	chunks := make([][]int32, nm)
	work := func(m, lo, hi int) {
		var sel []int32
		e.probePostings(l, lk, bld, lo, hi, func(rows []int32, posts [][]int32) {
			for k, i := range rows {
				if len(posts[k]) > 0 {
					sel = append(sel, i)
				}
			}
		})
		chunks[m] = sel
	}
	if par {
		e.forMorsels(n, work)
	} else {
		work(0, 0, n)
	}
	var sel []int32
	for _, c := range chunks {
		sel = append(sel, c...)
	}
	return selTable(l, sel)
}

// BatchHashAntiJoin is the left antijoin l ▷ r: a selection keeping rows
// without a partner (NULL-key rows included — strict equality matches
// them to nothing).
func (e *Exec) BatchHashAntiJoin(l, r *ColTable, lk, rk []int) *ColTable {
	par := e.parForBatch(max(l.Card(), r.Card()))
	bld := e.batchBuildSide(r, rk, par, l.Card())
	n := l.Card()
	nm := 1
	if par {
		nm = e.morselCount(n)
	}
	chunks := make([][]int32, nm)
	work := func(m, lo, hi int) {
		var sel []int32
		e.probePostings(l, lk, bld, lo, hi, func(rows []int32, posts [][]int32) {
			for k, i := range rows {
				// Dead rows resolve to nil postings, so NULL-key rows are
				// kept — strict equality matches them to nothing.
				if len(posts[k]) == 0 {
					sel = append(sel, i)
				}
			}
		})
		chunks[m] = sel
	}
	if par {
		e.forMorsels(n, work)
	} else {
		work(0, 0, n)
	}
	var sel []int32
	for _, c := range chunks {
		sel = append(sel, c...)
	}
	return selTable(l, sel)
}

// BatchHashLeftOuter is the left outerjoin on the batch runtime. pad must
// be a full row over r's schema.
func (e *Exec) BatchHashLeftOuter(l, r *ColTable, lk, rk []int, pad Row) *ColTable {
	par := e.parForBatch(max(l.Card(), r.Card()))
	bld := e.batchBuildSide(r, rk, par, -1)
	n := l.Card()
	nm := 1
	if par {
		nm = e.morselCount(n)
	}
	chunks := make([]idxPairs, nm)
	work := func(m, lo, hi int) {
		var p idxPairs
		e.probePostings(l, lk, bld, lo, hi, func(rows []int32, posts [][]int32) {
			for k, i := range rows {
				if len(posts[k]) == 0 {
					p.li = append(p.li, i)
					p.ri = append(p.ri, -1)
					continue
				}
				for _, ri := range posts[k] {
					p.li = append(p.li, i)
					p.ri = append(p.ri, ri)
				}
			}
		})
		chunks[m] = p
	}
	if par {
		e.forMorsels(n, work)
	} else {
		work(0, 0, n)
	}
	lidx, ridx := concatPairs(chunks)
	return e.gatherConcat(l, r, lidx, ridx, nil, pad, par)
}

// BatchHashFullOuter is the full outerjoin on the batch runtime. Matched
// build rows are marked through atomics (false→true only, so concurrent
// marking is order-independent); the unmatched right rows are appended
// after the probe barrier in build-input order.
func (e *Exec) BatchHashFullOuter(l, r *ColTable, lk, rk []int, lpad, rpad Row) *ColTable {
	par := e.parForBatch(max(l.Card(), r.Card()))
	bld := e.batchBuildSide(r, rk, par, -1)
	n := l.Card()
	nm := 1
	if par {
		nm = e.morselCount(n)
	}
	matched := make([]atomic.Bool, r.N)
	chunks := make([]idxPairs, nm)
	work := func(m, lo, hi int) {
		var p idxPairs
		e.probePostings(l, lk, bld, lo, hi, func(rows []int32, posts [][]int32) {
			for k, i := range rows {
				if len(posts[k]) == 0 {
					p.li = append(p.li, i)
					p.ri = append(p.ri, -1)
					continue
				}
				for _, ri := range posts[k] {
					matched[ri].Store(true)
					p.li = append(p.li, i)
					p.ri = append(p.ri, ri)
				}
			}
		})
		chunks[m] = p
	}
	if par {
		e.forMorsels(n, work)
	} else {
		work(0, 0, n)
	}
	lidx, ridx := concatPairs(chunks)
	for j := 0; j < r.Card(); j++ {
		ri := r.phys(j)
		if !matched[ri].Load() {
			lidx = append(lidx, -1)
			ridx = append(ridx, ri)
		}
	}
	return e.gatherConcat(l, r, lidx, ridx, lpad, rpad, par)
}

// BatchHashGroupJoin is the groupjoin on the batch runtime: every left
// row is extended by the vector's aggregates over its partner bucket,
// folded in build-input order through the shared accumulator core
// (updateVals), so results equal the row operator's bit for bit.
func (e *Exec) BatchHashGroupJoin(l, r *ColTable, lk, rk []int, f aggfn.Vector) *ColTable {
	bound := BindVector(f, r.Schema)
	names := append(append([]string(nil), l.Schema.Names()...), f.Outs()...)
	par := e.parForBatch(max(l.Card(), r.Card()))
	bld := e.batchBuildSide(r, rk, par, -1)
	lc := l.Compact() // output appends dense agg columns alongside l's
	n := lc.Card()
	aggRows := make([][]Value, n)
	work := func(m, lo, hi int) {
		var scratch []byte
		cells := make([]aggCell, len(bound))
		e.probePostings(lc, lk, bld, lo, hi, func(rows []int32, posts [][]int32) {
			for k, i := range rows {
				for c := range cells {
					cells[c] = aggCell{}
				}
				for _, ri := range posts[k] {
					for c := range bound {
						a := &bound[c]
						cells[c].updateVals(a, colValue(r, a.Arg, ri), colValue(r, a.Arg2, ri), colValue(r, a.Wgt, ri), &scratch)
					}
				}
				vals := make([]Value, len(bound))
				for c := range bound {
					vals[c] = cells[c].final(&bound[c])
				}
				aggRows[i] = vals // lc is dense: physical row == logical row
			}
		})
	}
	if par {
		e.forMorsels(n, work)
	} else {
		work(0, 0, n)
	}
	out := &ColTable{Schema: NewSchema(names), N: n}
	out.Cols = make([]Vector, len(names))
	copy(out.Cols, lc.Cols)
	for c := range bound {
		var b colBuilder
		for _, vals := range aggRows {
			b.append(vals[c])
		}
		out.Cols[lc.Schema.Len()+c] = b.finish()
	}
	return out
}
