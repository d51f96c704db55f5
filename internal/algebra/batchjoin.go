package algebra

import (
	"math"
	"sync"
	"sync/atomic"
)

// Batch-at-a-time hash joins over columnar tables. The operators mirror
// the row runtime's hashjoin.go exactly — same build order,
// same probe order, same NULL-key semantics — but work on ColTables:
// keys are encoded column-major a batch at a time (batchkey.go), probes
// accumulate (left, right) physical index pairs instead of copying rows,
// and the output is a view of both inputs' columns through the pair lists
// (vector.go): no column is copied until an operator reads it. Semijoin
// and antijoin are the one-input case: a selection vector over the shared
// input columns.
//
// All indices flowing through here are physical row numbers. Because
// selection vectors are monotone (vector.go), physical order equals
// logical order, so posting lists accumulated in logical scan order, the
// morsel-ordered chunk concatenation, and the full-outer right tail all
// reproduce the row runtime's output sequence bit for bit.

// batchScratch bundles the per-batch scratch buffers (physical row list,
// key encodings, hashed key entries, group ids, resolved posting lists)
// one batch driver needs, and a probe morsel's output pairs. Pooled: an
// operator borrows one set for its whole scan instead of growing fresh
// buffers, so steady-state batch iteration allocates nothing.
type batchScratch struct {
	kb    keyBatch
	rows  []int32
	gids  []int32
	posts [][]int32
	ents  []keyEntry
	arena []byte
	// li, ri: the (left, right) pairs a probe morsel emitted; padded: some
	// ri is -1 (a left row without a partner under an outer join).
	li, ri []int32
	padded bool
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// batchBuild is a join build side: a key → id map and the build rows
// counting-sorted by id into CSR postings (sortPostings, dense.go), so
// every posting list is in build-input order. A single int column with a
// dense key range maps key−min (dense, dense.go) and needs neither index
// nor filter. Otherwise the map is one key index of hashtable.go: joins on
// a single int column — the overwhelmingly common equi-join shape — key
// the int64 payloads themselves, everything else the canonical key
// encoding. Posting lists are identical either way: same keys, same
// build-input order (integral floats probe the int64 index through the
// same normalization the encoding applies). bloom, when non-nil,
// pre-filters probe keys by their cached hashes: negatives are exact (an
// absent key resolves to nil postings either way) and false positives just
// fall through to the index probe, so the filter never changes results.
type batchBuild struct {
	dense *denseTable // single-ColInt build key, dense range
	ints  *intIndex   // single-ColInt build key
	bytes *bytesIndex // encoded keys
	posts postings    // by the index's ids
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
	if id, ok := b.ints.find(h, v); ok {
		return b.posts.of(id)
	}
	return nil
}

func (b *batchBuild) lookBytes(h uint64, key []byte) []int32 {
	if id, ok := b.bytes.find(h, key); ok {
		return b.posts.of(id)
	}
	return nil
}

// batchBuildSide builds the build input's join keys (buildKeys).
func (e *Exec) batchBuildSide(r *ColTable, rk []int, probeCard int) *batchBuild {
	e.read(r, rk...)
	return e.buildKeys(newKeyScan(r, rk, true), probeCard)
}

// buildKeys builds a join build side over ks's keys on the calling
// goroutine, like every build: direct-addressed, or one scan into one key
// index (buildHashed). Posting lists are identical to the row runtime's up
// to physical renumbering under a selection — same keys, same order.
// probeCard is the probe input's cardinality, used only to gate the
// optional Bloom filter; pass -1 to disable it (operators that emit every
// probe row regardless).
func (e *Exec) buildKeys(ks *keyScan, probeCard int) *batchBuild {
	if ks.dense {
		return &batchBuild{dense: e.buildDense(ks)}
	}
	n := ks.t.Card()
	b := e.buildHashed(ks.col != nil, n, func(fn func([]keyEntry, []byte)) { ks.scan(0, n, e.batchSize(), fn) })
	if b.bloom = buildBloom(len(b.posts.offs)-1, probeCard); b.bloom != nil {
		// The index caches every distinct key (ids 0 … len(offs)−2): the
		// filter fills from it.
		if b.ints != nil {
			b.ints.fillBloom(b.bloom)
		} else {
			b.bytes.fillBloom(b.bloom)
		}
	}
	return b
}

// buildHashed builds a join build side over the hint entries src yields
// in input order (the index is sized for hint keys; more only make it
// grow): an intIndex (ints) or bytesIndex hands every entry's key an id in
// first-encounter order, and sortPostings lays the entries' rows out by id.
func (e *Exec) buildHashed(ints bool, hint int, src func(fn func(ents []keyEntry, arena []byte))) *batchBuild {
	buf := scratch[int32](e, 2*hint)
	ids, rows := buf[:0:hint], buf[hint:hint]
	b, keys := &batchBuild{}, 0
	if ints {
		x := newIntIndex(hint)
		src(func(ents []keyEntry, _ []byte) {
			for i := range ents {
				id, _ := x.lookupOrAdd(ents[i].hash, ents[i].key, int32(x.n))
				ids, rows = append(ids, id), append(rows, ents[i].row)
			}
		})
		x.record(e.hashStats())
		b.ints, keys = x, x.n
	} else {
		x := newBytesIndex(hint)
		src(func(ents []keyEntry, arena []byte) {
			for i := range ents {
				id, _ := x.lookupOrAdd(ents[i].hash, ents[i].bytes(arena), int32(x.n))
				ids, rows = append(ids, id), append(rows, ents[i].row)
			}
		})
		x.record(e.hashStats())
		b.bytes, keys = x, x.n
	}
	b.posts, _ = e.sortPostings(keys, len(ids), func(lo, hi int) ([]int32, []int32) { return ids[lo:hi], rows[lo:hi] })
	give(e, buf)
	return b
}

// probePostings iterates probe rows [lo, hi) of l in batches, resolving
// every row's build-side posting list — nil both for dead rows (NULL/NaN
// key components match nothing) and for keys without a partner, which
// every probe operator treats identically. On the int fast path the
// resolution is one column-kind dispatch per batch over the raw payloads;
// otherwise keys are encoded and looked up. rows and posts live in the
// caller's scratch sc; fn must not retain them. l's key columns must have
// been read.
func (e *Exec) probePostings(sc *batchScratch, l *ColTable, lk []int, b *batchBuild, lo, hi int, fn func(rows []int32, posts [][]int32)) {
	bs := e.batchSize()
	bloomChecks, bloomPasses := 0, 0
	defer func() { e.hashStats().recordBloom(bloomChecks, bloomPasses) }()
	if b.bytes != nil {
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
		return
	}
	// Single-int build: the probe key is the raw int64 payload, one
	// column-kind dispatch per batch.
	look := func(v int64) []int32 { return b.lookInt(v, &bloomChecks, &bloomPasses) }
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
}

// probePairs probes l's rows against bld, morsel by morsel when par; emit
// appends a batch's output pairs (or, for a selection, left rows alone) to
// the morsel's pooled scratch. The lists come back concatenated in morsel
// order, allocated once at their final size plus room for extra more
// pairs (non-nil: counted after the probe barrier), with whether any ri is
// a pad. The lists are e's until Release: the output view keeps them.
func (e *Exec) probePairs(l *ColTable, lk []int, bld *batchBuild, par bool, extra func() int, emit func(sc *batchScratch, rows []int32, posts [][]int32)) (li, ri []int32, padded bool) {
	e.read(l, lk...)
	n := l.Card()
	chunks := make([]*batchScratch, e.spans(n, par))
	e.forSpans(n, par, func(m, lo, hi int) {
		sc := batchScratchPool.Get().(*batchScratch)
		sc.li, sc.ri, sc.padded = sc.li[:0], sc.ri[:0], false
		e.probePostings(sc, l, lk, bld, lo, hi, func(rows []int32, posts [][]int32) { emit(sc, rows, posts) })
		chunks[m] = sc
	})
	nl := 0
	if extra != nil {
		nl = extra()
	}
	nr := nl
	for _, sc := range chunks {
		nl, nr = nl+len(sc.li), nr+len(sc.ri)
	}
	li, ri = takeDirty[int32](e, nl)[:0], takeDirty[int32](e, nr)[:0]
	for _, sc := range chunks {
		li, ri, padded = append(li, sc.li...), append(ri, sc.ri...), padded || sc.padded
		batchScratchPool.Put(sc)
	}
	return li, ri, padded
}

// joinView is the join output over the pairs (lidx, ridx) under the
// schema s, l's ◦ r's: a view of both inputs' columns (carry). A side that
// holds pads is gathered; a nil pad row means NULL padding.
func (e *Exec) joinView(l, r *ColTable, s *Schema, lidx, ridx []int32, lpad, rpad Row, lpadded, rpadded, par bool) *ColTable {
	w := s.Len()
	out := &ColTable{Schema: s, N: len(lidx), Cols: make([]Vector, 0, w), side: make([]int16, 0, w),
		via: make([][]int32, 0, len(l.via)+len(r.via)+2)}
	e.carry(out, l, lidx, lpad, lpadded, par)
	e.carry(out, r, ridx, rpad, rpadded, par)
	return out
}

// selTable is t's rows at the physical rows sel, ascending: the shared
// input columns under a selection vector, or — t a view — the view through
// sel. A nil sel (no surviving rows) is the empty selection, not "all
// rows".
func selTable(t *ColTable, sel []int32) *ColTable {
	if sel == nil {
		sel = []int32{}
	}
	if t.side == nil {
		return &ColTable{Schema: t.Schema, Cols: t.Cols, N: t.N, Sel: sel}
	}
	out := &ColTable{Schema: t.Schema, N: len(sel)}
	(*Exec)(nil).carry(out, t, sel, nil, false, false)
	return out
}

// BatchHashJoin is the inner equi-join l ⋈ r on the batch runtime. s is
// the output schema, l.Schema.Concat(r.Schema), resolved by the caller.
func (e *Exec) BatchHashJoin(l, r *ColTable, lk, rk []int, s *Schema) *ColTable {
	par := e.parForBatch(max(l.Card(), r.Card()))
	bld := e.batchBuildSide(r, rk, l.Card())
	lidx, ridx, _ := e.probePairs(l, lk, bld, par, nil, func(sc *batchScratch, rows []int32, posts [][]int32) {
		for k, i := range rows {
			for _, ri := range posts[k] {
				sc.li = append(sc.li, i)
				sc.ri = append(sc.ri, ri)
			}
		}
	})
	return e.joinView(l, r, s, lidx, ridx, nil, nil, false, false, par)
}

// batchHashFilter is the left semijoin (matched) or antijoin (!matched): a
// pure selection-vector operation, zero row copies. Dead rows resolve to
// nil postings, so the antijoin keeps NULL-key rows — strict equality
// matches them to nothing.
func (e *Exec) batchHashFilter(l, r *ColTable, lk, rk []int, matched bool) *ColTable {
	par := e.parForBatch(max(l.Card(), r.Card()))
	bld := e.batchBuildSide(r, rk, l.Card())
	sel, _, _ := e.probePairs(l, lk, bld, par, nil, func(sc *batchScratch, rows []int32, posts [][]int32) {
		for k, i := range rows {
			if (len(posts[k]) > 0) == matched {
				sc.li = append(sc.li, i)
			}
		}
	})
	return selTable(l, sel)
}

// BatchHashSemiJoin is the left semijoin l ⋉ r.
func (e *Exec) BatchHashSemiJoin(l, r *ColTable, lk, rk []int) *ColTable {
	return e.batchHashFilter(l, r, lk, rk, true)
}

// BatchHashAntiJoin is the left antijoin l ▷ r: the rows without a partner.
func (e *Exec) BatchHashAntiJoin(l, r *ColTable, lk, rk []int) *ColTable {
	return e.batchHashFilter(l, r, lk, rk, false)
}

// BatchHashLeftOuter is the left outerjoin on the batch runtime. pad must
// be a full row over r's schema; s is as for BatchHashJoin.
func (e *Exec) BatchHashLeftOuter(l, r *ColTable, lk, rk []int, pad Row, s *Schema) *ColTable {
	return e.batchHashOuter(l, r, lk, rk, nil, pad, s, false)
}

// BatchHashFullOuter is the full outerjoin on the batch runtime.
func (e *Exec) BatchHashFullOuter(l, r *ColTable, lk, rk []int, lpad, rpad Row, s *Schema) *ColTable {
	return e.batchHashOuter(l, r, lk, rk, lpad, rpad, s, true)
}

// batchHashOuter is the left outerjoin and, with the right tail, the full
// one: matched build rows are marked through atomics (false→true only, so
// concurrent marking is order-independent) and the unmatched right rows
// appended after the probe barrier in build-input order.
func (e *Exec) batchHashOuter(l, r *ColTable, lk, rk []int, lpad, rpad Row, s *Schema, tail bool) *ColTable {
	par := e.parForBatch(max(l.Card(), r.Card()))
	bld := e.batchBuildSide(r, rk, -1)
	var matched []atomic.Bool
	var unmatched []int32
	if tail {
		matched = make([]atomic.Bool, r.N)
	}
	lidx, ridx, rpadded := e.probePairs(l, lk, bld, par, func() int {
		for j := 0; tail && j < r.Card(); j++ {
			if ri := r.phys(j); !matched[ri].Load() {
				unmatched = append(unmatched, ri)
			}
		}
		return len(unmatched)
	}, func(sc *batchScratch, rows []int32, posts [][]int32) {
		for k, i := range rows {
			if len(posts[k]) == 0 {
				sc.li, sc.ri, sc.padded = append(sc.li, i), append(sc.ri, -1), true
				continue
			}
			for _, ri := range posts[k] {
				if tail {
					matched[ri].Store(true)
				}
				sc.li = append(sc.li, i)
				sc.ri = append(sc.ri, ri)
			}
		}
	})
	for _, ri := range unmatched {
		lidx, ridx = append(lidx, -1), append(ridx, ri)
	}
	return e.joinView(l, r, s, lidx, ridx, lpad, rpad, len(unmatched) > 0, rpadded, par)
}

// BatchHashGroupJoin is the groupjoin on the batch runtime: every left
// row is extended by the vector's aggregates over its partner bucket,
// folded in build-input order through the shared accumulator core
// (updateVals), so results equal the row operator's bit for bit. bound is
// the groupjoin's vector bound to r's schema, s the output schema: l's,
// then the vector's outputs.
func (e *Exec) BatchHashGroupJoin(l, r *ColTable, lk, rk []int, bound []BoundAgg, s *Schema) *ColTable {
	par := e.parForBatch(max(l.Card(), r.Card()))
	bld := e.batchBuildSide(r, rk, -1)
	e.read(l, lk...)
	e.readAggs(r, bound)
	n := l.Card()
	aggRows := make([][]Value, n)
	e.forSpans(n, par, func(_, lo, hi int) {
		var scratch []byte
		cells := make([]aggCell, len(bound))
		sc := batchScratchPool.Get().(*batchScratch)
		at := lo // the batch's first logical row
		e.probePostings(sc, l, lk, bld, lo, hi, func(rows []int32, posts [][]int32) {
			for k := range rows {
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
				aggRows[at+k] = vals
			}
			at += len(rows)
		})
		batchScratchPool.Put(sc)
	})
	// l's columns stay views; the aggregate columns are dense beside them.
	out := e.extended(l, s)
	for c := range bound {
		var b colBuilder
		for _, vals := range aggRows {
			b.append(vals[c])
		}
		out.addDense(b.finish())
	}
	return out
}
