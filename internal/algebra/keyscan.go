package algebra

import "slices"

// Hashed key entries: the one key pipeline all batch hash operators share.
// A keyScan turns a table's key columns into keyEntry records — a single
// typed-int column yields its raw int64 payloads (no byte encoding, no
// copy), everything else the canonical encoded keys of batchkey.go in a
// byte arena — and hands them to one join build (buildKeys) or one grouper
// (feed) a batch at a time, in input order, on the calling goroutine.

// nullKey in keyEntry.klen marks the NULL key of an int-keyed grouping
// (NULLs form their own group; join scans drop them instead).
const nullKey = -1

// keyEntry is one input row's hashed key. It is pointer-free: entry
// arrays are invisible to the garbage collector's scan.
type keyEntry struct {
	row  int32  // physical row
	klen int32  // encoded key: byte length; int key: 0, or nullKey
	key  int64  // int key: the payload; encoded key: offset into the arena
	hash uint64 // hashInt64(key) / hashKey(bytes); 0 for the NULL key
}

// bytes returns an encoded entry's key bytes.
func (en *keyEntry) bytes(arena []byte) []byte {
	return arena[en.key : en.key+int64(en.klen)]
}

// keyScan extracts the hashed keys of a table over the given slots, as
// join keys (rows with a NULL/NaN component are dropped — they match
// nothing) or grouping keys (NULL is a key value of its own).
type keyScan struct {
	t     *ColTable
	slots []int
	join  bool
	col   *Vector // non-nil: the single typed-int key column — the int path
	// dense: the int column's keys fill [min, min+span) densely enough to
	// be addressed directly. Such a scan yields no entries at all: the
	// operators take the kernels of dense.go.
	dense bool
	min   int64
	span  int
}

func newKeyScan(t *ColTable, slots []int, join bool) *keyScan {
	ks := &keyScan{t: t, slots: slots, join: join}
	if len(slots) == 1 && slots[0] >= 0 && t.Cols[slots[0]].Kind == ColInt {
		ks.col = &t.Cols[slots[0]]
		ks.min, ks.span, ks.dense = denseRange(t, ks.col)
	}
	return ks
}

// fill appends the entries of logical rows [lo, hi) to out in row order,
// and the bytes of encoded keys to arena.
func (ks *keyScan) fill(lo, hi, bs int, out []keyEntry, arena []byte) ([]keyEntry, []byte) {
	t := ks.t
	if col := ks.col; col != nil {
		n := len(out)
		out = slices.Grow(out, hi-lo)[:n+hi-lo]
		for li := lo; li < hi; li++ {
			i := t.phys(li)
			if col.IsNull(int(i)) {
				if ks.join {
					continue
				}
				out[n] = keyEntry{row: i, klen: nullKey}
			} else {
				v := col.Ints[i]
				out[n] = keyEntry{row: i, key: v, hash: hashInt64(v)}
			}
			n++
		}
		return out[:n], arena
	}
	sc := batchScratchPool.Get().(*batchScratch)
	for b := lo; b < hi; b += bs {
		sc.rows = t.physBatch(b, min(b+bs, hi), sc.rows)
		if ks.join {
			sc.kb.encodeJoin(t, sc.rows, ks.slots)
		} else {
			sc.kb.encodeGroup(t, sc.rows, ks.slots)
		}
		for k, i := range sc.rows {
			if sc.kb.dead[k] {
				continue
			}
			key := sc.kb.keys[k]
			out = append(out, keyEntry{row: i, klen: int32(len(key)), key: int64(len(arena)), hash: hashKey(key)})
			arena = append(arena, key...)
		}
	}
	batchScratchPool.Put(sc)
	return out, arena
}

// scan hands fn the entries of logical rows [lo, hi) a batch at a time.
// The buffers are reused across batches; fn must not retain them.
func (ks *keyScan) scan(lo, hi, bs int, fn func(ents []keyEntry, arena []byte)) {
	sc := batchScratchPool.Get().(*batchScratch)
	for b := lo; b < hi; b += bs {
		sc.ents, sc.arena = ks.fill(b, min(b+bs, hi), bs, sc.ents[:0], sc.arena[:0])
		fn(sc.ents, sc.arena)
	}
	batchScratchPool.Put(sc)
}

// feed folds all n logical rows into g batch by batch: as key entries, or
// — a dense scan — as the bare rows.
func (ks *keyScan) feed(g *batchGrouper, n, bs int) {
	if !ks.dense {
		ks.scan(0, n, bs, g.add)
		return
	}
	var rows []int32
	for b := 0; b < n; b += bs {
		rows = ks.t.physBatch(b, min(b+bs, n), rows)
		g.addDense(rows)
	}
}
