package algebra

import (
	"encoding/binary"
	"math"
)

// Column-major key encoding for the batch runtime: one batch of rows gets
// its grouping or join keys built column by column — the kind dispatch
// happens once per column per batch instead of once per value, but every
// produced key is byte-for-byte the appendRowKey/appendJoinKey encoding,
// so batch and row operators hash and compare identically.

// keyBatch holds the encoded keys of one batch. All buffers are reused
// across batches (reset re-slices, it never frees), and the per-row key
// buffers are carved out of one shared slab, so preparing a batch costs a
// constant number of allocations, not one per row.
type keyBatch struct {
	keys [][]byte
	// dead marks rows whose join key contains NULL or NaN — they match
	// nothing under strict equality (join encodings only; grouping keys
	// give NULL its own tag and are never dead).
	dead []bool
}

// keyChunk is the expected encoded size of one key component: a kind tag
// plus a fixed-width payload, with a byte to spare.
const keyChunk = 10

// reset prepares the buffers for a batch of n rows whose keys are
// expected to need about chunk bytes each (fixed-width components; only
// long strings overflow a chunk, and then append reallocates just that
// row's buffer).
func (kb *keyBatch) reset(n, chunk int) {
	if cap(kb.keys) < n {
		nk := make([][]byte, n)
		copy(nk, kb.keys[:cap(kb.keys)])
		kb.keys = nk
	} else {
		kb.keys = kb.keys[:n]
	}
	var slab []byte
	for i := range kb.keys {
		if cap(kb.keys[i]) != 0 {
			kb.keys[i] = kb.keys[i][:0]
			continue
		}
		if len(slab) < chunk {
			slab = make([]byte, (n-i)*chunk)
		}
		kb.keys[i] = slab[:0:chunk]
		slab = slab[chunk:]
	}
	if cap(kb.dead) < n {
		kb.dead = make([]bool, n)
	} else {
		kb.dead = kb.dead[:n]
		clear(kb.dead)
	}
}

// encodeGroup builds the grouping keys of the given physical rows over
// the slot columns — the columnar appendRowKey. Slot -1 reads as a NULL
// column.
func (kb *keyBatch) encodeGroup(t *ColTable, rows []int32, slots []int) {
	kb.reset(len(rows), keyChunk*len(slots))
	for _, s := range slots {
		if s < 0 {
			for k := range rows {
				kb.keys[k] = append(kb.keys[k], keyNull)
			}
			continue
		}
		col := &t.Cols[s]
		switch col.Kind {
		case ColInt:
			for k, i := range rows {
				if col.IsNull(int(i)) {
					kb.keys[k] = append(kb.keys[k], keyNull)
					continue
				}
				kb.keys[k] = append(kb.keys[k], keyInt)
				kb.keys[k] = binary.BigEndian.AppendUint64(kb.keys[k], uint64(col.Ints[i]))
			}
		case ColFloat:
			for k, i := range rows {
				if col.IsNull(int(i)) {
					kb.keys[k] = append(kb.keys[k], keyNull)
					continue
				}
				f := col.Floats[i]
				if math.IsNaN(f) {
					f = math.NaN() // canonicalize payloads, like appendKeyValue
				}
				kb.keys[k] = append(kb.keys[k], keyFloat)
				kb.keys[k] = binary.BigEndian.AppendUint64(kb.keys[k], math.Float64bits(f))
			}
		case ColStr:
			for k, i := range rows {
				if col.IsNull(int(i)) {
					kb.keys[k] = append(kb.keys[k], keyNull)
					continue
				}
				s := col.Strs[i]
				kb.keys[k] = append(kb.keys[k], keyString)
				kb.keys[k] = binary.AppendUvarint(kb.keys[k], uint64(len(s)))
				kb.keys[k] = append(kb.keys[k], s...)
			}
		case ColMixed:
			for k, i := range rows {
				kb.keys[k] = appendKeyValue(kb.keys[k], col.Vals[i])
			}
		}
	}
}

// encodeJoin builds the join keys of the given physical rows over the
// slot columns — the columnar appendJoinKey, with rowHasNullKey folded
// into the dead marks: a NULL or NaN key component kills the row (strict
// equality matches it to nothing). Dead rows carry truncated keys and
// must not be hashed.
func (kb *keyBatch) encodeJoin(t *ColTable, rows []int32, slots []int) {
	kb.reset(len(rows), keyChunk*len(slots))
	for _, s := range slots {
		if s < 0 {
			// Absent attribute: every key component is NULL.
			for k := range rows {
				kb.dead[k] = true
			}
			continue
		}
		col := &t.Cols[s]
		switch col.Kind {
		case ColInt:
			for k, i := range rows {
				if kb.dead[k] {
					continue
				}
				if col.IsNull(int(i)) {
					kb.dead[k] = true
					continue
				}
				kb.keys[k] = append(kb.keys[k], keyInt)
				kb.keys[k] = binary.BigEndian.AppendUint64(kb.keys[k], uint64(col.Ints[i]))
			}
		case ColFloat:
			for k, i := range rows {
				if kb.dead[k] {
					continue
				}
				if col.IsNull(int(i)) {
					kb.dead[k] = true
					continue
				}
				f := col.Floats[i]
				if math.IsNaN(f) {
					kb.dead[k] = true
					continue
				}
				// Integral floats normalize to the integer encoding
				// (join equality is numeric across kinds).
				if n := int64(f); float64(n) == f {
					kb.keys[k] = append(kb.keys[k], keyInt)
					kb.keys[k] = binary.BigEndian.AppendUint64(kb.keys[k], uint64(n))
					continue
				}
				kb.keys[k] = append(kb.keys[k], keyFloat)
				kb.keys[k] = binary.BigEndian.AppendUint64(kb.keys[k], math.Float64bits(f))
			}
		case ColStr:
			for k, i := range rows {
				if kb.dead[k] {
					continue
				}
				if col.IsNull(int(i)) {
					kb.dead[k] = true
					continue
				}
				s := col.Strs[i]
				kb.keys[k] = append(kb.keys[k], keyString)
				kb.keys[k] = binary.AppendUvarint(kb.keys[k], uint64(len(s)))
				kb.keys[k] = append(kb.keys[k], s...)
			}
		case ColMixed:
			for k, i := range rows {
				if kb.dead[k] {
					continue
				}
				v := col.Vals[i]
				if v.IsNull() || (v.Kind == KindFloat && math.IsNaN(v.F)) {
					kb.dead[k] = true
					continue
				}
				if v.Kind == KindFloat {
					if n := int64(v.F); float64(n) == v.F {
						v = Int(n)
					}
				}
				kb.keys[k] = appendKeyValue(kb.keys[k], v)
			}
		}
	}
}
