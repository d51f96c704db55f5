package algebra

// Columnar batches: the vectorized counterpart of Table (MonetDB/X100
// style, Boncz et al., CIDR'05). A ColTable stores one typed Vector per
// schema slot — a flat []int64 / []float64 / []string payload plus a null
// bitmap — instead of per-row []Value tuples, and the batch operators
// (batchjoin.go, batchagg.go) process it a batch of rows at a time: one
// column-kind dispatch per column per batch instead of a 40-byte
// tagged-union load and a kind switch per value.
//
// Two invariants make the batch runtime bit-identical to the row runtime:
//
//   - A column is typed (ColInt/ColFloat/ColStr) only when every non-NULL
//     value in it has that one kind; columns mixing kinds fall back to
//     ColMixed, which stores tagged Values and routes every consumer
//     through the exact row-runtime semantics. Typed fast paths therefore
//     never have to guess a value's kind — the trajectory of every
//     aggregate accumulator (int stays int, float stays float) equals the
//     row runtime's by construction.
//
//   - Sel, the selection vector, is monotone increasing by construction:
//     selections (semi/antijoin) filter rows, they never reorder them. A
//     ColTable's logical row order thus always equals its physical row
//     order restricted to the selected indices, so first-encounter group
//     order, build-input posting order and probe output order survive
//     zero-copy selection unchanged.
type ColTable struct {
	Schema *Schema
	Cols   []Vector
	// N is the physical row count of the column vectors.
	N int
	// Sel, when non-nil, selects the visible rows: logical row i is
	// physical row Sel[i]. Monotone increasing — see the invariant above.
	Sel []int32
}

// Card returns the logical number of rows.
func (t *ColTable) Card() int {
	if t.Sel != nil {
		return len(t.Sel)
	}
	return t.N
}

// TabSchema returns the schema — the runtime-neutral accessor shared with
// Table so the engine can hold either representation behind one
// interface.
func (t *ColTable) TabSchema() *Schema { return t.Schema }

// phys maps a logical row index to its physical index.
func (t *ColTable) phys(i int) int32 {
	if t.Sel != nil {
		return t.Sel[i]
	}
	return int32(i)
}

// physBatch appends the physical indices of logical rows [lo, hi) to buf
// (reset first) — the per-batch row list every batch kernel iterates.
func (t *ColTable) physBatch(lo, hi int, buf []int32) []int32 {
	buf = buf[:0]
	if t.Sel != nil {
		return append(buf, t.Sel[lo:hi]...)
	}
	for i := lo; i < hi; i++ {
		buf = append(buf, int32(i))
	}
	return buf
}

// ColKind classifies a column's physical representation.
type ColKind uint8

const (
	// ColInt: every non-NULL value is KindInt, payload in Ints.
	ColInt ColKind = iota
	// ColFloat: every non-NULL value is KindFloat, payload in Floats.
	ColFloat
	// ColStr: every non-NULL value is KindString, payload in Strs.
	ColStr
	// ColMixed: values of several kinds; per-value tagged fallback in
	// Vals. Consumers route through the row-runtime Value semantics.
	ColMixed
)

// Vector is one column: a typed payload slice (indexed by physical row)
// plus a null bitmap. NULL positions hold zero placeholders in the
// payload; the bitmap is the source of truth. A nil bitmap means "no
// NULLs"; a short bitmap covers only the prefix that contains them.
type Vector struct {
	Kind   ColKind
	Ints   []int64
	Floats []float64
	Strs   []string
	Vals   []Value // ColMixed only
	Nulls  []uint64
}

// IsNull reports whether physical row i is NULL.
func (v *Vector) IsNull(i int) bool {
	if v.Kind == ColMixed {
		return v.Vals[i].Kind == KindNull
	}
	w := i >> 6
	return w < len(v.Nulls) && v.Nulls[w]&(1<<(uint(i)&63)) != 0
}

// Value materializes physical row i as a tagged Value.
func (v *Vector) Value(i int) Value {
	switch v.Kind {
	case ColMixed:
		return v.Vals[i]
	}
	if v.IsNull(i) {
		return Null
	}
	switch v.Kind {
	case ColInt:
		return Int(v.Ints[i])
	case ColFloat:
		return Float(v.Floats[i])
	case ColStr:
		return Str(v.Strs[i])
	}
	panic("algebra: unknown column kind")
}

// colBuilder accumulates one column value by value, keeping the tightest
// kind: it starts typed on the first non-NULL value and demotes to
// ColMixed only when a second kind appears.
type colBuilder struct {
	kind    ColKind
	typed   bool // a non-NULL value fixed the kind
	n       int
	ints    []int64
	floats  []float64
	strs    []string
	vals    []Value
	nulls   []uint64
	hasNull bool
}

func (b *colBuilder) setNull(i int) {
	w := i>>6 + 1
	for len(b.nulls) < w {
		b.nulls = append(b.nulls, 0)
	}
	b.nulls[i>>6] |= 1 << (uint(i) & 63)
	b.hasNull = true
}

// demote rebuilds the column as ColMixed from whatever was collected.
func (b *colBuilder) demote() {
	vals := make([]Value, 0, b.n)
	for i := 0; i < b.n; i++ {
		vals = append(vals, b.valueAt(i))
	}
	b.kind = ColMixed
	b.vals = vals
	b.ints, b.floats, b.strs, b.nulls = nil, nil, nil, nil
}

func (b *colBuilder) valueAt(i int) Value {
	if b.kind != ColMixed {
		w := i >> 6
		if w < len(b.nulls) && b.nulls[w]&(1<<(uint(i)&63)) != 0 {
			return Null
		}
	}
	switch b.kind {
	case ColInt:
		return Int(b.ints[i])
	case ColFloat:
		return Float(b.floats[i])
	case ColStr:
		return Str(b.strs[i])
	}
	return b.vals[i]
}

// append adds one value to the column.
func (b *colBuilder) append(v Value) {
	if b.kind == ColMixed {
		b.vals = append(b.vals, v)
		b.n++
		return
	}
	if v.Kind == KindNull {
		b.setNull(b.n)
		b.pad()
		b.n++
		return
	}
	want := colKindOfValue(v.Kind)
	if !b.typed {
		b.kind = want
		b.typed = true
		// Every earlier value was a NULL padded into the default backing
		// array; re-pad them into the one the kind now selects so indices
		// stay aligned.
		b.ints, b.floats, b.strs = b.ints[:0], b.floats[:0], b.strs[:0]
		for i := 0; i < b.n; i++ {
			b.pad()
		}
	} else if b.kind != want {
		b.demote()
		b.vals = append(b.vals, v)
		b.n++
		return
	}
	switch b.kind {
	case ColInt:
		b.ints = append(b.ints, v.I)
	case ColFloat:
		b.floats = append(b.floats, v.F)
	case ColStr:
		b.strs = append(b.strs, v.S)
	}
	b.n++
}

// pad appends the zero placeholder of the current typed payload.
func (b *colBuilder) pad() {
	switch b.kind {
	case ColInt:
		b.ints = append(b.ints, 0)
	case ColFloat:
		b.floats = append(b.floats, 0)
	case ColStr:
		b.strs = append(b.strs, "")
	}
}

func colKindOfValue(k ValueKind) ColKind {
	switch k {
	case KindInt:
		return ColInt
	case KindFloat:
		return ColFloat
	case KindString:
		return ColStr
	}
	panic("algebra: no column kind for NULL")
}

// finish returns the built vector.
func (b *colBuilder) finish() Vector {
	v := Vector{Kind: b.kind, Ints: b.ints, Floats: b.floats, Strs: b.strs, Vals: b.vals}
	if b.hasNull {
		v.Nulls = b.nulls
	}
	return v
}

// colTableFromRows builds a columnar table from materialized rows.
func colTableFromRows(s *Schema, rows []Row) *ColTable {
	cols := make([]Vector, s.Len())
	for c := range cols {
		var b colBuilder
		for _, r := range rows {
			b.append(r[c])
		}
		cols[c] = b.finish()
	}
	return &ColTable{Schema: s, Cols: cols, N: len(rows)}
}

// ColTableOf converts a row table into its columnar form.
func ColTableOf(t *Table) *ColTable {
	return colTableFromRows(t.Schema, t.Rows)
}

// Table materializes the columnar table back into rows (logical order),
// slicing every row out of one backing slab. Values are rebuilt field for
// field as the canonical constructors build them, so a round trip through
// the batch runtime is bit-identical to the row pipeline.
func (t *ColTable) Table() *Table { return (*Exec)(nil).RowTable(t) }

// RowTable is t.Table() on e's workers: from batchParallelCutoff rows up
// the row spans are filled concurrently — disjoint spans of one pre-sized
// slab, so the result is the same for every worker count.
func (e *Exec) RowTable(t *ColTable) *Table {
	n := t.Card()
	rows := make([]Row, n)
	slab := make([]Value, n*t.Schema.Len()) // zero Value = NULL, so NULLs need no writes
	e.forSpans(n, e.parForBatch(n), func(_, lo, hi int) { t.fillRows(rows, slab, lo, hi) })
	return &Table{Schema: t.Schema, Rows: rows}
}

// rowBlock is how many rows fillRows converts at a time: their slab
// stretch stays cache-resident while one column after the other is
// written into it, where whole-column passes over the slab would touch a
// new cache line per value.
const rowBlock = 128

// fillRows materializes logical rows [lo, hi) into their stretch of slab.
func (t *ColTable) fillRows(rows []Row, slab []Value, lo, hi int) {
	w := len(t.Cols)
	for b := lo; b < hi; b += rowBlock {
		end := min(b+rowBlock, hi)
		for i := b; i < end; i++ {
			rows[i] = slab[i*w : (i+1)*w : (i+1)*w]
		}
		for ci := range t.Cols {
			col := &t.Cols[ci]
			switch col.Kind {
			case ColInt:
				for i := b; i < end; i++ {
					if p := int(t.phys(i)); !col.IsNull(p) {
						v := &slab[i*w+ci]
						v.Kind, v.I = KindInt, col.Ints[p]
					}
				}
			case ColFloat:
				for i := b; i < end; i++ {
					if p := int(t.phys(i)); !col.IsNull(p) {
						v := &slab[i*w+ci]
						v.Kind, v.F = KindFloat, col.Floats[p]
					}
				}
			case ColStr:
				for i := b; i < end; i++ {
					if p := int(t.phys(i)); !col.IsNull(p) {
						v := &slab[i*w+ci]
						v.Kind, v.S = KindString, col.Strs[p]
					}
				}
			case ColMixed:
				for i := b; i < end; i++ {
					slab[i*w+ci] = col.Vals[int(t.phys(i))]
				}
			}
		}
	}
}

// Compact materializes the selection: a dense table (Sel == nil) with the
// same logical rows. A table without a selection is returned as-is.
func (t *ColTable) Compact() *ColTable {
	if t.Sel == nil {
		return t
	}
	cols := make([]Vector, len(t.Cols))
	for c := range t.Cols {
		cols[c] = gatherCol(&t.Cols[c], t.Sel)
	}
	return &ColTable{Schema: t.Schema, Cols: cols, N: len(t.Sel)}
}

// gatherCol builds a fresh dense vector holding col[idx[0]], col[idx[1]],
// … — the typed assembly step of batch joins. Every index must be a valid
// physical row (no pads).
func gatherCol(col *Vector, idx []int32) Vector {
	out := Vector{Kind: col.Kind}
	var nulls []uint64
	hasNull := false
	markNull := func(i int) {
		if nulls == nil {
			nulls = make([]uint64, (len(idx)+63)/64)
		}
		nulls[i>>6] |= 1 << (uint(i) & 63)
		hasNull = true
	}
	switch col.Kind {
	case ColInt:
		out.Ints = make([]int64, len(idx))
		for i, p := range idx {
			out.Ints[i] = col.Ints[p]
			if col.IsNull(int(p)) {
				markNull(i)
			}
		}
	case ColFloat:
		out.Floats = make([]float64, len(idx))
		for i, p := range idx {
			out.Floats[i] = col.Floats[p]
			if col.IsNull(int(p)) {
				markNull(i)
			}
		}
	case ColStr:
		out.Strs = make([]string, len(idx))
		for i, p := range idx {
			out.Strs[i] = col.Strs[p]
			if col.IsNull(int(p)) {
				markNull(i)
			}
		}
	case ColMixed:
		out.Vals = make([]Value, len(idx))
		for i, p := range idx {
			out.Vals[i] = col.Vals[p]
		}
	}
	if hasNull {
		out.Nulls = nulls
	}
	return out
}

// gatherColPad is gatherCol with outerjoin padding: index -1 reads as the
// pad value (an engine default vector entry — NULL, Int(0) or Int(1)).
// When the pad's kind does not fit the column's, the output demotes to
// ColMixed — exactly the mixed-kind column the row runtime would produce.
func gatherColPad(col *Vector, idx []int32, pad Value) Vector {
	padded := false
	for _, p := range idx {
		if p < 0 {
			padded = true
			break
		}
	}
	if !padded {
		return gatherCol(col, idx)
	}
	if pad.Kind != KindNull && (col.Kind == ColMixed || colKindOfValue(pad.Kind) != col.Kind) {
		// Pad kind disagrees with the column (or the column is already
		// mixed): assemble tagged values.
		out := Vector{Kind: ColMixed, Vals: make([]Value, len(idx))}
		for i, p := range idx {
			if p < 0 {
				out.Vals[i] = pad
			} else {
				out.Vals[i] = col.Value(int(p))
			}
		}
		return out
	}
	out := Vector{Kind: col.Kind}
	var nulls []uint64
	hasNull := false
	markNull := func(i int) {
		if nulls == nil {
			nulls = make([]uint64, (len(idx)+63)/64)
		}
		nulls[i>>6] |= 1 << (uint(i) & 63)
		hasNull = true
	}
	switch col.Kind {
	case ColMixed: // pad is NULL here (mismatching pads were handled above)
		out.Vals = make([]Value, len(idx))
		for i, p := range idx {
			if p >= 0 {
				out.Vals[i] = col.Vals[p]
			}
		}
	case ColInt:
		out.Ints = make([]int64, len(idx))
		for i, p := range idx {
			switch {
			case p < 0 && pad.Kind == KindNull:
				markNull(i)
			case p < 0:
				out.Ints[i] = pad.I
			default:
				out.Ints[i] = col.Ints[p]
				if col.IsNull(int(p)) {
					markNull(i)
				}
			}
		}
	case ColFloat: // pad is NULL or demoted above
		out.Floats = make([]float64, len(idx))
		for i, p := range idx {
			switch {
			case p < 0 && pad.Kind == KindNull:
				markNull(i)
			case p < 0:
				out.Floats[i] = pad.F
			default:
				out.Floats[i] = col.Floats[p]
				if col.IsNull(int(p)) {
					markNull(i)
				}
			}
		}
	case ColStr:
		out.Strs = make([]string, len(idx))
		for i, p := range idx {
			switch {
			case p < 0 && pad.Kind == KindNull:
				markNull(i)
			case p < 0:
				out.Strs[i] = pad.S
			default:
				out.Strs[i] = col.Strs[p]
				if col.IsNull(int(p)) {
					markNull(i)
				}
			}
		}
	}
	if hasNull {
		out.Nulls = nulls
	}
	return out
}

// colValue reads one value of a slot at a physical row; slot -1 reads as
// NULL, mirroring Row.get.
func colValue(t *ColTable, slot int, i int32) Value {
	if slot < 0 {
		return Null
	}
	return t.Cols[slot].Value(int(i))
}
