package algebra

import "sync/atomic"

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
//     order, build-input order and probe output order survive zero-copy
//     selection unchanged.
//
// Late materialization (Abadi et al., ICDE'07): a join copies no column.
// Its output is a view — Cols[c] is still the input's vector, and logical
// row i of slot c is row via[side[c]][i] of it: the join's pair index
// vector for that input, one per input side and shared by all of the
// side's columns, composed with the input's own where that was a view
// already (carry). A column is gathered into the view's row space by the
// first operator that reads it (Exec.read), on that operator's driver
// goroutine before it fans out, so kernels only ever see gathered columns
// and nothing synchronizes on a view; a column nobody reads is never
// gathered. Sel is the one-source, monotone case of the same indirection
// (ix): a table has a selection or deferred columns, never both.
type ColTable struct {
	Schema *Schema
	Cols   []Vector
	// N is the row count of the table's row space: the physical rows of
	// the column vectors, or a view's pairs.
	N int
	// Sel, when non-nil, selects the visible rows: logical row i is
	// physical row Sel[i]. Monotone increasing — see the invariant above.
	Sel []int32
	// side[c] is slot c's index vector in via while the column is deferred,
	// -1 once it is gathered (or was dense from the start); a nil side is
	// all -1.
	via  [][]int32
	side []int16
}

// Card returns the logical number of rows.
func (t *ColTable) Card() int {
	if t.Sel != nil {
		return len(t.Sel)
	}
	return t.N
}

// phys maps a logical row index to its physical index.
func (t *ColTable) phys(i int) int32 {
	if t.Sel != nil {
		return t.Sel[i]
	}
	return int32(i)
}

// ix returns the index vector slot c is read through — logical row i is
// row ix[i] of Cols[c]; nil reads row i itself.
func (t *ColTable) ix(c int) []int32 {
	if t.side != nil && t.side[c] >= 0 {
		return t.via[t.side[c]]
	}
	return t.Sel
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
// slab, so the result is the same for every worker count. A view's
// deferred columns are read through their index vectors straight into the
// slab.
func (e *Exec) RowTable(t *ColTable) *Table {
	n := t.Card()
	rows := make([]Row, n)
	slab := make([]Value, n*t.Schema.Len()) // zero Value = NULL, so NULLs need no writes
	e.forSpans(n, e.parForBatch(n), func(_, lo, hi int) { t.fillRows(rows, slab, lo, hi) })
	for c := range t.side {
		if t.side[c] >= 0 {
			e.hashStats().recordGather(1, n)
		}
	}
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
	var ident [rowBlock]int32
	for b := lo; b < hi; b += rowBlock {
		end := min(b+rowBlock, hi)
		for i := b; i < end; i++ {
			rows[i] = slab[i*w : (i+1)*w : (i+1)*w]
			ident[i-b] = int32(i)
		}
		for ci := range t.Cols {
			col, ps := &t.Cols[ci], ident[:end-b]
			if ix := t.ix(ci); ix != nil {
				ps = ix[b:end]
			}
			out := slab[b*w+ci:]
			switch col.Kind {
			case ColInt:
				for k, p := range ps {
					if !col.IsNull(int(p)) {
						v := &out[k*w]
						v.Kind, v.I = KindInt, col.Ints[p]
					}
				}
			case ColFloat:
				for k, p := range ps {
					if !col.IsNull(int(p)) {
						v := &out[k*w]
						v.Kind, v.F = KindFloat, col.Floats[p]
					}
				}
			case ColStr:
				for k, p := range ps {
					if !col.IsNull(int(p)) {
						v := &out[k*w]
						v.Kind, v.S = KindString, col.Strs[p]
					}
				}
			case ColMixed:
				for k, p := range ps {
					out[k*w] = col.Vals[p]
				}
			}
		}
	}
}

// read gathers those of t's given columns (negative: an absent attribute)
// that are still deferred. An operator calls it for every slot it is about
// to read, on its driver goroutine before it fans out.
func (e *Exec) read(t *ColTable, slots ...int) {
	for _, c := range slots {
		if c >= 0 && t.side != nil && t.side[c] >= 0 {
			idx := t.via[t.side[c]]
			t.Cols[c] = e.gatherCol(&t.Cols[c], idx, e.parForBatch(len(idx)))
			t.side[c] = -1
			e.hashStats().recordGather(1, len(idx))
		}
	}
}

// carry appends t's columns at the row handles idx (physical rows of t, in
// any order, repeated at will) to the view out, copying none: a column
// gathered in t is read through idx itself, a deferred one through its own
// index vector composed with idx — one int32 gather per side of t, whatever
// the side's width. A side padded by an outer join (idx holds -1, pad the
// values to read there; nil pads with NULL) is gathered on the spot, one
// column per task when par.
func (e *Exec) carry(out, t *ColTable, idx []int32, pad Row, padded, par bool) {
	o := len(out.Cols)
	out.Cols = append(out.Cols, t.Cols...)
	// t's side (+1; 0: gathered) → out's (+1; 0: not carried yet); on the
	// stack while it fits.
	var few [16]int16
	at := few[:]
	if len(t.via) >= len(few) {
		at = make([]int16, len(t.via)+1)
	}
	for c := range t.Cols {
		k := 0
		if t.side != nil {
			k = int(t.side[c]) + 1
		}
		if at[k] == 0 {
			v := idx
			if k > 0 {
				inner := t.via[k-1]
				v = takeDirty[int32](e, len(idx))
				e.forSpans(len(idx), par, func(_, lo, hi int) {
					for i, p := range idx[lo:hi] {
						v[lo+i] = -1
						if p >= 0 {
							v[lo+i] = inner[p]
						}
					}
				})
			}
			out.via = append(out.via, v)
			at[k] = int16(len(out.via))
		}
		out.side = append(out.side, at[k]-1)
	}
	if !padded {
		return
	}
	fill := func(c int) {
		p := Null
		if pad != nil {
			p = pad[c]
		}
		out.Cols[o+c] = gatherColPad(&t.Cols[c], out.via[out.side[o+c]], p)
		out.side[o+c] = -1
	}
	if par {
		e.forTasks(len(t.Cols), fill)
	} else {
		for c := range t.Cols {
			fill(c)
		}
	}
	e.hashStats().recordGather(len(t.Cols), len(t.Cols)*len(idx))
}

// extended returns t's logical rows under schema s — t's, extended — as a
// table the further columns can be appended to dense (addDense): a dense
// table or a view as it stands, a table under a selection as the view
// through Sel.
func (e *Exec) extended(t *ColTable, s *Schema) *ColTable {
	out := &ColTable{Schema: s, N: t.Card(), Cols: make([]Vector, 0, s.Len())}
	if t.Sel != nil {
		out.side = make([]int16, 0, s.Len())
		e.carry(out, t, t.Sel, nil, false, false)
		return out
	}
	out.Cols, out.via = append(out.Cols, t.Cols...), t.via
	if t.side != nil {
		out.side = append(make([]int16, 0, s.Len()), t.side...)
	}
	return out
}

// addDense appends a column over t's row space.
func (t *ColTable) addDense(v Vector) {
	t.Cols = append(t.Cols, v)
	if t.side != nil {
		t.side = append(t.side, -1)
	}
}

// gatherCol builds a dense vector, taken from e, holding col[idx[0]],
// col[idx[1]], … — the typed assembly step of the batch operators, fanned
// out over 64-aligned row spans (so no two share a bitmap word) when par.
// Every index must be a valid physical row (no pads).
func (e *Exec) gatherCol(col *Vector, idx []int32, par bool) Vector {
	n := len(idx)
	out := Vector{Kind: col.Kind}
	switch col.Kind {
	case ColInt:
		out.Ints = takeDirty[int64](e, n)
	case ColFloat:
		out.Floats = takeDirty[float64](e, n)
	case ColStr:
		out.Strs = takeDirty[string](e, n)
	case ColMixed:
		out.Vals = make([]Value, n)
	}
	if col.Kind != ColMixed && col.Nulls != nil {
		out.Nulls = take[uint64](e, (n+63)/64)
	}
	hasNull := false
	if par {
		hasNull = e.gatherSpans(out, col, idx)
	} else {
		hasNull = out.gather(col, idx, 0, n)
	}
	if !hasNull {
		out.Nulls = nil
	}
	return out
}

// gatherSpans is out.gather over all of idx on e's workers — a function of
// its own so that gatherCol's vector is not captured by a closure and stays
// off the heap on the sequential path (8-row tables gather too).
func (e *Exec) gatherSpans(out Vector, col *Vector, idx []int32) bool {
	n := len(idx)
	span := (e.sizeFor(n) + 63) &^ 63
	var hasNull atomic.Bool
	e.forTasks((n+span-1)/span, func(m int) {
		if out.gather(col, idx, m*span, min((m+1)*span, n)) {
			hasNull.Store(true)
		}
	})
	return hasNull.Load()
}

// gather fills rows [lo, hi) of out, sized and typed like col, with
// col[idx[lo]], … and reports whether a NULL was among them.
func (out *Vector) gather(col *Vector, idx []int32, lo, hi int) (hasNull bool) {
	switch col.Kind {
	case ColInt:
		for i, p := range idx[lo:hi] {
			out.Ints[lo+i] = col.Ints[p]
		}
	case ColFloat:
		for i, p := range idx[lo:hi] {
			out.Floats[lo+i] = col.Floats[p]
		}
	case ColStr:
		for i, p := range idx[lo:hi] {
			out.Strs[lo+i] = col.Strs[p]
		}
	case ColMixed:
		for i, p := range idx[lo:hi] {
			out.Vals[lo+i] = col.Vals[p]
		}
	}
	if out.Nulls != nil {
		for i, p := range idx[lo:hi] {
			if col.IsNull(int(p)) {
				out.Nulls[(lo+i)>>6] |= 1 << (uint(lo+i) & 63)
				hasNull = true
			}
		}
	}
	return hasNull
}

// gatherColPad is gatherCol with outerjoin padding: index -1 reads as the
// pad value (an engine default vector entry — NULL, Int(0) or Int(1)).
// When the pad's kind does not fit the column's, the output demotes to
// ColMixed — exactly the mixed-kind column the row runtime would produce.
// Only for a side that holds a pad: whether it does is known where the
// pairs are produced, not scanned for per column.
func gatherColPad(col *Vector, idx []int32, pad Value) Vector {
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
