package algebra

import "sync/atomic"

// Row is a flat tuple: one Value per schema slot. The zero-length row is
// valid for the empty schema.
type Row []Value

// get reads a resolved slot; slot -1 (unknown attribute) reads as NULL,
// mirroring Tuple.Get on the map runtime.
func (r Row) get(slot int) Value {
	if slot < 0 {
		return Null
	}
	return r[slot]
}

// Table is the slot-based counterpart of Rel: a bag of flat rows over a
// shared Schema. It is the representation the execution engine runs on;
// Rel remains the map-based construction and reference surface.
type Table struct {
	Schema *Schema
	Rows   []Row

	// col caches the columnar form built by Columnar. Tables are shared
	// read-only between operators and sessions, so the cache is an atomic
	// pointer: racing builders compute identical values and the duplicate
	// work is benign.
	col atomic.Pointer[ColTable]
}

// NewTable returns an empty table over the schema.
func NewTable(s *Schema) *Table { return &Table{Schema: s} }

// Card returns the number of rows.
func (t *Table) Card() int { return len(t.Rows) }

// Columnar returns the columnar form of the table, converting on first
// use and caching the result (base tables are scanned by every query of a
// session, so the conversion amortizes across the workload).
func (t *Table) Columnar() *ColTable {
	if c := t.col.Load(); c != nil {
		return c
	}
	c := ColTableOf(t)
	t.col.Store(c)
	return c
}

// TableOf converts a map-tuple relation into a slot-based table. Absent
// attributes become explicit NULLs.
func TableOf(r *Rel) *Table {
	s := NewSchema(r.Attrs)
	t := &Table{Schema: s, Rows: make([]Row, len(r.Tuples))}
	w := len(r.Attrs)
	slab := make([]Value, len(r.Tuples)*w)
	for i, tu := range r.Tuples {
		row := slab[i*w : (i+1)*w : (i+1)*w]
		for j, a := range r.Attrs {
			row[j] = tu.Get(a)
		}
		t.Rows[i] = row
	}
	return t
}

// Rel converts the table back into a map-tuple relation (the boundary
// representation used by tests and result comparison).
func (t *Table) Rel() *Rel {
	out := &Rel{Attrs: append([]string(nil), t.Schema.Names()...)}
	out.Tuples = make([]Tuple, len(t.Rows))
	for i, row := range t.Rows {
		tu := make(Tuple, len(row))
		for j, v := range row {
			tu[t.Schema.Name(j)] = v
		}
		out.Tuples[i] = tu
	}
	return out
}

// rowArena hands out output rows sliced from chunked backing slabs, so
// operators with data-dependent output cardinalities (join probes) pay
// one allocation per chunk instead of one per row. Rows are capped
// slices, so appending to one can never clobber its neighbor. Arenas are
// single-owner (one per operator) and never shared across goroutines.
type rowArena struct {
	slab []Value
	w    int // row width
}

// arenaChunkRows is how many rows one backing slab holds.
const arenaChunkRows = 256

func newRowArena(w int) *rowArena { return &rowArena{w: w} }

// alloc returns a fresh zeroed row of the arena's width.
func (a *rowArena) alloc() Row {
	if len(a.slab) < a.w {
		a.slab = make([]Value, arenaChunkRows*a.w)
	}
	r := a.slab[:a.w:a.w]
	a.slab = a.slab[a.w:]
	return r
}

// concat builds l ◦ r in arena storage. len(l)+len(r) must equal the
// arena width.
func (a *rowArena) concat(l, r Row) Row {
	out := a.alloc()
	copy(out, l)
	copy(out[len(l):], r)
	return out
}

// concatRow builds l ◦ r into a fresh row sized for the concatenated
// schema (the arena-less form for one-off callers).
func concatRow(l, r Row) Row {
	out := make(Row, 0, len(l)+len(r))
	out = append(out, l...)
	out = append(out, r...)
	return out
}

// ExtendTable appends one computed column: every row is extended by
// fn(row). Rows are copied into one backing slab (not mutated in place).
func ExtendTable(t *Table, name string, fn func(Row) Value) *Table {
	out := &Table{Schema: t.Schema.Extend(name), Rows: make([]Row, len(t.Rows))}
	w := t.Schema.Len() + 1
	slab := make([]Value, len(t.Rows)*w)
	for i, row := range t.Rows {
		nr := slab[i*w : i*w : (i+1)*w]
		nr = append(nr, row...)
		nr = append(nr, fn(row))
		out.Rows[i] = nr
	}
	return out
}

// ProjectTable returns the duplicate-preserving projection onto the given
// slots under a new schema built from their names.
func ProjectTable(t *Table, slots []int) *Table {
	names := make([]string, len(slots))
	for i, s := range slots {
		names[i] = t.Schema.Name(s)
	}
	out := &Table{Schema: NewSchema(names), Rows: make([]Row, len(t.Rows))}
	w := len(slots)
	slab := make([]Value, len(t.Rows)*w)
	for i, row := range t.Rows {
		nr := slab[i*w : (i+1)*w : (i+1)*w]
		for j, s := range slots {
			nr[j] = row[s]
		}
		out.Rows[i] = nr
	}
	return out
}
