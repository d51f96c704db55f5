package algebra

// Morsel-driven parallel execution (Leis et al., SIGMOD 2014 style) for
// the slot-based hash operators. Inputs are split into fixed-size row
// ranges (morsels) that a small worker pool processes concurrently:
//
//   - Hash-join builds run as parallel partitioned inserts: a
//     morsel-parallel scatter pass buckets every build row by the hash
//     (hashKey) of its typed binary key into a fixed number of partitions,
//     then each partition's flat hash table (hashtable.go) is built
//     independently, sized exactly from the morsel bucket counts.
//     Because the per-morsel buckets are merged in morsel order, every
//     posting list holds its row indices in build-input order — the
//     partitioned table is observationally identical to the sequential
//     buildSide map, just split by key hash.
//   - Probes run morsel-parallel over the probe input. Each morsel
//     produces its own output chunk, and the chunks are concatenated in
//     morsel order, so the output is exactly the sequential probe order
//     (probe rows in input order, matches in build-input order).
//   - Hash aggregation scatters input rows by grouping key into the same
//     fixed partitions and aggregates each partition independently.
//     Every group lives in exactly one partition (its key determines its
//     hash), and walking the scatter output in morsel order feeds each
//     group's accumulators in global input order — so even
//     order-sensitive float sums come out bit-identical. The finished
//     groups of all partitions are merged by ascending first-input-row
//     index, which reproduces the sequential first-encounter output
//     order exactly.
//
// The partition count is fixed and independent of the worker count, so
// the work decomposition — and with it every intermediate structure —
// does not depend on how many goroutines happen to execute it. Together
// with the ordered assembly above this makes results bit-identical for
// every worker count; Workers ≤ 1 short-circuits to the plain sequential
// operators and is the exact reference path.

import (
	"encoding/binary"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"eagg/internal/aggfn"
)

// DefaultMorselSize caps the adaptive morsel sizing: rows per morsel
// never exceed it, so skewed operators on large inputs still
// load-balance.
const DefaultMorselSize = 4096

// minMorselSize floors the adaptive sizing: below this, per-morsel
// bookkeeping stops vanishing against per-row work.
const minMorselSize = 64

// morselsPerWorker is the adaptive sizing target: enough morsels per
// worker that the atomic hand-out evens out per-morsel skew.
const morselsPerWorker = 4

// partitions is the fixed fan-out of partitioned builds and
// aggregations. Must be a power of two (the partition of a key is its
// hash masked by partitions-1).
const partitions = 64

// Exec carries execution-wide settings for the slot operators: the
// worker count of the morsel-driven parallel variants and the morsel
// granularity. A nil *Exec runs every operator sequentially.
type Exec struct {
	workers int
	// morsel is the explicit morsel size; 0 selects adaptive sizing
	// (see sizeFor). Never read directly — operators size through
	// sizeFor so that morsel counts and morsel iteration agree.
	morsel int
	// pool, when set, supplies the goroutines for every task fan-out
	// instead of spawning fresh ones — the shared-scheduler seam of the
	// service layer. The work decomposition (morsel geometry, partition
	// count) still derives only from workers, so results are identical
	// with or without a pool.
	pool *Pool
	// batch is the row count per columnar batch of the batch-at-a-time
	// operators (batchjoin.go, batchagg.go); 0 selects DefaultBatchSize.
	// Results are identical for every size.
	batch int
	// hstats, when set, collects hash-table build/probe telemetry
	// (hashtable.go). Observation only — never consulted for decisions,
	// so attaching it cannot change results.
	hstats *HashStats
}

// DefaultBatchSize is the default row count per columnar batch: large
// enough to amortize the per-batch column-kind dispatch, small enough
// that a batch's working set (keys + payloads) stays cache-resident.
const DefaultBatchSize = 1024

// WithBatchSize returns a copy of e with an explicit columnar batch size
// (≤ 0 restores the default). Results are bit-identical for every size.
func (e *Exec) WithBatchSize(rows int) *Exec {
	out := *e
	if rows < 0 {
		rows = 0
	}
	out.batch = rows
	return &out
}

// batchSize returns the resolved columnar batch size.
func (e *Exec) batchSize() int {
	if e == nil || e.batch <= 0 {
		return DefaultBatchSize
	}
	return e.batch
}

// NewExec returns execution settings for the given worker count:
// 0 (or negative) selects GOMAXPROCS, 1 is the exact sequential
// reference path, larger counts enable the morsel-parallel operator
// variants. Results are bit-identical for every value.
func NewExec(workers int) *Exec {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Exec{workers: workers}
}

// Workers returns the resolved worker count (1 for a nil Exec).
func (e *Exec) Workers() int {
	if e == nil {
		return 1
	}
	return e.workers
}

// WithMorselSize returns a copy of e with an exact morsel size
// (0 restores the adaptive default). An explicit size also disables the
// small-operator sequential cutoff (see parFor) — the tests rely on
// that to force the parallel machinery onto tiny inputs. Results are
// identical for every size.
func (e *Exec) WithMorselSize(rows int) *Exec {
	out := *e
	if rows < 0 {
		rows = 0
	}
	out.morsel = rows
	return &out
}

// WithPool returns a copy of e whose task fan-outs run on the shared
// pool (nil restores plain goroutine spawning). Attaching a pool never
// changes results — only which goroutines execute the tasks.
func (e *Exec) WithPool(p *Pool) *Exec {
	out := *e
	out.pool = p
	return &out
}

// WithHashStats returns a copy of e that records hash-table telemetry
// into hs (nil detaches). Pure observation: results are identical with
// or without a collector.
func (e *Exec) WithHashStats(hs *HashStats) *Exec {
	out := *e
	out.hstats = hs
	return &out
}

// hashStats returns the attached collector (nil for none, including on
// a nil Exec — every record path is nil-safe).
func (e *Exec) hashStats() *HashStats {
	if e == nil {
		return nil
	}
	return e.hstats
}

// par reports whether the parallel operator variants are selected.
func (e *Exec) par() bool { return e != nil && e.workers > 1 }

// parallelCutoff is the smallest driving input (rows) for which the
// parallel variants of the row-runtime hash operators pay for their
// scatter/partition overhead under the adaptive morsel sizing. Operators
// below it run sequentially — a deterministic, size-only decision. (Set
// in PR 3 and not re-measured: the row runtime is the differential
// oracle, not a performance path. Its sort operators are wrappers around
// the batch ones and follow batchParallelCutoff.)
const parallelCutoff = 512

// batchParallelCutoff is the same threshold for the batch operators,
// read off BenchmarkBatchParallelCrossover on 2 CPUs (DESIGN.md §PR 12
// has the table): the radix-partitioned join pulls ahead of the
// sequential one from ~16k rows, the partitioned aggregation — which
// pays the scatter without a probe side to amortize it over — only from
// ~64k, and the slower of the two sets the constant.
const batchParallelCutoff = 1 << 16

// parFor reports whether the parallel variant should run for a
// row-runtime hash operator driven by n input rows. An explicit morsel size disables
// the cutoff so tests can force the parallel machinery onto tiny inputs.
func (e *Exec) parFor(n int) bool {
	return e.par() && (e.morsel > 0 || n >= parallelCutoff)
}

// parForBatch is parFor for the batch operators.
func (e *Exec) parForBatch(n int) bool {
	return e.par() && (e.morsel > 0 || n >= batchParallelCutoff)
}

// sizeFor returns the morsel size for an n-row input: the explicitly
// configured size, or — by default — a size aiming at morselsPerWorker
// morsels per worker, clamped to [minMorselSize, DefaultMorselSize], so
// small inputs still fan out while per-morsel bookkeeping stays
// negligible on large ones. The size depends only on (n, workers,
// configuration), never on scheduling — morsel boundaries are
// deterministic.
func (e *Exec) sizeFor(n int) int {
	if e.morsel > 0 {
		return e.morsel
	}
	target := e.workers * morselsPerWorker
	size := (n + target - 1) / target
	if size > DefaultMorselSize {
		return DefaultMorselSize
	}
	if size < minMorselSize {
		return minMorselSize
	}
	return size
}

// morselCount returns the number of morsels n rows split into.
func (e *Exec) morselCount(n int) int {
	size := e.sizeFor(n)
	return (n + size - 1) / size
}

// forMorsels executes fn(m, lo, hi) for every morsel of n input rows,
// fanning out over the task scheduler (up to e.workers goroutines, or
// the attached pool's workers). Morsel boundaries are computed here —
// a pure function of (n, workers, configuration) — and only then handed
// to forTasks, so the decomposition never depends on who executes it.
// fn must only write state owned by morsel m; the fan-out barrier gives
// the caller a happens-before edge on everything fn wrote.
func (e *Exec) forMorsels(n int, fn func(m, lo, hi int)) {
	size := e.sizeFor(n)
	morsels := e.morselCount(n)
	e.forTasks(morsels, func(m int) {
		fn(m, m*size, min((m+1)*size, n))
	})
}

// forTasks executes fn(i) for i in [0, n) — the single fan-out point
// every parallel operator funnels through (forMorsels and forParts
// included). Tasks are handed out through an atomic counter so workers
// stay busy under per-task skew; with a pool attached, the pool's
// shared workers (plus the submitter) execute the tasks instead of
// freshly spawned goroutines. The call returns only after all n tasks
// finished, with a happens-before edge on everything they wrote.
func (e *Exec) forTasks(n int, fn func(i int)) {
	w := e.Workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	if e.pool != nil {
		e.pool.Run(n, fn)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for i := 0; i < w; i++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// spans returns how many row ranges forSpans splits n rows into: the
// morsels when par, one otherwise.
func (e *Exec) spans(n int, par bool) int {
	if par {
		return e.morselCount(n)
	}
	return 1
}

// forSpans runs fn over the morsels of n rows concurrently when par, and
// once over [0, n) on the calling goroutine otherwise — one body for an
// operator's sequential and parallel arm.
func (e *Exec) forSpans(n int, par bool, fn func(m, lo, hi int)) {
	if par {
		e.forMorsels(n, fn)
	} else {
		fn(0, 0, n)
	}
}

// forParts executes fn(p) for every partition id over the task
// scheduler.
func (e *Exec) forParts(fn func(p int)) {
	e.forTasks(partitions, fn)
}

// hashKey is the deterministic hash over an encoded key, shared by the
// partition scatter (low bits) and the flat tables' slot choice (high
// bits). Hash values never affect results — partitioning only splits
// work, and the grouper merge orders by first input row — but a fixed
// hash keeps run-to-run behavior reproducible. The body is a word-at-a-
// time multiply-xor over 8-byte lanes with a splitmix-style finalizer:
// byte-at-a-time FNV-1a measured ~2x slower than Go's map hash on the
// probe-heavy join paths, and encoded keys are usually 9-20 bytes.
func hashKey(b []byte) uint64 {
	const m = 0xe7037ed1a0b428db
	h := uint64(14695981039346656037) ^ uint64(len(b))*0xa0761d6478bd642f
	for len(b) >= 8 {
		h = (h ^ binary.LittleEndian.Uint64(b)) * m
		h ^= h >> 29
		b = b[8:]
	}
	if len(b) > 0 {
		var tail uint64
		for i, c := range b {
			tail |= uint64(c) << (8 * uint(i))
		}
		h = (h ^ tail) * m
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// scatterEntry locates one row and its encoded key in the morsel arena,
// with the key's hash cached — the partition pass computed it anyway,
// and the flat per-partition tables reuse it for their slot choice.
type scatterEntry struct {
	row      int32
	off, len int32
	hash     uint64
}

// morselScatter is one morsel's contribution to a partitioned pass: per
// partition, the rows hashing into it in row order, with their encoded
// keys in a shared arena.
type morselScatter struct {
	arena   []byte
	buckets [partitions][]scatterEntry
}

// scatterRows buckets rows [lo,hi) of t by the hash of their key over
// the given slots. With joinKeys true the key is the join encoding and
// rows with NULL/NaN key components are dropped (strict equality matches
// them to nothing); otherwise the grouping encoding is used and NULL
// keys form their own groups.
func scatterRows(t *Table, lo, hi int, slots []int, joinKeys bool) *morselScatter {
	s := &morselScatter{}
	for i := lo; i < hi; i++ {
		row := t.Rows[i]
		if joinKeys && rowHasNullKey(row, slots) {
			continue
		}
		off := len(s.arena)
		if joinKeys {
			s.arena = appendJoinKey(s.arena, row, slots)
		} else {
			s.arena = appendRowKey(s.arena, row, slots)
		}
		key := s.arena[off:]
		h := hashKey(key)
		p := h & (partitions - 1)
		s.buckets[p] = append(s.buckets[p], scatterEntry{row: int32(i), off: int32(off), len: int32(len(key)), hash: h})
	}
	return s
}

// partTable is a partitioned hash table over a build input: partition p
// holds the keys hashing to p (low hash bits) in a flat open-addressing
// table, posting lists in build-input order — the sequential buildSide
// postings split by key hash. A nil partition holds no keys.
type partTable struct {
	parts [partitions]*bytesTable
}

// lookup returns the posting list of an encoded key.
func (pt *partTable) lookup(key []byte) []int32 {
	h := hashKey(key)
	t := pt.parts[h&(partitions-1)]
	if t == nil {
		return nil
	}
	return t.lookupHashed(h, key)
}

// buildParts assembles the flat per-partition tables from finished
// morsel scatters: every partition's table is sized exactly from the
// summed morsel bucket counts (a pure function of the data — the morsel
// geometry never depends on scheduling — so table capacities, and with
// them every probe sequence, are identical for every worker count), and
// morsel contributions are inserted in morsel order to keep build-input
// order within every posting list.
func (e *Exec) buildParts(scatters []*morselScatter) *partTable {
	pt := &partTable{}
	hs := e.hashStats()
	e.forParts(func(p int) {
		total := 0
		for _, sc := range scatters {
			total += len(sc.buckets[p])
		}
		if total == 0 {
			return
		}
		t := newBytesTable(total)
		for _, sc := range scatters {
			for _, en := range sc.buckets[p] {
				t.insert(en.hash, sc.arena[en.off:en.off+en.len], en.row)
			}
		}
		t.finalize()
		t.record(hs)
		pt.parts[p] = t
	})
	return pt
}

// buildPartitioned builds the partitioned hash table over r's key slots:
// a morsel-parallel scatter pass, then parallel partitioned inserts into
// flat tables (buildParts).
func (e *Exec) buildPartitioned(r *Table, rk []int) *partTable {
	scatters := make([]*morselScatter, e.morselCount(len(r.Rows)))
	e.forMorsels(len(r.Rows), func(m, lo, hi int) {
		scatters[m] = scatterRows(r, lo, hi, rk, true)
	})
	return e.buildParts(scatters)
}

// probeMorsels runs fn over morsels of the probe input, each morsel
// returning its output chunk, and assembles out.Rows by concatenating
// the chunks in input-morsel order — exactly the sequential output
// order.
func (e *Exec) probeMorsels(probe *Table, out *Table, fn func(lo, hi int) []Row) {
	chunks := make([][]Row, e.morselCount(len(probe.Rows)))
	e.forMorsels(len(probe.Rows), func(m, lo, hi int) {
		chunks[m] = fn(lo, hi)
	})
	total := 0
	for _, c := range chunks {
		total += len(c)
	}
	out.Rows = make([]Row, 0, total)
	for _, c := range chunks {
		out.Rows = append(out.Rows, c...)
	}
}

// HashJoin is the inner equi-join l ⋈ r under e's settings: partitioned
// parallel build, morsel-parallel probe. Workers ≤ 1 is the sequential
// HashJoin.
func (e *Exec) HashJoin(l, r *Table, lk, rk []int) *Table {
	if !e.parFor(max(len(l.Rows), len(r.Rows))) {
		return HashJoin(l, r, lk, rk)
	}
	out := &Table{Schema: l.Schema.Concat(r.Schema)}
	pt := e.buildPartitioned(r, rk)
	width := out.Schema.Len()
	e.probeMorsels(l, out, func(lo, hi int) []Row {
		var chunk []Row
		var buf []byte
		ar := newRowArena(width)
		for _, lrow := range l.Rows[lo:hi] {
			if rowHasNullKey(lrow, lk) {
				continue
			}
			buf = appendJoinKey(buf[:0], lrow, lk)
			for _, ri := range pt.lookup(buf) {
				chunk = append(chunk, ar.concat(lrow, r.Rows[ri]))
			}
		}
		return chunk
	})
	return out
}

// HashSemiJoin is the left semijoin l ⋉ r under e's settings.
func (e *Exec) HashSemiJoin(l, r *Table, lk, rk []int) *Table {
	if !e.parFor(max(len(l.Rows), len(r.Rows))) {
		return HashSemiJoin(l, r, lk, rk)
	}
	out := &Table{Schema: l.Schema}
	pt := e.buildPartitioned(r, rk)
	e.probeMorsels(l, out, func(lo, hi int) []Row {
		var chunk []Row
		var buf []byte
		for _, lrow := range l.Rows[lo:hi] {
			if rowHasNullKey(lrow, lk) {
				continue
			}
			buf = appendJoinKey(buf[:0], lrow, lk)
			if len(pt.lookup(buf)) > 0 {
				chunk = append(chunk, lrow)
			}
		}
		return chunk
	})
	return out
}

// HashAntiJoin is the left antijoin l ▷ r under e's settings.
func (e *Exec) HashAntiJoin(l, r *Table, lk, rk []int) *Table {
	if !e.parFor(max(len(l.Rows), len(r.Rows))) {
		return HashAntiJoin(l, r, lk, rk)
	}
	out := &Table{Schema: l.Schema}
	pt := e.buildPartitioned(r, rk)
	e.probeMorsels(l, out, func(lo, hi int) []Row {
		var chunk []Row
		var buf []byte
		for _, lrow := range l.Rows[lo:hi] {
			if !rowHasNullKey(lrow, lk) {
				buf = appendJoinKey(buf[:0], lrow, lk)
				if len(pt.lookup(buf)) > 0 {
					continue
				}
			}
			chunk = append(chunk, lrow)
		}
		return chunk
	})
	return out
}

// HashLeftOuter is the left outerjoin under e's settings. pad must be a
// full row over r's schema.
func (e *Exec) HashLeftOuter(l, r *Table, lk, rk []int, pad Row) *Table {
	if !e.parFor(max(len(l.Rows), len(r.Rows))) {
		return HashLeftOuter(l, r, lk, rk, pad)
	}
	out := &Table{Schema: l.Schema.Concat(r.Schema)}
	pt := e.buildPartitioned(r, rk)
	width := out.Schema.Len()
	e.probeMorsels(l, out, func(lo, hi int) []Row {
		var chunk []Row
		var buf []byte
		ar := newRowArena(width)
		for _, lrow := range l.Rows[lo:hi] {
			matched := false
			if !rowHasNullKey(lrow, lk) {
				buf = appendJoinKey(buf[:0], lrow, lk)
				for _, ri := range pt.lookup(buf) {
					matched = true
					chunk = append(chunk, ar.concat(lrow, r.Rows[ri]))
				}
			}
			if !matched {
				chunk = append(chunk, ar.concat(lrow, pad))
			}
		}
		return chunk
	})
	return out
}

// HashFullOuter is the full outerjoin under e's settings. Matched build
// rows are marked through atomics (the mark only ever moves false→true,
// so concurrent marking is order-independent); the unmatched right rows
// are appended after the probe barrier in build-input order, exactly
// like the sequential operator.
func (e *Exec) HashFullOuter(l, r *Table, lk, rk []int, lpad, rpad Row) *Table {
	if !e.parFor(max(len(l.Rows), len(r.Rows))) {
		return HashFullOuter(l, r, lk, rk, lpad, rpad)
	}
	out := &Table{Schema: l.Schema.Concat(r.Schema)}
	pt := e.buildPartitioned(r, rk)
	width := out.Schema.Len()
	matched := make([]atomic.Bool, len(r.Rows))
	e.probeMorsels(l, out, func(lo, hi int) []Row {
		var chunk []Row
		var buf []byte
		ar := newRowArena(width)
		for _, lrow := range l.Rows[lo:hi] {
			found := false
			if !rowHasNullKey(lrow, lk) {
				buf = appendJoinKey(buf[:0], lrow, lk)
				for _, ri := range pt.lookup(buf) {
					found = true
					matched[ri].Store(true)
					chunk = append(chunk, ar.concat(lrow, r.Rows[ri]))
				}
			}
			if !found {
				chunk = append(chunk, ar.concat(lrow, rpad))
			}
		}
		return chunk
	})
	tail := newRowArena(width)
	for ri, rrow := range r.Rows {
		if !matched[ri].Load() {
			out.Rows = append(out.Rows, tail.concat(lpad, rrow))
		}
	}
	return out
}

// HashGroupJoin is the groupjoin under e's settings: partitioned build,
// morsel-parallel probe; every left row folds its partner bucket in
// build-input order, like the sequential operator.
func (e *Exec) HashGroupJoin(l, r *Table, lk, rk []int, f aggfn.Vector) *Table {
	if !e.parFor(max(len(l.Rows), len(r.Rows))) {
		return HashGroupJoin(l, r, lk, rk, f)
	}
	bound := BindVector(f, r.Schema)
	names := append(append([]string(nil), l.Schema.Names()...), f.Outs()...)
	out := &Table{Schema: NewSchema(names)}
	pt := e.buildPartitioned(r, rk)
	e.probeMorsels(l, out, func(lo, hi int) []Row {
		chunk := make([]Row, 0, hi-lo)
		var buf, scratch []byte
		for _, lrow := range l.Rows[lo:hi] {
			cells := make([]aggCell, len(bound))
			if !rowHasNullKey(lrow, lk) {
				buf = appendJoinKey(buf[:0], lrow, lk)
				for _, ri := range pt.lookup(buf) {
					for i := range bound {
						cells[i].update(&bound[i], r.Rows[ri], &scratch)
					}
				}
			}
			row := make(Row, 0, len(lrow)+len(bound))
			row = append(row, lrow...)
			for i := range bound {
				row = append(row, cells[i].final(&bound[i]))
			}
			chunk = append(chunk, row)
		}
		return chunk
	})
	return out
}

// partGroup is one group being accumulated in a partition, tagged with
// the global index of its first input row.
type partGroup struct {
	acc   groupAcc
	first int32
}

// groupOut is one finished group: its output row plus the first-row tag
// that orders the deterministic merge.
type groupOut struct {
	first int32
	row   Row
}

// HashGroup is typed hash aggregation under e's settings: morsel-parallel
// scatter by grouping key, one independent accumulator table per
// partition, partitions merged by ascending first-input-row index. Every
// group's rows are folded in global input order by exactly one partition
// task, and the merge order equals first-encounter order — so the result
// is bit-identical to the sequential HashGroup, float sums included.
func (e *Exec) HashGroup(t *Table, groupBy []string, f aggfn.Vector) *Table {
	if !e.parFor(len(t.Rows)) {
		return HashGroup(t, groupBy, f)
	}
	bound := BindVector(f, t.Schema)
	groupSlots := t.Schema.Slots(groupBy)
	names := make([]string, 0, len(groupBy)+len(f))
	names = append(names, groupBy...)
	names = append(names, f.Outs()...)
	out := &Table{Schema: NewSchema(names)}

	scatters := make([]*morselScatter, e.morselCount(len(t.Rows)))
	e.forMorsels(len(t.Rows), func(m, lo, hi int) {
		scatters[m] = scatterRows(t, lo, hi, groupSlots, false)
	})

	partOuts := make([][]groupOut, partitions)
	e.forParts(func(p int) {
		groups := map[string]*partGroup{}
		var order []*partGroup
		var scratch []byte
		for _, sc := range scatters {
			for _, en := range sc.buckets[p] {
				key := sc.arena[en.off : en.off+en.len]
				g := groups[string(key)]
				row := t.Rows[en.row]
				if g == nil {
					rep := make(Row, len(groupSlots))
					for i, s := range groupSlots {
						rep[i] = row.get(s)
					}
					g = &partGroup{
						acc:   groupAcc{rep: rep, cells: make([]aggCell, len(bound))},
						first: en.row,
					}
					groups[string(key)] = g
					order = append(order, g)
				}
				for i := range bound {
					g.acc.cells[i].update(&bound[i], row, &scratch)
				}
			}
		}
		outs := make([]groupOut, len(order))
		for i, g := range order {
			row := make(Row, 0, len(groupSlots)+len(bound))
			row = append(row, g.acc.rep...)
			for ci := range bound {
				row = append(row, g.acc.cells[ci].final(&bound[ci]))
			}
			outs[i] = groupOut{first: g.first, row: row}
		}
		partOuts[p] = outs
	})

	var all []groupOut
	for _, outs := range partOuts {
		all = append(all, outs...)
	}
	// First-row indices are unique across groups, so the order is total
	// and the sort deterministic.
	sort.Slice(all, func(i, j int) bool { return all[i].first < all[j].first })
	out.Rows = make([]Row, len(all))
	for i, g := range all {
		out.Rows[i] = g.row
	}
	return out
}

// ExtendTable appends one computed column under e's settings. fn must be
// pure; rows are written by index, so the output order is trivially the
// input order.
func (e *Exec) ExtendTable(t *Table, name string, fn func(Row) Value) *Table {
	if !e.parFor(len(t.Rows)) {
		return ExtendTable(t, name, fn)
	}
	out := &Table{Schema: t.Schema.Extend(name), Rows: make([]Row, len(t.Rows))}
	w := t.Schema.Len() + 1
	slab := make([]Value, len(t.Rows)*w)
	e.forMorsels(len(t.Rows), func(m, lo, hi int) {
		// Morsels own disjoint row ranges, so they write disjoint slab
		// spans.
		for i := lo; i < hi; i++ {
			row := t.Rows[i]
			nr := slab[i*w : i*w : (i+1)*w]
			nr = append(nr, row...)
			nr = append(nr, fn(row))
			out.Rows[i] = nr
		}
	})
	return out
}
