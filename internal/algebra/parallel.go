package algebra

// The morsel-driven execution framework (Leis et al., SIGMOD 2014 style)
// the batch operators run on: Exec carries the worker count, morsel
// granularity, task pool and batch size of one execution; forMorsels
// splits an input into size-derived row ranges and forTasks hands them to
// the workers. Probes, gathers, emits and sort passes fan out; every join
// build and grouping is one pass on the calling goroutine.
//
// Morsel boundaries are pure functions of the input size and the
// configuration — never of the worker that happens to run a task — and
// every operator assembles its per-morsel outputs in morsel (or
// first-input-row) order. Together that makes every result bit-identical
// for every worker count. The row
// operators (hashjoin.go, hashagg.go) use none of this: they are the
// sequential reference.

import (
	"encoding/binary"
	"runtime"
	"sync"
	"sync/atomic"
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

// Exec carries execution-wide settings for the batch operators: the
// worker count of their morsel-parallel arms and the morsel granularity.
// A nil *Exec runs every operator sequentially.
type Exec struct {
	workers int
	// morsel is the explicit morsel size; 0 selects adaptive sizing
	// (see sizeFor). Never read directly — operators size through
	// sizeFor so that morsel counts and morsel iteration agree.
	morsel int
	// pool, when set, supplies the goroutines for every task fan-out
	// instead of spawning fresh ones — the shared-scheduler seam of the
	// service layer. The work decomposition (morsel geometry) still
	// derives only from workers, so results are identical with or without
	// a pool.
	pool *Pool
	// batch is the row count per columnar batch of the batch-at-a-time
	// operators (batchjoin.go, batchagg.go); 0 selects DefaultBatchSize.
	// Results are identical for every size.
	batch int
	// hstats, when set, collects hash-table build/probe telemetry
	// (hashtable.go). Observation only — never consulted for decisions,
	// so attaching it cannot change results.
	hstats *HashStats
	// rec lists the buffers the execution took (recycle.go); the With*
	// copies share it.
	rec *recycler
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
// 0 (or negative) selects GOMAXPROCS, 1 runs every operator on the
// calling goroutine, larger counts enable the morsel-parallel operator
// arms. Results are bit-identical for every value. The intermediates of
// its operators are recycled once Release is called.
func NewExec(workers int) *Exec {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Exec{workers: workers, rec: &recycler{}}
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
// small-operator sequential cutoff (see parForBatch) — the tests rely on
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

// batchParallelCutoff is the smallest driving input (rows) from which an
// operator fans out over morsels what follows its build or grouping — a
// join's probe and gather, a grouping's emit — and every pass of a sort;
// below it the whole operator runs on the calling goroutine — a
// deterministic, size-only decision. Read off
// BenchmarkBatchParallelCrossover on 2 CPUs (DESIGN.md
// "batchParallelCutoff, measured" has the table): a parallel join probe
// wins from ~16k rows, the sort passes break even between 16k and 64k, a
// grouping's emit is noise around parity at every size, and the sort
// passes set the constant.
const batchParallelCutoff = 1 << 16

// parForBatch reports whether the parallel arm should run for an operator
// driven by n input rows. An explicit morsel size disables the cutoff so
// tests can force the parallel machinery onto tiny inputs.
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
// every parallel operator funnels through (forMorsels included). Tasks are handed out through an atomic counter so workers
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

// hashKey is the deterministic hash over an encoded key: the key indexes'
// slot choice (high bits) and the Bloom filter's bits. Hash values never
// affect results — ids are handed out in first-encounter order whatever
// slot a key lands in — but a fixed hash keeps run-to-run behavior, and
// the telemetry, reproducible. The body is a word-at-a-
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
