package algebra

import (
	"fmt"
	"slices"
	"testing"

	"eagg/internal/aggfn"
)

// Benchmarks comparing the row and batch runtimes on the operator level,
// with allocation counts: the batch aggregation path must cut allocs/op
// by at least 5x against row HashGroup (PR 7 acceptance), and the
// slab-backed table ops must stay O(1) allocations per output table
// rather than one make per row.

// benchAggTable builds n rows over (g, v, f): an int grouping column
// cycling through the given group count, an int measure and a float
// measure — the typical typed aggregation input.
func benchAggTable(n, groups int) *Table {
	s := NewSchema([]string{"g", "v", "f"})
	t := &Table{Schema: s}
	for i := 0; i < n; i++ {
		t.Rows = append(t.Rows, Row{
			Int(int64(i % groups)),
			Int(int64(i)),
			Float(float64(i) * 0.5),
		})
	}
	return t
}

// BenchmarkHashGroupRuntimes is the aggregation-path allocation shootout:
// identical inputs, identical results, row HashGroup against the batch
// grouper (input already columnar, as it is mid-pipeline). The batch side
// allocates per group and per output column; the row side allocates per
// group row and per accumulator.
func BenchmarkHashGroupRuntimes(b *testing.B) {
	f := aggfn.Vector{
		{Out: "s", Kind: aggfn.Sum, Arg: "v"},
		{Out: "c", Kind: aggfn.CountStar},
		{Out: "m", Kind: aggfn.Min, Arg: "f"},
	}
	groupBy := []string{"g"}
	for _, groups := range []int{16, 1024} {
		t := benchAggTable(1<<13, groups)
		ct := ColTableOf(t)
		e := NewExec(1)
		b.Run(fmt.Sprintf("runtime=row/groups=%d", groups), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if out := HashGroup(t, groupBy, f); len(out.Rows) != groups {
					b.Fatalf("got %d groups, want %d", len(out.Rows), groups)
				}
			}
		})
		b.Run(fmt.Sprintf("runtime=batch/groups=%d", groups), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if out := e.BatchHashGroup(ct, BindAggregation(ct.Schema, groupBy, f)); out.Card() != groups {
					b.Fatalf("got %d groups, want %d", out.Card(), groups)
				}
				e.Release()
			}
		})
	}
}

// BenchmarkHashTable is the backend shootout behind every hashed batch
// join: the sequential join build (key index + counting-sorted postings)
// and its probe against the Go maps they replaced, build + full probe, on
// int and encoded byte keys. The flat build must win on allocations by
// construction (slab postings, no per-key list headers) — this benchmark
// keeps the rows/s and allocs/op numbers visible in CI.
func BenchmarkHashTable(b *testing.B) {
	const nBuild, nProbe, dups = 1 << 12, 1 << 14, 4
	ikeys := make([]int64, nBuild)
	icol := Vector{Kind: ColInt, Ints: ikeys}
	for i := range ikeys {
		ikeys[i] = int64(i/dups) * 2654435761
	}
	bkeys := make([][]byte, nBuild)
	scol := Vector{Kind: ColStr, Strs: make([]string, nBuild)}
	for i := range bkeys {
		bkeys[i] = []byte(fmt.Sprintf("key-%06d", i/dups))
		scol.Strs[i] = string(bkeys[i])
	}
	build := func(col Vector) *ColTable {
		return &ColTable{Schema: NewSchema([]string{"k"}), N: nBuild, Cols: []Vector{col}}
	}
	it, st := build(icol), build(scol)
	// The string keys' canonical encodings, probed as a join probe would.
	probe, arena := newKeyScan(st, []int{0}, true).fill(0, nBuild, nBuild, nil, nil)
	e := NewExec(1)
	b.Run("keys=int/backend=flat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bld := e.batchBuildSide(it, []int{0}, -1)
			hits := 0
			for p := 0; p < nProbe; p++ {
				hits += len(bld.lookIntKey(ikeys[p%nBuild]))
			}
			if hits != nProbe*dups {
				b.Fatalf("hits %d, want %d", hits, nProbe*dups)
			}
			e.Release()
		}
	})
	b.Run("keys=int/backend=map", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := make(map[int64][]int32, nBuild)
			for r, k := range ikeys {
				m[k] = append(m[k], int32(r))
			}
			hits := 0
			for p := 0; p < nProbe; p++ {
				hits += len(m[ikeys[p%nBuild]])
			}
			if hits != nProbe*dups {
				b.Fatalf("hits %d, want %d", hits, nProbe*dups)
			}
		}
	})
	b.Run("keys=bytes/backend=flat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bld := e.batchBuildSide(st, []int{0}, -1)
			hits := 0
			for p := 0; p < nProbe; p++ {
				en := &probe[p%nBuild]
				hits += len(bld.lookBytes(en.hash, en.bytes(arena)))
			}
			if hits != nProbe*dups {
				b.Fatalf("hits %d, want %d", hits, nProbe*dups)
			}
			e.Release()
		}
	})
	b.Run("keys=bytes/backend=map", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := make(map[string][]int32, nBuild)
			for r, k := range bkeys {
				m[string(k)] = append(m[string(k)], int32(r))
			}
			hits := 0
			for p := 0; p < nProbe; p++ {
				hits += len(m[string(bkeys[p%nBuild])])
			}
			if hits != nProbe*dups {
				b.Fatalf("hits %d, want %d", hits, nProbe*dups)
			}
		}
	})
}

// BenchmarkBatchHashJoin measures the batch join pair (build + probe +
// typed gather) against the row operator on a fk-pk shape with int keys.
func BenchmarkBatchHashJoin(b *testing.B) {
	const nl, nr = 1 << 13, 1 << 10
	ls := NewSchema([]string{"fk", "x"})
	l := &Table{Schema: ls}
	for i := 0; i < nl; i++ {
		l.Rows = append(l.Rows, Row{Int(int64(i % nr)), Int(int64(i))})
	}
	rs := NewSchema([]string{"pk", "y"})
	r := &Table{Schema: rs}
	for i := 0; i < nr; i++ {
		r.Rows = append(r.Rows, Row{Int(int64(i)), Int(int64(-i))})
	}
	cl, cr := ColTableOf(l), ColTableOf(r)
	e := NewExec(1)
	lk, rk := []int{0}, []int{0}
	b.Run("runtime=row", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if out := HashJoin(l, r, lk, rk); len(out.Rows) != nl {
				b.Fatalf("got %d rows, want %d", len(out.Rows), nl)
			}
		}
	})
	b.Run("runtime=batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if out := e.BatchHashJoin(cl, cr, lk, rk, cl.Schema.Concat(cr.Schema)); out.Card() != nl {
				b.Fatalf("got %d rows, want %d", out.Card(), nl)
			}
			e.Release()
		}
	})
}

// BenchmarkTableOpAllocs pins the slab allocation of the row-table ops:
// extending and projecting a table must cost a constant number of
// allocations (header + one backing slab), not one make per row.
func BenchmarkTableOpAllocs(b *testing.B) {
	t := benchAggTable(1<<13, 64)
	b.Run("op=extend", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out := ExtendTable(t, "w", func(r Row) Value { return Mul(r[1], Int(2)) })
			if len(out.Rows) != len(t.Rows) {
				b.Fatal("row count changed")
			}
		}
	})
	slots := []int{0, 2}
	b.Run("op=project", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out := ProjectTable(t, slots)
			if len(out.Rows) != len(t.Rows) {
				b.Fatal("row count changed")
			}
		}
	})
}

// benchAggCols is benchAggTable built columnar (the crossover sweep goes
// up to a million rows) with the grouping key taken from key(i).
func benchAggCols(n int, key func(i int) int64) *ColTable {
	g, v, f := make([]int64, n), make([]int64, n), make([]float64, n)
	for i := range g {
		g[i], v[i], f[i] = key(i), int64(i), float64(i)*0.5
	}
	return &ColTable{Schema: NewSchema([]string{"g", "v", "f"}), N: n,
		Cols: []Vector{{Kind: ColInt, Ints: g}, {Kind: ColInt, Ints: v}, {Kind: ColFloat, Floats: f}}}
}

// benchKeyTable is a table of n rows in an encoded-key shape — keys=str:
// one string column; keys=int2: two int columns — whose row i carries the
// key key(i), followed by an int and a float payload column.
func benchKeyTable(n int, key func(i int) int, keys string, names []string) *ColTable {
	t := &ColTable{Schema: NewSchema(names), N: n}
	if keys == "str" {
		strs := make([]string, n)
		for i := range strs {
			strs[i] = fmt.Sprintf("key-%07d", key(i))
		}
		t.Cols = append(t.Cols, Vector{Kind: ColStr, Strs: strs})
	} else {
		hi, lo := make([]int64, n), make([]int64, n)
		for i := range hi {
			hi[i], lo[i] = int64(key(i)>>6), int64(key(i)&63)
		}
		t.Cols = append(t.Cols, Vector{Kind: ColInt, Ints: hi}, Vector{Kind: ColInt, Ints: lo})
	}
	v, f := make([]int64, n), make([]float64, n)
	for i := range v {
		v[i], f[i] = int64(i), float64(i)*0.5
	}
	t.Cols = append(t.Cols, Vector{Kind: ColInt, Ints: v}, Vector{Kind: ColFloat, Floats: f})
	return t
}

// benchKeyCols is benchAggCols keyed on an encoded-key shape (see
// benchKeyTable) with distinct keys cycling over its n rows, and the
// build side of a join on that key: one row per key. It returns both
// tables, the grouping attributes and the key slots.
func benchKeyCols(n, distinct int, keys string) (agg, build *ColTable, groupBy []string, slots []int) {
	groupBy, slots = []string{"g"}, []int{0}
	if keys == "int2" {
		groupBy, slots = []string{"g", "h"}, []int{0, 1}
	}
	agg = benchKeyTable(n, func(i int) int { return i % distinct }, keys, append(slices.Clone(groupBy), "v", "f"))
	build = benchKeyTable(distinct, func(i int) int { return i }, keys, append([]string{"pk", "pk2"}[:len(slots)], "pv", "pf"))
	return agg, build, groupBy, slots
}

// BenchmarkBatchParallelCrossover is the measurement behind
// batchParallelCutoff: the batch hash aggregation and join on int keys,
// hashed (table=hash: keys spread beyond the density bound) and
// direct-addressed (table=dense: the same keys, consecutive), and their
// sort-based counterparts (both sorts performed), input sizes 256 … 1M
// rows × a low (16) and a high (n/4) distinct-key count × workers 1 and 2
// (forced parallel below the cutoff too by passing the adaptive morsel
// size explicitly). Every build and grouping runs on one goroutine, so
// workers=2 fans out what follows it: a join's probe and gather, a
// grouping's emit (a dense grouping's emit is one column of key payloads,
// so it runs at workers 1 only). The crossover is the smallest size from
// which workers=2 stays faster; DESIGN.md "batchParallelCutoff, measured",
// §PR 14 and "Direct-addressed keys" record the tables. The keys=str and
// keys=int2 arms are the encoded-key shapes, 64k … 1M rows; the
// sweep=density arms are the measurement behind denseMultiple, and the
// sweep=bloom arms the one behind the Bloom-filtered probe.
func BenchmarkBatchParallelCrossover(b *testing.B) {
	f := aggfn.Vector{
		{Out: "s", Kind: aggfn.Sum, Arg: "v"},
		{Out: "c", Kind: aggfn.CountStar},
		{Out: "m", Kind: aggfn.Min, Arg: "f"},
	}
	lk, rk := []int{0}, []int{0}
	for n := 256; n <= 1<<20; n *= 4 {
		for _, groups := range []int{16, n / 4} {
			for _, table := range []string{"hash", "dense"} {
				stride := 1
				if table == "hash" {
					stride = 1 << 20
				}
				agg := benchAggCols(n, func(i int) int64 { return int64(i % groups * stride) })
				build := benchAggCols(groups, func(i int) int64 { return int64(i * stride) })
				build.Schema = NewSchema([]string{"pk", "pv", "pf"})
				if newKeyScan(agg, lk, false).dense != (table == "dense") || newKeyScan(build, rk, true).dense != (table == "dense") {
					b.Fatalf("rows=%d keys=%d: inputs do not take the %s path", n, groups, table)
				}
				for _, w := range []int{1, 2} {
					e := NewExec(w)
					e = e.WithMorselSize(e.sizeFor(n))
					name := fmt.Sprintf("rows=%d/keys=%d/workers=%d", n, groups, w)
					if table == "hash" || w == 1 {
						b.Run("op=group/table="+table+"/"+name, func(b *testing.B) {
							for i := 0; i < b.N; i++ {
								if out := e.BatchHashGroup(agg, BindAggregation(agg.Schema, []string{"g"}, f)); out.Card() != groups {
									b.Fatalf("got %d groups, want %d", out.Card(), groups)
								}
								e.Release()
							}
						})
					}
					b.Run("op=join/table="+table+"/"+name, func(b *testing.B) {
						for i := 0; i < b.N; i++ {
							if out := e.BatchHashJoin(agg, build, lk, rk, agg.Schema.Concat(build.Schema)); out.Card() != n {
								b.Fatalf("got %d rows, want %d", out.Card(), n)
							}
							e.Release()
						}
					})
					if table == "hash" || n > 256<<10 {
						continue // the sort layer has no table to choose, and its cutoff was read off ≤ 256k rows
					}
					b.Run("op=sortgroup/"+name, func(b *testing.B) {
						for i := 0; i < b.N; i++ {
							if out, err := e.BatchSortGroup(agg, BindAggregation(agg.Schema, []string{"g"}, f), true, nil); err != nil || out.Card() != groups {
								b.Fatalf("got %v, want %d groups", err, groups)
							}
							e.Release()
						}
					})
					b.Run("op=mergejoin/"+name, func(b *testing.B) {
						for i := 0; i < b.N; i++ {
							if out, err := e.BatchMergeJoin(MergeInner, agg, build, lk, rk, true, true, nil, agg.Schema.Concat(build.Schema)); err != nil || out.Card() != n {
								b.Fatalf("got %v, want %d rows", err, n)
							}
							e.Release()
						}
					})
				}
			}
		}
	}

	// The encoded-key shapes, always hashed, from the cutoff up.
	for n := 1 << 16; n <= 1<<20; n *= 4 {
		for _, distinct := range []int{16, n / 4} {
			for _, keys := range []string{"str", "int2"} {
				agg, build, groupBy, slots := benchKeyCols(n, distinct, keys)
				for _, w := range []int{1, 2} {
					e := NewExec(w)
					e = e.WithMorselSize(e.sizeFor(n))
					name := fmt.Sprintf("keys=%s/rows=%d/distinct=%d/workers=%d", keys, n, distinct, w)
					b.Run("op=group/"+name, func(b *testing.B) {
						for i := 0; i < b.N; i++ {
							if out := e.BatchHashGroup(agg, BindAggregation(agg.Schema, groupBy, f)); out.Card() != distinct {
								b.Fatalf("got %d groups, want %d", out.Card(), distinct)
							}
							e.Release()
						}
					})
					b.Run("op=join/"+name, func(b *testing.B) {
						for i := 0; i < b.N; i++ {
							if out := e.BatchHashJoin(agg, build, slots, slots, agg.Schema.Concat(build.Schema)); out.Card() != n {
								b.Fatalf("got %d rows, want %d", out.Card(), n)
							}
							e.Release()
						}
					})
				}
			}
		}
	}

	// The density sweep: 128k rows whose keys fall, in scrambled order,
	// into a range of 1 … 32 times the row count, grouped (32k groups) and
	// built-and-probed (unique build keys, 4 probes each, a quarter of them
	// misses) through the sequential kernels of either path, forced by
	// hand — the operators would switch paths at denseMultiple.
	const n = 1 << 17
	bound := BindVector(f, benchAggCols(0, nil).Schema)
	scramble := func(i, m int) int { return i * 40503 % m } // a permutation of [0, m) for m a power of two
	for _, mult := range []int{1, 2, 4, 8, 16, 32} {
		matches := -1 // of the probe, whichever table answers it
		agg := benchAggCols(n, func(i int) int64 { return int64(scramble(i, n/4) * 4 * mult) })
		build := benchAggCols(n, func(i int) int64 { return int64(scramble(i, n) * mult) })
		probe := benchAggCols(4*n, func(i int) int64 { return int64(i * 40503 % (n + n/3) * mult) })
		for _, table := range []string{"hash", "dense"} {
			scan := func(t *ColTable, join bool) *keyScan {
				ks := newKeyScan(t, lk, join)
				if ks.dense = table == "dense"; ks.dense {
					ks.min, ks.span = 0, n*mult
				}
				return ks
			}
			e := NewExec(1)
			name := fmt.Sprintf("sweep=density/table=%s/range=%dx", table, mult)
			b.Run("op=group/"+name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					ks := scan(agg, false)
					g := newBatchGrouper(e, agg, lk, bound, true)
					if ks.dense {
						g.useDense(ks, n)
					}
					ks.feed(g, n, e.batchSize())
					g.finish(nil)
					if out := g.emitTable(e, NewSchema(append([]string{"g"}, f.Outs()...)), false); out.Card() != n/4 {
						b.Fatalf("got %d groups, want %d", out.Card(), n/4)
					}
					e.Release()
				}
			})
			b.Run("op=join/"+name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					bld := e.buildKeys(scan(build, true), -1)
					hits := 0
					for _, v := range probe.Cols[0].Ints {
						hits += len(bld.lookIntKey(v))
					}
					if matches < 0 {
						matches = hits
					}
					if hits != matches || hits < 2*n {
						b.Fatalf("got %d matches, want %d", hits, matches)
					}
					e.Release()
				}
			})
		}
	}

	// The Bloom sweep: a 400k-row probe on an encoded key against 4,096 or
	// 50,000 unique build keys, 1, 5 or 25 % of its rows finding a partner
	// (the rest miss with keys of their own). Each cell times one build
	// and probe with the filter on — buildKeys gets the probe cardinality,
	// which clears bloomProbeBuildRatio for both builds — and off
	// (probeCard -1), for the inner join's pairs and the semijoin's
	// matched rows. The off ÷ on table is in DESIGN "Bloom-filtered
	// probes".
	const nProbe = 400_000
	for _, keys := range []string{"str", "int2"} {
		slots := []int{0}
		if keys == "int2" {
			slots = []int{0, 1}
		}
		for _, distinct := range []int{4096, 50_000} {
			build := benchKeyTable(distinct, func(i int) int { return i }, keys, append([]string{"pk", "pk2"}[:len(slots)], "pv", "pf"))
			for _, pct := range []int{1, 5, 25} {
				present := func(i int) bool { return i%100 < pct }
				probe := benchKeyTable(nProbe, func(i int) int {
					if present(i) {
						return i * 7919 % distinct
					}
					return distinct + i
				}, keys, append([]string{"g", "h"}[:len(slots)], "v", "f"))
				want := nProbe / 100 * pct // rows finding their one partner
				for _, w := range []int{1, 2} {
					e := NewExec(w)
					par := e.parForBatch(nProbe)
					for _, op := range []string{"join", "semijoin"} {
						emit := func(sc *batchScratch, rows []int32, posts [][]int32) {
							for k, i := range rows {
								for _, ri := range posts[k] {
									sc.li, sc.ri = append(sc.li, i), append(sc.ri, ri)
								}
							}
						}
						if op == "semijoin" {
							emit = func(sc *batchScratch, rows []int32, posts [][]int32) {
								for k, i := range rows {
									if len(posts[k]) > 0 {
										sc.li = append(sc.li, i)
									}
								}
							}
						}
						for _, filter := range []string{"on", "off"} {
							probeCard := nProbe
							if filter == "off" {
								probeCard = -1
							}
							name := fmt.Sprintf("op=%s/sweep=bloom/keys=%s/build=%d/present=%d%%/workers=%d/filter=%s", op, keys, distinct, pct, w, filter)
							b.Run(name, func(b *testing.B) {
								for i := 0; i < b.N; i++ {
									bld := e.buildKeys(newKeyScan(build, slots, true), probeCard)
									if (bld.bloom != nil) != (filter == "on") {
										b.Fatalf("filter %s, but bloom attached: %v", filter, bld.bloom != nil)
									}
									if li, _, _ := e.probePairs(probe, slots, bld, par, nil, emit); len(li) != want {
										b.Fatalf("got %d rows, want %d", len(li), want)
									}
									e.Release()
								}
							})
						}
					}
				}
			}
		}
	}
}
