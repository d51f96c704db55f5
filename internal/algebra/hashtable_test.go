package algebra

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"eagg/internal/aggfn"
)

// Adversarial coverage for the flat open-addressing indexes and the join
// builds over them: property tests against naive map models, engineered
// hash collisions (keys brute-forced onto one home slot), resize-boundary
// sweeps across every grow threshold, bloom-filter semantics, the key
// scan's entries, and a grow-under-parallelism determinism test (workers
// 1 vs 8, bit-identical).

func equalPosts(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// intBuild runs the hashed join build over int keys — row rows[i] has key
// keys[i] (row i when rows is nil) — its index seeded for hint keys: below
// the distinct key count, it grows while it builds.
func intBuild(hint int, keys []int64, rows []int32) *batchBuild {
	return (*Exec)(nil).buildHashed(true, hint, func(fn func([]keyEntry, []byte)) {
		for i, k := range keys {
			row := int32(i)
			if rows != nil {
				row = rows[i]
			}
			fn([]keyEntry{{row: row, key: k, hash: hashInt64(k)}}, nil)
		}
	})
}

// bytesBuild is intBuild over encoded keys, handed over in one reused
// scratch arena: the index must copy them.
func bytesBuild(hint int, keys [][]byte) *batchBuild {
	return (*Exec)(nil).buildHashed(false, hint, func(fn func([]keyEntry, []byte)) {
		arena := make([]byte, 0, 64)
		for i, k := range keys {
			arena = append(arena[:0], k...)
			fn([]keyEntry{{row: int32(i), klen: int32(len(k)), hash: hashKey(k)}}, arena)
			clear(arena[:cap(arena)])
		}
	})
}

func (b *batchBuild) lookIntKey(k int64) []int32 {
	var checks, passes int
	return b.lookInt(k, &checks, &passes)
}

// TestIntBuildVsMapModel drives the int-key join build with random rows
// from a dup-heavy key domain and checks every posting list — content and
// order — against the map the build replaces; absent keys resolve to nil.
func TestIntBuildVsMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(3000)
		domain := 1 + rng.Intn(400) // heavy duplication at small domains
		keys := make([]int64, n)
		model := map[int64][]int32{}
		for i := range keys {
			keys[i] = int64(rng.Intn(domain)) * 7919 // spread, deterministic
			model[keys[i]] = append(model[keys[i]], int32(i))
		}
		b := intBuild(1+rng.Intn(8), keys, nil)
		if x := b.ints; x.n != len(model) || len(b.posts.rows) != n {
			t.Fatalf("trial %d: %d distinct keys, %d postings; want %d, %d", trial, x.n, len(b.posts.rows), len(model), n)
		}
		for k, want := range model {
			if got := b.lookIntKey(k); !equalPosts(got, want) {
				t.Fatalf("trial %d: key %d: got %v want %v", trial, k, got, want)
			}
		}
		for i := 0; i < 50; i++ {
			if k := int64(domain+i) * 7919; b.lookIntKey(k) != nil {
				t.Fatalf("trial %d: absent key %d resolved postings", trial, k)
			}
		}
		if x := b.ints; float64(x.n)/float64(len(x.ids)) > 0.75 {
			t.Fatalf("trial %d: load factor %d/%d exceeds ¾", trial, x.n, len(x.ids))
		}
	}
}

// TestBytesBuildVsMapModel is the byte-key mirror, with shared prefixes,
// the empty key, and scratch-buffer reuse (the index must copy keys).
func TestBytesBuildVsMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(2000)
		domain := 1 + rng.Intn(300)
		keys := make([][]byte, n)
		model := map[string][]int32{}
		for i := range keys {
			if d := rng.Intn(domain); d > 0 { // d == 0 is the empty key (legal: empty key list)
				keys[i] = fmt.Appendf(nil, "prefix/%03d", d)
			}
			model[string(keys[i])] = append(model[string(keys[i])], int32(i))
		}
		b := bytesBuild(1+rng.Intn(8), keys)
		if x := b.bytes; x.n != len(model) || len(b.posts.rows) != n {
			t.Fatalf("trial %d: %d distinct keys, %d postings; want %d, %d", trial, x.n, len(b.posts.rows), len(model), n)
		}
		for k, want := range model {
			if got := b.lookBytes(hashKey([]byte(k)), []byte(k)); !equalPosts(got, want) {
				t.Fatalf("trial %d: key %q: got %v want %v", trial, k, got, want)
			}
		}
		for i := 0; i < 50; i++ {
			key := fmt.Appendf(nil, "prefix/%03d", domain+i)
			if b.lookBytes(hashKey(key), key) != nil {
				t.Fatalf("trial %d: absent key %q resolved postings", trial, key)
			}
		}
	}
}

// TestIndexesVsMapModel checks intIndex and bytesIndex against map
// models: first-encounter id assignment, id stability across growth, and
// find — the probe's lookup — answering present keys with their ids and
// absent ones with not-found, without inserting or growing.
func TestIndexesVsMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(2000)
		domain := 1 + rng.Intn(500)
		ii := newIntIndex(1)
		bi := newBytesIndex(1)
		im := map[int64]int32{}
		bm := map[string]int32{}
		for i := 0; i < n; i++ {
			k := int64(rng.Intn(domain))
			wantID, ok := im[k]
			if !ok {
				wantID = int32(len(im))
				im[k] = wantID
			}
			gotID, added := ii.lookupOrAdd(hashInt64(k), k, int32(len(im))-1)
			if gotID != wantID || added == ok {
				t.Fatalf("trial %d intIndex key %d: got (%d,%v) want (%d,%v)", trial, k, gotID, added, wantID, !ok)
			}

			bk := []byte(fmt.Sprintf("g%04d", k))
			wantID, ok = bm[string(bk)]
			if !ok {
				wantID = int32(len(bm))
				bm[string(bk)] = wantID
			}
			gotID, added = bi.lookupOrAdd(hashKey(bk), bk, int32(len(bm))-1)
			if gotID != wantID || added == ok {
				t.Fatalf("trial %d bytesIndex key %q: got (%d,%v) want (%d,%v)", trial, bk, gotID, added, wantID, !ok)
			}
		}
		if ii.n != len(im) || bi.n != len(bm) {
			t.Fatalf("trial %d: index sizes %d/%d, want %d/%d", trial, ii.n, bi.n, len(im), len(bm))
		}
		for k, want := range im {
			if id, ok := ii.find(hashInt64(k), k); !ok || id != want {
				t.Fatalf("trial %d: intIndex find %d: (%d,%v), want %d", trial, k, id, ok, want)
			}
			bk := []byte(fmt.Sprintf("g%04d", k))
			if id, ok := bi.find(hashKey(bk), bk); !ok || id != bm[string(bk)] {
				t.Fatalf("trial %d: bytesIndex find %q: (%d,%v), want %d", trial, bk, id, ok, bm[string(bk)])
			}
		}
		icap, bcap := len(ii.ids), len(bi.slots)
		for k := int64(domain); k < int64(domain)+2000; k++ {
			bk := []byte(fmt.Sprintf("g%04d", k))
			if _, ok := ii.find(hashInt64(k), k); ok {
				t.Fatalf("trial %d: intIndex found absent key %d", trial, k)
			}
			if _, ok := bi.find(hashKey(bk), bk); ok {
				t.Fatalf("trial %d: bytesIndex found absent key %q", trial, bk)
			}
		}
		if ii.n != len(im) || bi.n != len(bm) || len(ii.ids) != icap || len(bi.slots) != bcap {
			t.Fatalf("trial %d: find inserted or grew: sizes %d/%d capacities %d/%d", trial, ii.n, bi.n, len(ii.ids), len(bi.slots))
		}
	}
}

// collidingInts brute-forces n int64 keys whose hashes share home slot 0
// under the given shift — the engineered worst case for linear probing.
func collidingInts(shift uint, n int) []int64 {
	keys := make([]int64, 0, n)
	for k := int64(0); len(keys) < n; k++ {
		if hashInt64(k)>>shift == 0 {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestEngineeredCollisions inserts keys that all hash to the same home
// slot: the probe chain must stay correct, maxProbe must reflect the
// pile-up, and a subsequent grow must redistribute without losing ids —
// nor, in a join build over the same keys, postings.
func TestEngineeredCollisions(t *testing.T) {
	x := newIntIndex(48) // capacity 64, growAt 48
	if len(x.ids) != 64 {
		t.Fatalf("geometry: capacity %d, want 64", len(x.ids))
	}
	keys := collidingInts(x.shift, 24)
	for rep := 0; rep < 2; rep++ { // every key twice: the second finds the first's id
		for i, k := range keys {
			if id, added := x.lookupOrAdd(hashInt64(k), k, int32(i)); id != int32(i) || added == (rep > 0) {
				t.Fatalf("rep %d key %d: (%d,%v)", rep, k, id, added)
			}
		}
	}
	if x.maxProbe != len(keys) {
		t.Fatalf("maxProbe %d after %d same-slot keys, want %d", x.maxProbe, len(keys), len(keys))
	}
	// Push past growAt with fresh keys; the colliding keys' ids must
	// survive the redistribution.
	build := append(append(slices.Clone(keys), keys...), make([]int64, 40)...)
	for i := 0; i < 40; i++ {
		k := int64(1_000_000 + i)
		build[2*len(keys)+i] = k
		x.lookupOrAdd(hashInt64(k), k, int32(x.n))
	}
	if len(x.ids) != 128 {
		t.Fatalf("capacity %d after grow, want 128", len(x.ids))
	}
	for i, k := range keys {
		if id, ok := x.find(hashInt64(k), k); !ok || id != int32(i) {
			t.Fatalf("key %d after grow: (%d,%v), want %d", k, id, ok, i)
		}
	}
	b := intBuild(48, build, nil)
	if len(b.ints.ids) != 128 {
		t.Fatalf("build capacity %d, want 128", len(b.ints.ids))
	}
	for i, k := range keys {
		if got, want := b.lookIntKey(k), []int32{int32(i), int32(len(keys) + i)}; !equalPosts(got, want) {
			t.Fatalf("build key %d after grow: got %v want %v", k, got, want)
		}
	}

	// The byte-key index under the same attack (keys colliding under
	// hashKey's high bits at its geometry).
	bx := newBytesIndex(48)
	var bkeys [][]byte
	for i := 0; len(bkeys) < 16; i++ {
		k := []byte(fmt.Sprintf("c%d", i))
		if hashKey(k)>>bx.shift == 0 {
			bkeys = append(bkeys, k)
		}
	}
	for i, k := range bkeys {
		bx.lookupOrAdd(hashKey(k), k, int32(i))
	}
	if bx.maxProbe != len(bkeys) {
		t.Fatalf("bytes maxProbe %d, want %d", bx.maxProbe, len(bkeys))
	}
	bb := bytesBuild(48, bkeys)
	for i, k := range bkeys {
		if id, ok := bx.find(hashKey(k), k); !ok || id != int32(i) {
			t.Fatalf("bytes key %q: (%d,%v), want %d", k, id, ok, i)
		}
		if got := bb.lookBytes(hashKey(k), k); !equalPosts(got, []int32{int32(i)}) {
			t.Fatalf("bytes build key %q: got %v want [%d]", k, got, i)
		}
	}
}

// TestResizeBoundaryKeys sweeps key counts across every grow threshold
// of the first few doublings (growAt is ¾·cap: 6, 12, 24, 48, 96, …),
// starting every structure at minimal capacity so each n crosses its own
// boundary exactly.
func TestResizeBoundaryKeys(t *testing.T) {
	for _, n := range []int{1, 5, 6, 7, 11, 12, 13, 23, 24, 25, 47, 48, 49, 95, 96, 97, 191, 192, 193} {
		ikeys, irows := make([]int64, 0, 2*n), make([]int32, 0, 2*n)
		bkeys := make([][]byte, 0, n)
		ii := newIntIndex(1)
		bi := newBytesIndex(1)
		for i := 0; i < n; i++ {
			// Spread, distinct keys, each with a duplicate posting.
			k := int64(i) * 2654435761
			ikeys, irows = append(ikeys, k, k), append(irows, int32(i), int32(i+n))
			bk := []byte(fmt.Sprintf("rk-%05d", i))
			bkeys = append(bkeys, bk)
			if id, added := ii.lookupOrAdd(hashInt64(k), k, int32(i)); !added || id != int32(i) {
				t.Fatalf("n=%d: intIndex add %d: (%d,%v)", n, i, id, added)
			}
			if id, added := bi.lookupOrAdd(hashKey(bk), bk, int32(i)); !added || id != int32(i) {
				t.Fatalf("n=%d: bytesIndex add %d: (%d,%v)", n, i, id, added)
			}
		}
		ib, bb := intBuild(1, ikeys, irows), bytesBuild(1, bkeys)
		if ib.ints.n != n || bb.bytes.n != n || ii.n != n || bi.n != n {
			t.Fatalf("n=%d: sizes %d/%d/%d/%d", n, ib.ints.n, bb.bytes.n, ii.n, bi.n)
		}
		for i := 0; i < n; i++ {
			k := int64(i) * 2654435761
			if got := ib.lookIntKey(k); !equalPosts(got, []int32{int32(i), int32(i + n)}) {
				t.Fatalf("n=%d: int build key %d: %v", n, k, got)
			}
			bk := []byte(fmt.Sprintf("rk-%05d", i))
			if got := bb.lookBytes(hashKey(bk), bk); !equalPosts(got, []int32{int32(i)}) {
				t.Fatalf("n=%d: bytes build key %q: %v", n, bk, got)
			}
			// Ids assigned before any grow must survive every grow after.
			if id, added := ii.lookupOrAdd(hashInt64(k), k, -2); added || id != int32(i) {
				t.Fatalf("n=%d: intIndex id for %d changed: (%d,%v)", n, k, id, added)
			}
			if id, added := bi.lookupOrAdd(hashKey(bk), bk, -2); added || id != int32(i) {
				t.Fatalf("n=%d: bytesIndex id for %q changed: (%d,%v)", n, bk, id, added)
			}
		}
		if ib.lookIntKey(int64(n)*2654435761) != nil {
			t.Fatalf("n=%d: absent int key resolved", n)
		}
		if bk := []byte(fmt.Sprintf("rk-%05d", n)); bb.lookBytes(hashKey(bk), bk) != nil {
			t.Fatalf("n=%d: absent byte key resolved", n)
		}
	}
}

// TestBloomFilterSemantics pins the filter contract: no false negatives
// ever, and a false-positive rate consistent with 8 bits/key.
func TestBloomFilterSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	for _, n := range []int{1, 10, 100, 5000} {
		f := newBloom(n)
		member := make([]uint64, n)
		for i := range member {
			member[i] = rng.Uint64()
			f.add(member[i])
		}
		for _, h := range member {
			if !f.mayContain(h) {
				t.Fatalf("n=%d: false negative for %x", n, h)
			}
		}
		fp := 0
		const probes = 10000
		for i := 0; i < probes; i++ {
			if f.mayContain(rng.Uint64()) {
				fp++
			}
		}
		if rate := float64(fp) / probes; rate > 0.3 {
			t.Fatalf("n=%d: false-positive rate %.3f", n, rate)
		}
	}
}

// bloomJoinTables builds a join shape that clears the bloom gate: a tiny
// build side and a probe side ≥ 8x larger whose keys mostly miss. The int
// keys are spread out so the build stays on the hash path — a dense key
// range is direct-addressed and has no filter.
func bloomJoinTables(strKeys bool) (l, r *Table) {
	key := func(i int) Value {
		if strKeys {
			return Str(fmt.Sprintf("bk-%04d", i))
		}
		return Int(int64(i) * 1000)
	}
	r = &Table{Schema: NewSchema([]string{"rk", "rv"})}
	for i := 0; i < 32; i++ {
		r.Rows = append(r.Rows, Row{key(i % 24), Int(int64(i * 10))}) // some dup keys
	}
	l = &Table{Schema: NewSchema([]string{"lk", "lv"})}
	for i := 0; i < 600; i++ {
		l.Rows = append(l.Rows, Row{key(i % 500), Int(int64(i))}) // mostly misses
	}
	return l, r
}

// TestBloomJoinsMatchRow pins bloom safety end to end: with the filter
// demonstrably active (BloomChecks > 0), inner/semi/anti results equal
// the row runtime bit for bit — on the int fast path and the encoded
// path, under a sequential and a parallel probe — and the outer
// joins never consult a filter.
func TestBloomJoinsMatchRow(t *testing.T) {
	for _, strKeys := range []bool{false, true} {
		l, r := bloomJoinTables(strKeys)
		lc, rc := ColTableOf(l), ColTableOf(r)
		lk, rk := []int{0}, []int{0}
		execs := map[string]*Exec{
			"seq": NewExec(1),
			"par": NewExec(8).WithMorselSize(64),
		}
		for name, e := range execs {
			hs := &HashStats{}
			e = e.WithHashStats(hs)
			prefix := fmt.Sprintf("str=%v/%s", strKeys, name)
			identicalRows(t, prefix+"/join",
				HashJoin(l, r, lk, rk), e.BatchHashJoin(lc, rc, lk, rk, lc.Schema.Concat(rc.Schema)).Table())
			identicalRows(t, prefix+"/semi",
				HashSemiJoin(l, r, lk, rk), e.BatchHashSemiJoin(lc, rc, lk, rk).Table())
			identicalRows(t, prefix+"/anti",
				HashAntiJoin(l, r, lk, rk), e.BatchHashAntiJoin(lc, rc, lk, rk).Table())
			snap := hs.Snapshot()
			if snap.BloomChecks == 0 {
				t.Fatalf("%s: bloom never consulted (checks=0) — the gate regressed", prefix)
			}
			if snap.BloomPasses >= snap.BloomChecks {
				t.Fatalf("%s: bloom filtered nothing (%d/%d)", prefix, snap.BloomPasses, snap.BloomChecks)
			}
			if snap.Builds == 0 {
				t.Fatalf("%s: no table builds recorded", prefix)
			}

			// Outer joins emit every probe row — no filter, no checks.
			hs2 := &HashStats{}
			e2 := e.WithHashStats(hs2)
			pad := NullRow(r.Schema)
			e2.BatchHashLeftOuter(lc, rc, lk, rk, pad, lc.Schema.Concat(rc.Schema))
			if got := hs2.Snapshot().BloomChecks; got != 0 {
				t.Fatalf("%s: left outer consulted a bloom filter (%d checks)", prefix, got)
			}
		}
	}
}

// TestGrowUnderParallelDeterminism drives joins and aggregation over
// thousands of distinct string keys — the key indexes seed small and must
// grow repeatedly while the probe and the emit fan out — and asserts
// workers 1 and 8 produce bit-identical results.
func TestGrowUnderParallelDeterminism(t *testing.T) {
	r := &Table{Schema: NewSchema([]string{"rk", "rv"})}
	for i := 0; i < 3000; i++ {
		r.Rows = append(r.Rows, Row{Str(fmt.Sprintf("key-%04d", i)), Int(int64(i))})
	}
	l := &Table{Schema: NewSchema([]string{"lk", "lv", "lf"})}
	for i := 0; i < 6000; i++ {
		l.Rows = append(l.Rows, Row{
			Str(fmt.Sprintf("key-%04d", (i*7)%4000)), // ~¾ hit, some keys dup'd
			Int(int64(i)),
			Float(float64(i) * 0.125),
		})
	}
	lc, rc := ColTableOf(l), ColTableOf(r)
	w1 := NewExec(1)
	w8 := NewExec(8).WithMorselSize(128)

	identicalRows(t, "join w1≡w8",
		w1.BatchHashJoin(lc, rc, []int{0}, []int{0}, lc.Schema.Concat(rc.Schema)).Table(),
		w8.BatchHashJoin(lc, rc, []int{0}, []int{0}, lc.Schema.Concat(rc.Schema)).Table())

	f := aggfn.Vector{
		{Out: "c", Kind: aggfn.CountStar},
		{Out: "s", Kind: aggfn.Sum, Arg: "lf"}, // float sum: order-sensitive
	}
	identicalRows(t, "group w1≡w8",
		w1.BatchHashGroup(lc, BindAggregation(lc.Schema, []string{"lk"}, f)).Table(),
		w8.BatchHashGroup(lc, BindAggregation(lc.Schema, []string{"lk"}, f)).Table())

	// And both equal the sequential row operator on its Go maps.
	identicalRows(t, "join row≡w8",
		HashJoin(l, r, []int{0}, []int{0}),
		w8.BatchHashJoin(lc, rc, []int{0}, []int{0}, lc.Schema.Concat(rc.Schema)).Table())
}

// TestHashStatsRecording pins the collector arithmetic, that grouper
// builds report through it, and the exact figures of hashed join builds.
func TestHashStatsRecording(t *testing.T) {
	hs := &HashStats{}
	hs.recordTable(6, 8, 3)
	hs.recordTable(2, 8, 5)
	hs.recordBloom(100, 25)
	s := hs.Snapshot()
	if s.Builds != 2 || s.Entries != 8 || s.Capacity != 16 || s.MaxProbe != 5 {
		t.Fatalf("snapshot %+v", s)
	}
	if s.LoadFactor() != 0.5 {
		t.Fatalf("load factor %v, want 0.5", s.LoadFactor())
	}
	if s.BloomPassRate() != 0.25 {
		t.Fatalf("bloom pass rate %v, want 0.25", s.BloomPassRate())
	}
	if z := (HashTableStats{}); z.LoadFactor() != 0 || z.BloomPassRate() != 0 {
		t.Fatal("zero stats must not divide by zero")
	}

	tb := aggColumnsTable()
	tc := ColTableOf(tb)
	for name, e := range map[string]*Exec{
		"seq-int": NewExec(1),
		"par-int": NewExec(8).WithMorselSize(16),
	} {
		ghs := &HashStats{}
		NewExec(1).WithHashStats(ghs) // exercise the copy semantics: original untouched
		ex := e.WithHashStats(ghs)
		ex.BatchHashGroup(tc, BindAggregation(tc.Schema, []string{"g1"}, aggfn.Vector{{Out: "c", Kind: aggfn.CountStar}}))
		if snap := ghs.Snapshot(); snap.Builds == 0 || snap.Entries == 0 {
			t.Fatalf("%s: grouper recorded nothing: %+v", name, snap)
		}
	}

	// Join builds, int- and bytes-keyed, with and without a Bloom filter,
	// under a sequential and a parallel probe: one index per build, the
	// same figures for every worker count.
	l, r := intKeyTables()
	lc, rc := ColTableOf(l), ColTableOf(r)
	bl, br := bloomJoinTables(false)
	sl, sr := bloomJoinTables(true)
	type stats struct{ builds, entries, capacity, maxProbe, checks, passes int64 }
	for _, c := range []struct {
		name   string
		l, r   *ColTable
		lk, rk []int
		want   stats
	}{
		{"int", lc, rc, []int{1}, []int{1}, stats{1, 999, 8192, 3, 0, 0}},
		{"bytes", lc, rc, []int{4}, []int{3}, stats{1, 997, 8192, 5, 0, 0}},
		{"bloom-int", ColTableOf(bl), ColTableOf(br), []int{0}, []int{0}, stats{1, 24, 64, 4, 600, 66}},
		{"bloom-bytes", ColTableOf(sl), ColTableOf(sr), []int{0}, []int{0}, stats{1, 24, 64, 4, 600, 65}},
	} {
		for name, e := range map[string]*Exec{"seq": NewExec(1), "par": NewExec(4).WithMorselSize(64)} {
			hs := &HashStats{}
			e.WithHashStats(hs).BatchHashSemiJoin(c.l, c.r, c.lk, c.rk)
			s := hs.Snapshot()
			if got := (stats{s.Builds, s.Entries, s.Capacity, s.MaxProbe, s.BloomChecks, s.BloomPasses}); got != c.want || s.Dense != 0 {
				t.Errorf("%s/%s join: %+v (dense %d), want %+v", c.name, name, got, s.Dense, c.want)
			}
		}
	}
	// A build whose index grows: seeded for one key, it doubles its way to
	// 2,048 slots.
	for _, c := range []struct {
		rk   []int
		want stats
	}{{[]int{1}, stats{1, 999, 2048, 10, 0, 0}}, {[]int{3}, stats{1, 997, 2048, 11, 0, 0}}} {
		hs := &HashStats{}
		ks := newKeyScan(rc, c.rk, true)
		NewExec(1).WithHashStats(hs).buildHashed(ks.col != nil, 1, func(fn func([]keyEntry, []byte)) { ks.scan(0, rc.Card(), 64, fn) })
		s := hs.Snapshot()
		if got := (stats{s.Builds, s.Entries, s.Capacity, s.MaxProbe, s.BloomChecks, s.BloomPasses}); got != c.want {
			t.Errorf("rk=%v growing build: %+v, want %+v", c.rk, got, c.want)
		}
	}
}

// TestKeyScanEntries pins the key scan on int and encoded keys, join and
// grouping scans, dense and selected inputs, against the row runtime's key
// functions: entries arrive in input order, one per row except that join
// scans drop exactly the NULL/NaN-key rows; an int grouping marks its NULL
// key; an int entry carries its payload, an encoded one its row key's bytes
// and their hash; and scan hands out batch by batch what fill returns.
func TestKeyScanEntries(t *testing.T) {
	l, r := intKeyTables()
	lc, rc := ColTableOf(l), ColTableOf(r)
	sel := (*Exec)(nil).BatchHashSemiJoin(lc, rc, []int{4}, []int{3})
	for _, tc := range []*ColTable{lc, sel} {
		rows := tc.Table().Rows
		for _, slots := range [][]int{{1}, {3}, {1, 4}} {
			for _, join := range []bool{true, false} {
				label := fmt.Sprintf("sel=%v slots=%v join=%v", tc.Sel != nil, slots, join)
				ks := newKeyScan(tc, slots, join)
				ents, arena := ks.fill(0, tc.Card(), 100, nil, nil)
				k, nulls := 0, 0
				for li, row := range rows {
					if join && rowHasNullKey(row, slots) {
						continue
					}
					if k == len(ents) {
						t.Fatalf("%s: %d entries, row %d has none", label, len(ents), li)
					}
					en := &ents[k]
					k++
					if en.row != tc.phys(li) {
						t.Fatalf("%s: entry %d is row %d, want %d", label, k-1, en.row, tc.phys(li))
					}
					switch v := row[slots[0]]; {
					case ks.col != nil && v.IsNull():
						nulls++
						if en.klen != nullKey {
							t.Fatalf("%s: row %d: NULL key not marked", label, en.row)
						}
					case ks.col != nil:
						if en.klen != 0 || en.key != v.I || en.hash != hashInt64(v.I) {
							t.Fatalf("%s: row %d: entry %+v for key %d", label, en.row, *en, v.I)
						}
					default:
						want := appendRowKey(nil, row, slots)
						if join {
							want = appendJoinKey(nil, row, slots)
						}
						if got := en.bytes(arena); string(got) != string(want) || en.hash != hashKey(got) {
							t.Fatalf("%s: row %d: key %x (hash %x), want %x", label, en.row, got, en.hash, want)
						}
					}
				}
				if k != len(ents) {
					t.Fatalf("%s: %d entries for %d keyed rows", label, len(ents), k)
				}
				if ks.col != nil && !join && nulls == 0 {
					t.Fatalf("%s: the grouping scan saw no NULL key", label)
				}
				if join && len(ents) == tc.Card() {
					t.Fatalf("%s: join scan dropped no NULL-key row", label)
				}
				var scanned []keyEntry
				ks.scan(0, tc.Card(), 100, func(batch []keyEntry, barena []byte) {
					for _, en := range batch {
						want := &ents[len(scanned)]
						if en.row != want.row || en.klen != want.klen || (ks.col != nil && en.key != want.key) ||
							(ks.col == nil && string(en.bytes(barena)) != string(want.bytes(arena))) {
							t.Fatalf("%s: scan entry %d is %+v, fill's %+v", label, len(scanned), en, *want)
						}
						scanned = append(scanned, en)
					}
				})
				if len(scanned) != len(ents) {
					t.Fatalf("%s: scan yielded %d entries, fill %d", label, len(scanned), len(ents))
				}
			}
		}
	}
}
