package algebra

// Flat open-addressing key indexes for the batch runtime's hot paths.
// Go's generic map pays a hash of an already-hashed key, pointer-chasing
// buckets and a per-insert allocation on exactly the traffic the paper's
// C_out metric counts; these indexes are the cache-conscious replacement
// in the X100 tradition (Boncz et al., CIDR'05): one flat slot array,
// linear probing, power-of-two capacity, cached 64-bit hashes. An index
// maps a key to a caller-assigned dense id, handed out in first-encounter
// order; one structure per key shape serves both hash operators:
//
//   - intIndex keys raw int64 payloads (the single-ColInt fast path)
//     through a splitmix64-style mixer.
//   - bytesIndex keys the canonical typed binary key encodings
//     (batchkey.go) under a word-at-a-time hash (hashKey). Keys are copied
//     into an index-owned arena on first insert — callers hand in pooled
//     scratch buffers that are overwritten batch to batch.
//
// A grouping's ids address its accumulators (batchagg.go). A join build's
// ids feed the counting sort of dense.go (sortPostings), which lays the
// build rows out as CSR posting lists in build-input order — the same
// routine that sorts a direct-addressed build by key−min. The probe asks
// the index with find, which never inserts. Every index is built by one
// pass over its input in input order, on one goroutine, so its geometry
// and probe sequences are the same for every worker count. Slots are
// derived from the HIGH bits of the hash (h >> shift); the Bloom filter
// reads the low ones.

import (
	"bytes"
	"math/bits"
	"sync/atomic"
)

// hashInt64 mixes an int64 join key into a 64-bit hash (the splitmix64
// finalizer). The raw payload is not usable directly: sequential keys
// would collide per stride in the high slot bits.
func hashInt64(x int64) uint64 {
	z := uint64(x)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// minTableCap is the smallest slot-array size. Power of two, like every
// capacity here.
const minTableCap = 8

// tableGeometry sizes a slot array for hint distinct keys at no more
// than ¾ load: the smallest power-of-two capacity c with hint ≤ ¾·c,
// its probe mask, and the right-shift that turns a 64-bit hash into a
// home slot from its high bits.
func tableGeometry(hint int) (capacity int, mask uint64, shift uint) {
	c := minTableCap
	for c-c/4 < hint {
		c <<= 1
	}
	return c, uint64(c - 1), uint(64 - bits.Len(uint(c-1)))
}

// groupIndexSeedCap bounds a group index's seed: a grouping is seeded for
// as many groups as its input has rows, but for no more than this many.
// Group counts are unknown up front and often tiny against the row count,
// so a large input starts small and grows; a tiny one (8-row tables) gets
// no slots it cannot fill. Growth is deterministic and ids are handed out
// in first-encounter order, so the seed moves no output row.
const groupIndexSeedCap = 64

// intIndex maps int64 keys to caller-assigned dense int32 ids: the key
// index of the single-ColInt fast path. Its slot arrays are scratch of e
// (recycle.go): growing hands the old ones back, release the last.
type intIndex struct {
	e        *Exec
	keys     []int64
	ids      []int32 // id + 1; 0 marks an empty slot
	mask     uint64
	shift    uint
	n        int
	growAt   int
	maxProbe int
}

func newIntIndex(e *Exec, hint int) *intIndex {
	x := &intIndex{e: e}
	c, mask, shift := tableGeometry(hint)
	x.keys, x.ids, x.mask, x.shift = scratch[int64](e, c), zeroed[int32](e, c), mask, shift
	x.growAt = c - c/4
	return x
}

// release hands the slot arrays back; x must not be used afterwards.
func (x *intIndex) release() {
	give(x.e, x.keys)
	give(x.e, x.ids)
	x.keys, x.ids = nil, nil
}

// lookupOrAdd returns key's id under its precomputed hash (hashInt64(key)
// — the hash the key scan already took), inserting it as id on
// first encounter (added reports which). Assigned ids are stable across
// growth.
func (x *intIndex) lookupOrAdd(h uint64, key int64, id int32) (got int32, added bool) {
	for {
		i := h >> x.shift
		d := 1
		for {
			if x.ids[i] == 0 {
				if x.n >= x.growAt {
					x.grow()
					break // re-probe in the grown index
				}
				x.n++
				if d > x.maxProbe {
					x.maxProbe = d
				}
				x.keys[i], x.ids[i] = key, id+1
				return id, true
			}
			if x.keys[i] == key {
				return x.ids[i] - 1, false
			}
			i = (i + 1) & x.mask
			d++
		}
	}
}

func (x *intIndex) grow() {
	oldKeys, oldIds := x.keys, x.ids
	c := 2 * len(oldKeys)
	x.keys, x.ids = scratch[int64](x.e, c), zeroed[int32](x.e, c)
	x.mask = uint64(c - 1)
	x.shift--
	x.growAt = c - c/4
	x.maxProbe = 0
	for oi, id := range oldIds {
		if id == 0 {
			continue
		}
		i := hashInt64(oldKeys[oi]) >> x.shift
		d := 1
		for x.ids[i] != 0 {
			i = (i + 1) & x.mask
			d++
		}
		if d > x.maxProbe {
			x.maxProbe = d
		}
		x.keys[i], x.ids[i] = oldKeys[oi], id
	}
	give(x.e, oldKeys)
	give(x.e, oldIds)
}

// find returns key's id under its hash, if present. It never inserts.
func (x *intIndex) find(h uint64, key int64) (int32, bool) {
	for i := h >> x.shift; x.ids[i] != 0; i = (i + 1) & x.mask {
		if x.keys[i] == key {
			return x.ids[i] - 1, true
		}
	}
	return 0, false
}

// fillBloom adds every present key's hash to the filter.
func (x *intIndex) fillBloom(f *bloomFilter) {
	for i, id := range x.ids {
		if id != 0 {
			f.add(hashInt64(x.keys[i]))
		}
	}
}

func (x *intIndex) record(hs *HashStats) {
	if hs != nil {
		hs.recordTable(x.n, len(x.ids), x.maxProbe)
	}
}

// bytesIndexSlot is one slot of a bytesIndex; id holds the id plus one, 0
// marks empty (the empty key is legal, so occupancy needs its own marker).
type bytesIndexSlot struct {
	hash       uint64
	koff, klen int32
	id         int32
}

// bytesIndex maps encoded byte keys to caller-assigned dense int32 ids:
// the key index of the encoded-key path. Keys are copied into the
// index-owned arena on first encounter; equality is cached-hash first,
// bytes second, and growing re-places slots by the cached hash. The slot
// array is scratch of e, as intIndex's are.
type bytesIndex struct {
	e        *Exec
	slots    []bytesIndexSlot
	mask     uint64
	shift    uint
	n        int
	growAt   int
	maxProbe int
	arena    []byte
}

func newBytesIndex(e *Exec, hint int) *bytesIndex {
	x := &bytesIndex{e: e}
	c, mask, shift := tableGeometry(hint)
	x.slots, x.mask, x.shift = zeroed[bytesIndexSlot](e, c), mask, shift
	x.growAt = c - c/4
	return x
}

// release hands the slot array back; x must not be used afterwards.
func (x *bytesIndex) release() {
	give(x.e, x.slots)
	x.slots = nil
}

// lookupOrAdd returns key's id under its precomputed hash, inserting it
// as id on first encounter. key may point into caller scratch; it is
// copied when inserted.
func (x *bytesIndex) lookupOrAdd(h uint64, key []byte, id int32) (got int32, added bool) {
	for {
		i := h >> x.shift
		d := 1
		for {
			s := &x.slots[i]
			if s.id == 0 {
				if x.n >= x.growAt {
					x.grow()
					break // re-probe in the grown index
				}
				x.n++
				if d > x.maxProbe {
					x.maxProbe = d
				}
				koff := int32(len(x.arena))
				x.arena = append(x.arena, key...)
				*s = bytesIndexSlot{hash: h, koff: koff, klen: int32(len(key)), id: id + 1}
				return id, true
			}
			if s.hash == h && bytes.Equal(x.key(s), key) {
				return s.id - 1, false
			}
			i = (i + 1) & x.mask
			d++
		}
	}
}

func (x *bytesIndex) grow() {
	old := x.slots
	c := 2 * len(old)
	x.slots = zeroed[bytesIndexSlot](x.e, c)
	x.mask = uint64(c - 1)
	x.shift--
	x.growAt = c - c/4
	x.maxProbe = 0
	for oi := range old {
		s := &old[oi]
		if s.id == 0 {
			continue
		}
		i := s.hash >> x.shift
		d := 1
		for x.slots[i].id != 0 {
			i = (i + 1) & x.mask
			d++
		}
		if d > x.maxProbe {
			x.maxProbe = d
		}
		x.slots[i] = *s
	}
	give(x.e, old)
}

func (x *bytesIndex) key(s *bytesIndexSlot) []byte {
	return x.arena[s.koff : s.koff+s.klen]
}

// find returns key's id under its hash, if present. It never inserts.
func (x *bytesIndex) find(h uint64, key []byte) (int32, bool) {
	for i := h >> x.shift; x.slots[i].id != 0; i = (i + 1) & x.mask {
		if s := &x.slots[i]; s.hash == h && bytes.Equal(x.key(s), key) {
			return s.id - 1, true
		}
	}
	return 0, false
}

// fillBloom adds every present key's hash to the filter.
func (x *bytesIndex) fillBloom(f *bloomFilter) {
	for i := range x.slots {
		if x.slots[i].id != 0 {
			f.add(x.slots[i].hash)
		}
	}
}

func (x *bytesIndex) record(hs *HashStats) {
	if hs != nil {
		hs.recordTable(x.n, len(x.slots), x.maxProbe)
	}
}

// bloomBitsPerKey sizes the build-side Bloom filter; with the two probes
// below, 8 bits/key lands around a 5% false-positive rate.
const bloomBitsPerKey = 8

// bloomMinBits floors the filter size (power of two, ≥ one word).
const bloomMinBits = 256

// bloomProbeBuildRatio gates the filter: it pays only when many probe
// keys miss, which the planner's cardinalities signal as a probe side
// much larger than the build side.
const bloomProbeBuildRatio = 8

// bloomFilter is a split two-probe Bloom filter over cached 64-bit key
// hashes. Both probes derive from the one hash the index already
// computed — no extra hashing on either side.
type bloomFilter struct {
	words []uint64
	mask  uint64
}

// newBloom returns an empty filter for keys keys whose words are scratch
// of e (recycle.go), for the build that owns it to give back.
func newBloom(e *Exec, keys int) *bloomFilter {
	n := bloomMinBits
	for n < keys*bloomBitsPerKey {
		n <<= 1
	}
	return &bloomFilter{words: zeroed[uint64](e, n/64), mask: uint64(n - 1)}
}

func (f *bloomFilter) bitPositions(h uint64) (uint64, uint64) {
	return h & f.mask, bits.RotateLeft64(h, 21) & f.mask
}

func (f *bloomFilter) add(h uint64) {
	b1, b2 := f.bitPositions(h)
	f.words[b1>>6] |= 1 << (b1 & 63)
	f.words[b2>>6] |= 1 << (b2 & 63)
}

// mayContain is exact on negatives (an added hash always passes) and
// approximate on positives — a false positive only costs the table probe
// the caller was about to do anyway, so filter answers never change join
// results.
func (f *bloomFilter) mayContain(h uint64) bool {
	b1, b2 := f.bitPositions(h)
	return f.words[b1>>6]&(1<<(b1&63)) != 0 && f.words[b2>>6]&(1<<(b2&63)) != 0
}

// buildBloom decides the optional build-side filter for a join: non-nil
// when the estimated probe/build ratio clears bloomProbeBuildRatio
// (probeCard < 0 disables — outer joins emit every probe row anyway, so
// a filter saves nothing there).
func buildBloom(e *Exec, buildCard, probeCard int) *bloomFilter {
	if probeCard >= 0 && probeCard >= bloomProbeBuildRatio*max(buildCard, 1) {
		return newBloom(e, buildCard)
	}
	return nil
}

// HashStats aggregates hash-table telemetry across one execution:
// every table/index build records its geometry here, every bloom-
// filtered probe its check/pass counts, every gather of a view's column
// (vector.go) its size, every recycled buffer (recycle.go) its bytes,
// every performed sort (sort.go) the arm it took. All counters are
// atomic: probes, gathers and takes run inside task fan-outs.
// A nil *HashStats disables recording.
type HashStats struct {
	builds      atomic.Int64
	dense       atomic.Int64
	entries     atomic.Int64
	capacity    atomic.Int64
	maxProbe    atomic.Int64
	bloomChecks atomic.Int64
	bloomPasses atomic.Int64
	gatherCols  atomic.Int64
	gatherRows  atomic.Int64
	bufBytes    atomic.Int64
	bufReused   atomic.Int64
	sortDense   atomic.Int64
	sortRadix   atomic.Int64
	sortCompare atomic.Int64
}

func (hs *HashStats) recordTable(entries, capacity, maxProbe int) {
	if hs == nil {
		return
	}
	hs.builds.Add(1)
	hs.entries.Add(int64(entries))
	hs.capacity.Add(int64(capacity))
	for {
		cur := hs.maxProbe.Load()
		if int64(maxProbe) <= cur || hs.maxProbe.CompareAndSwap(cur, int64(maxProbe)) {
			return
		}
	}
}

// recordDense records a direct-addressed table (dense.go) over a key
// range of the given width: no probe sequence, so its probe length is 1.
func (hs *HashStats) recordDense(entries, width int) {
	if hs != nil {
		hs.dense.Add(1)
		hs.recordTable(entries, width, 1)
	}
}

// recordSort records a performed sort by its arm: counting (dense), radix
// or comparator (neither).
func (hs *HashStats) recordSort(dense, radix bool) {
	switch {
	case hs == nil:
	case dense:
		hs.sortDense.Add(1)
	case radix:
		hs.sortRadix.Add(1)
	default:
		hs.sortCompare.Add(1)
	}
}

func (hs *HashStats) recordBloom(checks, passes int) {
	if hs == nil || checks == 0 {
		return
	}
	hs.bloomChecks.Add(int64(checks))
	hs.bloomPasses.Add(int64(passes))
}

// recordGather records cols columns of a view gathered, rows values in all.
func (hs *HashStats) recordGather(cols, rows int) {
	if hs != nil {
		hs.gatherCols.Add(int64(cols))
		hs.gatherRows.Add(int64(rows))
	}
}

// recordBuf records a buffer taken through the recycler (recycle.go).
func (hs *HashStats) recordBuf(bytes int, reused bool) {
	if hs != nil {
		hs.bufBytes.Add(int64(bytes))
		if reused {
			hs.bufReused.Add(int64(bytes))
		}
	}
}

// Snapshot captures the counters as plain values.
func (hs *HashStats) Snapshot() HashTableStats {
	if hs == nil {
		return HashTableStats{}
	}
	return HashTableStats{
		Builds:      hs.builds.Load(),
		Dense:       hs.dense.Load(),
		Entries:     hs.entries.Load(),
		Capacity:    hs.capacity.Load(),
		MaxProbe:    hs.maxProbe.Load(),
		BloomChecks: hs.bloomChecks.Load(),
		BloomPasses: hs.bloomPasses.Load(),
		GatherCols:  hs.gatherCols.Load(),
		GatherRows:  hs.gatherRows.Load(),
		BufBytes:    hs.bufBytes.Load(),
		BufReused:   hs.bufReused.Load(),
		SortDense:   hs.sortDense.Load(),
		SortRadix:   hs.sortRadix.Load(),
		SortCompare: hs.sortCompare.Load(),
	}
}

// HashTableStats is a point-in-time view of HashStats: how many flat
// tables were built (Dense of them direct-addressed, whose capacity is
// their key range), their summed entries and capacities (the quotient
// is the mean load factor), the worst probe sequence any build walked,
// the Bloom filter's check/pass traffic, and how many columns of join
// outputs were gathered (GatherRows values in all) — the rest was carried
// as views and never read — and how many bytes of intermediate buffers the
// execution took through the recycler (BufReused of them from its free
// lists rather than fresh), and how many sorts the sort layer performed
// by counting sort, radix sort and comparator.
type HashTableStats struct {
	Builds      int64
	Dense       int64
	Entries     int64
	Capacity    int64
	MaxProbe    int64
	BloomChecks int64
	BloomPasses int64
	GatherCols  int64
	GatherRows  int64
	BufBytes    int64
	BufReused   int64
	SortDense   int64
	SortRadix   int64
	SortCompare int64
}

// LoadFactor is the mean occupancy of the built tables (0 when none).
func (s HashTableStats) LoadFactor() float64 {
	if s.Capacity == 0 {
		return 0
	}
	return float64(s.Entries) / float64(s.Capacity)
}

// BloomPassRate is the fraction of bloom-checked probe keys that went on
// to the table (0 when no filter ran); low is good — the complement is
// the fraction of probes the filter skipped.
func (s HashTableStats) BloomPassRate() float64 {
	if s.BloomChecks == 0 {
		return 0
	}
	return float64(s.BloomPasses) / float64(s.BloomChecks)
}
