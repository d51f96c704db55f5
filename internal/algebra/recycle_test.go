package algebra

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"
	"unsafe"
)

// TestRecyclerReuse pins the recycler's contract: after Release a take of
// the same size class is served the same backing array, zeroed by take;
// a nil Exec, a sub-threshold size and an element type with pointers fall
// through to make; a second Release hands nothing back twice; concurrent
// takes from one execution get pairwise-distinct arrays; and a join
// build's key index and Bloom filter are counted and, handed back once its
// probe is over, serve the next build.
func TestRecyclerReuse(t *testing.T) {
	// A collection empties the free lists, and sync.Pool is per P: one P
	// and no collector make a put visible to the next get. The race
	// detector still drops a quarter of all puts, hence the retries.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n = 3*recycleMin + 5
	_, size := sizeClass(n)

	t.Run("same array, zeroed", func(t *testing.T) {
		hs := &HashStats{}
		e := NewExec(1).WithHashStats(hs)
		for try := 0; ; try++ {
			a := take[int64](e, n)
			for i := range a {
				a[i] = int64(i) + 1
			}
			e.Release()
			before := hs.Snapshot()
			b := take[int64](e, n)
			e.Release()
			if &a[0] != &b[0] {
				if try < 50 {
					continue
				}
				t.Fatal("a released array was never served again")
			}
			if len(b) != n || cap(b) != size {
				t.Fatalf("len %d cap %d, want %d and the class size %d", len(b), cap(b), n, size)
			}
			for i, v := range b[:n] {
				if v != 0 {
					t.Fatalf("take served element %d = %d, want 0", i, v)
				}
			}
			got := hs.Snapshot()
			if d, r := got.BufBytes-before.BufBytes, got.BufReused-before.BufReused; d != int64(8*size) || r != d {
				t.Fatalf("recorded %d bytes taken, %d reused; want %d both", d, r, 8*size)
			}
			return
		}
	})

	t.Run("bypass", func(t *testing.T) {
		e := NewExec(1)
		if s := take[int64]((*Exec)(nil), n); len(s) != n || cap(s) != n {
			t.Fatalf("nil Exec: len %d cap %d, want a plain make of %d", len(s), cap(s), n)
		}
		if s := takeDirty[int32](e, recycleMin-1); cap(s) != recycleMin-1 {
			t.Fatalf("below the threshold: cap %d, want a plain make", cap(s))
		}
		if s := take[Value](e, n); cap(s) != n {
			t.Fatalf("pointer-carrying element type: cap %d, want a plain make", cap(s))
		}
		if len(e.rec.taken) != 0 {
			t.Fatalf("%d bypassing takes were listed for Release", len(e.rec.taken))
		}
	})

	t.Run("second Release is a no-op", func(t *testing.T) {
		e := NewExec(1)
		take[float64](e, n)
		e.Release()
		e.Release()
		if e.rec.taken != nil {
			t.Fatal("Release left buffers listed")
		}
		// Had the array been put twice, two takes could both be served it.
		a, b := take[float64](e, n), take[float64](e, n)
		if &a[0] == &b[0] {
			t.Fatal("two live takes share one array")
		}
		e.Release()
	})

	t.Run("key indexes and filters", func(t *testing.T) {
		// 20,000 sparse keys: an index of 32,768 slots and, for a probe
		// eight times the build, a filter of 4,096 words.
		const rows = 20000
		ints, strs := make([]int64, rows), make([]string, rows)
		for i := range ints {
			ints[i], strs[i] = int64(i)*1000, fmt.Sprint(i*1000)
		}
		for _, col := range []*Vector{{Kind: ColInt, Ints: ints}, {Kind: ColStr, Strs: strs}} {
			tc := &ColTable{Schema: NewSchema([]string{"k"}), N: rows, Cols: []*Vector{col}}
			hs := &HashStats{}
			e := NewExec(1).WithHashStats(hs)
			build := func() (arrays []any, bytes int) {
				b := e.buildKeys(newKeyScan(tc, []int{0}, true), 8*rows)
				defer b.release(e)
				if b.bloom == nil || (b.ints == nil) != (col.Kind == ColStr) {
					t.Fatalf("%v keys: the fixture builds no filter or the wrong index", col.Kind)
				}
				arrays, bytes = []any{&b.bloom.words[0]}, 8*len(b.bloom.words)
				if b.ints != nil {
					return append(arrays, &b.ints.keys[0], &b.ints.ids[0]), bytes + 12*len(b.ints.ids)
				}
				return append(arrays, &b.bytes.slots[0]), bytes + int(unsafe.Sizeof(bytesIndexSlot{}))*len(b.bytes.slots)
			}
			for try := 0; ; try++ {
				first, _ := build()
				e.Release()
				before := hs.Snapshot()
				second, bytes := build()
				got := hs.Snapshot()
				e.Release()
				if !slices.Equal(first, second) {
					if try < 50 {
						continue
					}
					t.Fatalf("%v keys: an index or filter handed back was never served again", col.Kind)
				}
				if d, r := got.BufBytes-before.BufBytes, got.BufReused-before.BufReused; r < int64(bytes) || d < r {
					t.Fatalf("%v keys: a build recorded %d bytes taken, %d reused; want the index's and filter's %d among the reused", col.Kind, d, r, bytes)
				}
				break
			}
		}
	})

	t.Run("concurrent takes", func(t *testing.T) {
		runtime.GOMAXPROCS(8)
		defer runtime.GOMAXPROCS(1)
		e := NewExec(8)
		for i := 0; i < 8; i++ {
			takeDirty[int32](e, n)
		}
		e.Release() // seed the free list with up to eight arrays
		const takers = 8
		got := make([]*int32, takers)
		var wg sync.WaitGroup
		for g := 0; g < takers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s := takeDirty[int32](e, n)
				for i := range s {
					s[i] = int32(g) // the race detector sees any sharing
				}
				got[g] = &s[0]
			}()
		}
		wg.Wait()
		for i := range got {
			for j := i + 1; j < len(got); j++ {
				if got[i] == got[j] {
					t.Fatalf("takers %d and %d share an array", i, j)
				}
			}
		}
		if len(e.rec.taken) != takers {
			t.Fatalf("%d takes listed, want %d", len(e.rec.taken), takers)
		}
		e.Release()
	})
}

// TestSizeClasses: a class's size is at least the request and at most a
// quarter more, and every request of a class has the same size.
func TestSizeClasses(t *testing.T) {
	sizes := map[int]int{}
	for n := recycleMin; n < 1<<20; n += 1 + n/97 {
		c, size := sizeClass(n)
		if size < n || 4*size > 5*n {
			t.Fatalf("n=%d: class size %d", n, size)
		}
		if s, ok := sizes[c]; ok && s != size {
			t.Fatalf("class %d holds sizes %d and %d", c, s, size)
		}
		sizes[c] = size
		if c2, _ := sizeClass(size); c2 != c {
			t.Fatalf("n=%d: its class size %d is in class %d, not %d", n, size, c2, c)
		}
	}
}
