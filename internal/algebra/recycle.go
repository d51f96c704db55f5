package algebra

import (
	"math/bits"
	"sync"
	"unsafe"
)

// Buffer lifetimes (DESIGN.md): an execution's intermediate buffers of at
// least recycleMin elements are taken through its Exec and handed back by
// Exec.Release, for the next execution to reuse; smaller ones, and all of
// a nil Exec, are plain make. The free lists are process-wide sync.Pools,
// per element type and size class: a pool drops what it holds within two
// collections, so an idle process gives the memory back without a cap.
const recycleMin = 2048

// recyclable lists the element types that have free lists.
var recyclable = [...]any{int32(0), int64(0), uint64(0), float64(0), "", sortRec{}, bytesIndexSlot{}}

// freeLists[type][class] holds *[]T whose length is the class's size.
var freeLists [len(recyclable)][4 * 64]sync.Pool

func listOf[T any]() *[4 * 64]sync.Pool {
	for k, z := range recyclable {
		if _, ok := z.(T); ok {
			return &freeLists[k]
		}
	}
	return nil
}

// sizeClass returns the class of n ≥ recycleMin elements and its size: n
// rounded up to a quarter power of two, at most 25 % more.
func sizeClass(n int) (class, size int) {
	shift := bits.Len(uint(n-1)) - 3
	m := (n-1)>>shift + 1 // 5 … 8
	return 4*shift + m - 5, m << shift
}

// recycler lists what one execution took; fan-out tasks take concurrently.
type recycler struct {
	mu    sync.Mutex
	taken []held
}

// held is a taken array and the free list it goes back to.
type held struct {
	list *sync.Pool
	box  any // *[]T
}

// borrow returns n elements of an array up to twice that size from the
// free lists, or of a fresh one, cleared when zero. A held array is e's
// until Release; any other is operator scratch, handed back by give.
func borrow[T any](e *Exec, n int, hold, zero bool) []T {
	if e == nil || e.rec == nil || n < recycleMin {
		return make([]T, n)
	}
	fl := listOf[T]()
	if fl == nil {
		return make([]T, n)
	}
	c, size := sizeClass(n)
	var box *[]T
	for up := c; up < min(c+4, len(fl)) && box == nil; up++ {
		if box, _ = fl[up].Get().(*[]T); box != nil {
			c, size = up, len(*box)
		}
	}
	e.hashStats().recordBuf(size*int(unsafe.Sizeof(*new(T))), box != nil)
	if box == nil {
		s := make([]T, size)
		box = &s
	} else if zero {
		clear((*box)[:n])
	}
	if hold {
		e.rec.mu.Lock()
		e.rec.taken = append(e.rec.taken, held{&fl[c], box})
		e.rec.mu.Unlock()
	}
	return (*box)[:n]
}

// take returns n zeroed elements that are e's until e.Release; takeDirty
// leaves them stale, for a caller that writes every element before reading
// it; scratch is takeDirty for an operator's own scratch (give), zeroed is
// scratch cleared.
func take[T any](e *Exec, n int) []T      { return borrow[T](e, n, true, true) }
func takeDirty[T any](e *Exec, n int) []T { return borrow[T](e, n, true, false) }
func scratch[T any](e *Exec, n int) []T   { return borrow[T](e, n, false, false) }
func zeroed[T any](e *Exec, n int) []T    { return borrow[T](e, n, false, true) }

// give hands scratch back to its free list; s must not be used afterwards.
// Only a handed-back array's box is allocated: a small one costs nothing.
func give[T any](e *Exec, s []T) {
	if fl := listOf[T](); fl != nil && e != nil && e.rec != nil && cap(s) >= recycleMin {
		if c, size := sizeClass(cap(s)); size == cap(s) { // not an append-grown array
			box := s[:size]
			fl[c].Put(&box)
		}
	}
}

// Release hands back everything the execution took. Call it once nothing
// reads its intermediates any more — the engine does, after the result's
// rows are copied out. A second call is a no-op.
func (e *Exec) Release() {
	if e == nil || e.rec == nil {
		return
	}
	e.rec.mu.Lock()
	defer e.rec.mu.Unlock()
	for _, h := range e.rec.taken {
		h.list.Put(h.box)
	}
	e.rec.taken = nil
}
