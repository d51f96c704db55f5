package algebra

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestExecSettings pins the Exec settings resolution: 0 and negatives
// resolve to GOMAXPROCS, nil and 1 are sequential, WithMorselSize(0)
// restores the default.
func TestExecSettings(t *testing.T) {
	if got, want := NewExec(0).Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("NewExec(0).Workers() = %d, want GOMAXPROCS %d", got, want)
	}
	if got, want := NewExec(-3).Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("NewExec(-3).Workers() = %d, want GOMAXPROCS %d", got, want)
	}
	if got := NewExec(5).Workers(); got != 5 {
		t.Errorf("NewExec(5).Workers() = %d", got)
	}
	var nilExec *Exec
	if nilExec.Workers() != 1 || nilExec.par() {
		t.Error("nil Exec must be sequential with 1 worker")
	}
	if NewExec(1).par() {
		t.Error("Workers 1 must select the sequential path")
	}
	if e := NewExec(4).WithMorselSize(0); e.morsel != 0 {
		t.Errorf("WithMorselSize(0) = %d, want adaptive default 0", e.morsel)
	}
}

// TestSizeFor pins the adaptive morsel sizing: explicit sizes are
// exact, the default yields several morsels per worker within the
// [minMorselSize, DefaultMorselSize] clamp, and sizing is a pure
// function of the input cardinality.
func TestSizeFor(t *testing.T) {
	e := NewExec(4)
	if got := e.WithMorselSize(7).sizeFor(1_000_000); got != 7 {
		t.Errorf("explicit size: got %d, want 7", got)
	}
	if got := e.sizeFor(10); got != minMorselSize {
		t.Errorf("tiny input: got %d, want floor %d", got, minMorselSize)
	}
	if got := e.sizeFor(100_000_000); got != DefaultMorselSize {
		t.Errorf("huge input: got %d, want cap %d", got, DefaultMorselSize)
	}
	n := 4000
	size := e.sizeFor(n)
	morsels := e.morselCount(n)
	if morsels < e.workers {
		t.Errorf("n=%d: only %d morsels for %d workers (size %d)", n, morsels, e.workers, size)
	}
	if size < minMorselSize || size > DefaultMorselSize {
		t.Errorf("size %d outside clamp", size)
	}
}

// TestForMorsels checks the scheduler: every row index is covered
// exactly once for assorted sizes and worker counts, including the
// empty input.
func TestForMorsels(t *testing.T) {
	for _, n := range []int{0, 1, 5, 100, 1000} {
		for _, workers := range []int{1, 2, 7} {
			for _, size := range []int{1, 3, 4096} {
				e := NewExec(workers).WithMorselSize(size)
				covered := make([]atomic.Int32, n)
				e.forMorsels(n, func(m, lo, hi int) {
					if lo < 0 || hi > n || lo >= hi {
						t.Errorf("n=%d: bad morsel [%d,%d)", n, lo, hi)
					}
					for i := lo; i < hi; i++ {
						covered[i].Add(1)
					}
				})
				for i := range covered {
					if covered[i].Load() != 1 {
						t.Fatalf("n=%d w=%d size=%d: row %d covered %d times", n, workers, size, i, covered[i].Load())
					}
				}
			}
		}
	}
}
