package algebra

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// TestPoolRunsEveryTaskExactlyOnce is the pool's basic contract: a job
// of n tasks runs each task exactly once before Run returns, for any
// worker count (including zero, where the submitter drains alone).
func TestPoolRunsEveryTaskExactlyOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 4, 16} {
		p := NewPool(workers)
		const n = 1000
		var hits [n]atomic.Int32
		p.Run(n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: task %d ran %d times", workers, i, got)
			}
		}
		st := p.Stats()
		if st.Jobs != 1 || st.WorkerTasks+st.HelperTasks != n {
			t.Fatalf("workers=%d: stats %+v, want 1 job and %d tasks", workers, st, n)
		}
		p.Close()
	}
}

// TestPoolConcurrentJobs hammers one pool from many submitters at once —
// the service layer's actual usage pattern. Every job must still see
// each of its tasks exactly once.
func TestPoolConcurrentJobs(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	const submitters, tasks = 16, 257
	var wg sync.WaitGroup
	wg.Add(submitters)
	for s := 0; s < submitters; s++ {
		go func() {
			defer wg.Done()
			for round := 0; round < 8; round++ {
				var sum atomic.Int64
				p.Run(tasks, func(i int) { sum.Add(int64(i) + 1) })
				if got := sum.Load(); got != tasks*(tasks+1)/2 {
					t.Errorf("job saw task sum %d, want %d", got, tasks*(tasks+1)/2)
				}
			}
		}()
	}
	wg.Wait()
}

// TestPoolClosedRunsInline pins the shutdown behavior: Run on a closed
// pool degrades to inline execution instead of hanging or dropping work.
func TestPoolClosedRunsInline(t *testing.T) {
	p := NewPool(2)
	p.Close()
	var count atomic.Int32
	p.Run(10, func(i int) { count.Add(1) })
	if count.Load() != 10 {
		t.Fatalf("closed pool ran %d/10 tasks", count.Load())
	}
}

// TestPoolZeroTasks pins that an empty fan-out returns immediately.
func TestPoolZeroTasks(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	p.Run(0, func(i int) { t.Error("task ran for n=0") })
}

// TestPoolOperatorsBitIdentical is the determinism half of the shared
// scheduler: batch hash operators executing on a pool-attached Exec must
// produce results bit-identical to the sequential row operators — the
// same contract the goroutine-spawning fan-out already satisfies. Tiny
// morsels force the parallel machinery onto the small inputs.
func TestPoolOperatorsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(615))
	p := NewPool(3)
	defer p.Close()
	ex := NewExec(8).WithMorselSize(2).WithPool(p)
	for trial := 0; trial < 20; trial++ {
		l := TableOf(randomRel(rng, []string{"a", "b"}, 60))
		r := TableOf(randomRel(rng, []string{"c", "d"}, 40))
		want := HashJoin(l, r, []int{0}, []int{0})
		got := ex.RowTable(ex.BatchHashJoin(l.Columnar(), r.Columnar(), []int{0}, []int{0}, l.Schema.Concat(r.Schema)))
		sameRel(t, want.Rel(), got.Rel(), []string{"a", "b", "c", "d"})

		gwant := HashGroup(l, []string{"a"}, nil)
		ggot := ex.RowTable(ex.BatchHashGroup(l.Columnar(), BindAggregation(l.Schema, []string{"a"}, nil)))
		sameRel(t, gwant.Rel(), ggot.Rel(), []string{"a"})
	}
	if p.Stats().WorkerTasks+p.Stats().HelperTasks == 0 {
		t.Fatal("pool executed no tasks — fan-out did not route through it")
	}
}
