package algebra

// Pool is a shared morsel scheduler: one fixed set of worker goroutines
// multiplexed across the task fan-outs of many concurrent plan
// executions. Attaching a Pool to an Exec (WithPool) reroutes the
// goroutine spawns of forTasks/forMorsels into the pool; the work
// decomposition itself — morsel boundaries, task order — still derives only from the Exec's configured worker count, so
// results stay bit-identical whether tasks run on pool workers, on the
// submitter, or sequentially.
//
// Scheduling is round-robin over the open jobs at task granularity: each
// worker claims one task from the next job in rotation, so a query with
// many tasks cannot starve a query with few (per-query fairness at the
// granularity of a single morsel). Submitters always help drain their
// own job, which makes Run deadlock-free under any load: even with every
// pool worker busy elsewhere — or a pool of zero workers — the
// submitting goroutine completes its job alone.

import (
	"sync"
	"sync/atomic"
)

// poolJob is one fan-out submitted to the pool: n tasks claimed through
// an atomic cursor, completion signalled when all n are done.
type poolJob struct {
	n    int
	fn   func(i int)
	next atomic.Int64 // task claim cursor
	done atomic.Int64 // completed tasks; closing fin at done==n gives
	// the waiter a happens-before edge on everything every task wrote
	fin chan struct{}
}

// runOne claims and runs one task, counting it in tasks — before fin can
// close, so the counters are exact once Run returns; it reports whether a
// task was left to claim. The goroutine that completes the last task closes
// fin.
func (j *poolJob) runOne(tasks *atomic.Int64) bool {
	t := int(j.next.Add(1)) - 1
	if t >= j.n {
		return false
	}
	j.fn(t)
	tasks.Add(1)
	if int(j.done.Add(1)) == j.n {
		close(j.fin)
	}
	return true
}

// exhausted reports that every task has been claimed (not necessarily
// finished) — the job no longer needs scheduling.
func (j *poolJob) exhausted() bool { return int(j.next.Load()) >= j.n }

// Pool multiplexes a fixed worker set across concurrent jobs. The zero
// value is not usable; construct with NewPool. A nil *Pool attached to
// an Exec means "no pool" (plain goroutine fan-out).
type Pool struct {
	mu     sync.Mutex
	cond   *sync.Cond
	jobs   []*poolJob // open jobs, scheduled round-robin
	rr     int        // rotation cursor into jobs
	closed bool
	wg     sync.WaitGroup

	workers int
	// counters (atomic): lifetime totals for reports and tests.
	jobCount    atomic.Int64
	workerTasks atomic.Int64 // tasks executed by pool workers
	helperTasks atomic.Int64 // tasks executed by submitting goroutines
	maxQueued   atomic.Int64 // high-water mark of concurrently open jobs
}

// NewPool starts a pool with the given number of worker goroutines
// (0 or negative is allowed: jobs are then drained entirely by their
// submitters, which is still correct, just not concurrent).
func NewPool(workers int) *Pool {
	if workers < 0 {
		workers = 0
	}
	p := &Pool{workers: workers}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.workerLoop()
	}
	return p
}

// Workers returns the pool's worker-goroutine count.
func (p *Pool) Workers() int { return p.workers }

// pick returns the next job in round-robin rotation, blocking while no
// job is open; it returns nil once the pool is closed and drained.
// Exhausted jobs are pruned in passing (their remaining tasks are in
// flight on other goroutines; completion is signalled through fin, not
// through the job list).
func (p *Pool) pick() *poolJob {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		kept := p.jobs[:0]
		for _, j := range p.jobs {
			if !j.exhausted() {
				kept = append(kept, j)
			}
		}
		p.jobs = kept
		if len(p.jobs) > 0 {
			p.rr++
			return p.jobs[p.rr%len(p.jobs)]
		}
		if p.closed {
			return nil
		}
		p.cond.Wait()
	}
}

func (p *Pool) workerLoop() {
	defer p.wg.Done()
	for {
		j := p.pick()
		if j == nil {
			return
		}
		// One task per pick: the rotation in pick is what gives
		// concurrent queries morsel-granular fairness.
		j.runOne(&p.workerTasks)
	}
}

// Run executes fn(i) for every i in [0, n), distributing tasks over the
// pool's workers, and returns when all n tasks have finished. The
// submitting goroutine participates in draining its own job, so Run
// never deadlocks regardless of pool load; on a closed pool it simply
// runs the whole job inline.
func (p *Pool) Run(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	j := &poolJob{n: n, fn: fn, fin: make(chan struct{})}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	p.jobs = append(p.jobs, j)
	if depth := int64(len(p.jobs)); depth > p.maxQueued.Load() {
		p.maxQueued.Store(depth) // exact: updated under mu
	}
	p.mu.Unlock()
	p.cond.Broadcast()
	p.jobCount.Add(1)

	// Help drain our own job (never other jobs: a query's submitter
	// should not add latency to itself by running strangers' morsels).
	for j.runOne(&p.helperTasks) {
	}
	<-j.fin
}

// Close shuts the pool down: workers exit once the open jobs are
// drained, and subsequent Run calls execute inline on the caller.
// Close blocks until every worker goroutine has exited.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
}

// PoolStats is a snapshot of the pool's lifetime counters.
type PoolStats struct {
	Jobs        int64 // fan-outs submitted
	WorkerTasks int64 // tasks executed by pool workers
	HelperTasks int64 // tasks executed by submitting goroutines
	// MaxQueued is the high-water mark of concurrently open jobs — how
	// many queries' fan-outs the round-robin rotation was multiplexing at
	// the busiest moment (the per-query-fairness pressure gauge).
	MaxQueued int64
}

// Stats returns the pool's lifetime counters.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Jobs:        p.jobCount.Load(),
		WorkerTasks: p.workerTasks.Load(),
		HelperTasks: p.helperTasks.Load(),
		MaxQueued:   p.maxQueued.Load(),
	}
}

// QueueDepth returns the number of currently open jobs — the live gauge
// behind the metrics endpoint (MaxQueued is the lifetime high-water
// mark). Exhausted-but-unpruned jobs count until a worker prunes them;
// the value is a scheduling snapshot, not a promise.
func (p *Pool) QueueDepth() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.jobs)
}
