// Package service is the embedded query-service layer: one Engine
// serves many concurrent queries against resident table data, sharing
// three things across them that the one-shot library calls cannot:
//
//   - a plan cache keyed by (query fingerprint, stats epoch): repeated
//     query shapes skip DP enumeration and plan compilation entirely —
//     an entry holds the plan and the engine.Program prepared from it —
//     with single-flight deduplication so a popular shape is optimized
//     once even when many sessions race on a cold cache;
//   - a global feedback overlay (cost.SharedOverlay): measured
//     per-operator cardinalities harvested from every execution improve
//     the estimates of every later optimization, across sessions, behind
//     a copy-on-read/epoch discipline — each query optimizes against a
//     frozen snapshot, so the workers-1≡8 bit-identity contract of the
//     optimizer and runtime holds unchanged per query;
//   - a shared morsel scheduler (algebra.Pool): one worker pool
//     multiplexed across the operator fan-outs of all in-flight queries,
//     with round-robin per-query fairness at morsel granularity, plus a
//     simple admission semaphore bounding the queries executing at once.
//
// Everything the engine shares is either immutable (plans, programs,
// overlay snapshots) or synchronized (cache, overlay versions, pool), so results
// are bit-identical to the corresponding one-shot library call — the
// concurrent-determinism suite enforces exactly that.
package service

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"eagg/internal/algebra"
	"eagg/internal/core"
	"eagg/internal/cost"
	"eagg/internal/engine"
	"eagg/internal/obs"
	"eagg/internal/plan"
	"eagg/internal/query"
)

// EngineOptions configures a service engine.
type EngineOptions struct {
	// Workers is the size of the shared execution worker pool and the
	// default work-decomposition width of each query (0 = GOMAXPROCS).
	Workers int
	// MaxConcurrent bounds the queries admitted into execution at once
	// (0 = Workers): beyond it, Execute blocks in admission order.
	MaxConcurrent int
	// SharedFeedback enables the global measured-cardinality overlay:
	// every execution publishes its profile, every optimization runs
	// against the current snapshot, and the plan cache invalidates by
	// epoch when measurements actually change.
	SharedFeedback bool
	// PlanCacheSize caps the plan cache (entries; 0 = 256). Eviction is
	// least recently used; stale-epoch entries go first.
	PlanCacheSize int
}

// defaults resolves zero values.
func (o EngineOptions) defaults() EngineOptions {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = o.Workers
	}
	if o.PlanCacheSize <= 0 {
		o.PlanCacheSize = 256
	}
	return o
}

// Engine is a concurrent query service over resident table data. Create
// one with NewEngine, register datasets (or pass data per request), and
// execute queries through sessions from any number of goroutines.
type Engine struct {
	opts  EngineOptions
	pool  *algebra.Pool
	cache *planCache
	stats *cost.SharedOverlay // nil unless SharedFeedback

	sem chan struct{} // admission tickets

	mu       sync.Mutex
	datasets map[string]engine.TableData
	closed   bool
	sessions atomic.Int64

	requests       atomic.Int64
	admissionWaits atomic.Int64

	// Observability: the registry is always on (atomic instruments, no
	// hot-path locks); Registry() exposes it for scraping.
	reg           *obs.Registry
	optimizeMS    *obs.Histogram
	execMS        *obs.Histogram
	epochAdvances *obs.Counter
	resultRows    *obs.Counter
	interRows     *obs.Counter
	errorsTotal   *obs.Counter
	prepared      *obs.Counter
}

// sigBufs recycles the buffers requests encode their plan-cache key into.
var sigBufs = sync.Pool{New: func() any { return new([]byte) }}

// NewEngine starts a service engine: the shared worker pool is running
// and the plan cache and feedback overlay (if enabled) are empty.
func NewEngine(opts EngineOptions) *Engine {
	opts = opts.defaults()
	e := &Engine{
		opts:     opts,
		pool:     algebra.NewPool(opts.Workers),
		cache:    newPlanCache(opts.PlanCacheSize),
		sem:      make(chan struct{}, opts.MaxConcurrent),
		datasets: map[string]engine.TableData{},
	}
	if opts.SharedFeedback {
		e.stats = cost.NewSharedOverlay()
	}
	e.instrument()
	return e
}

// instrument builds the engine's metrics registry. Counters the
// subsystems already maintain (cache hits, pool tasks) are bridged as
// collected functions — the scrape reads the live atomics, nothing is
// double-counted; quantities only the request path knows (latencies,
// row totals) get owned instruments observed inline.
func (e *Engine) instrument() {
	r := obs.NewRegistry()
	e.reg = r

	r.CounterFunc("eagg_requests_total", "queries executed (or failed) through the engine",
		func() float64 { return float64(e.requests.Load()) })
	r.CounterFunc("eagg_admission_waits_total", "queries that blocked on the admission semaphore",
		func() float64 { return float64(e.admissionWaits.Load()) })
	r.GaugeFunc("eagg_sessions", "sessions created",
		func() float64 { return float64(e.sessions.Load()) })

	r.CounterFunc("eagg_plan_cache_hits_total", "plan cache hits (including single-flight waiters)",
		func() float64 { return float64(e.cache.hits.Load()) })
	r.CounterFunc("eagg_plan_cache_misses_total", "plan cache misses (DP optimizations run)",
		func() float64 { return float64(e.cache.misses.Load()) })
	r.CounterFunc("eagg_plan_cache_evictions_total", "plans dropped by capacity eviction or stale-epoch pruning",
		func() float64 { return float64(e.cache.evictions.Load()) })
	r.GaugeFunc("eagg_plan_cache_entries", "plans currently cached",
		func() float64 { return float64(e.cache.size()) })

	r.GaugeFunc("eagg_feedback_epoch", "current shared-feedback epoch (0 = feedback off or unmeasured)",
		func() float64 { return float64(e.Epoch()) })
	r.GaugeFunc("eagg_feedback_keys", "measured cardinalities in the shared overlay",
		func() float64 {
			if e.stats == nil {
				return 0
			}
			return float64(e.stats.Len())
		})
	e.epochAdvances = r.Counter("eagg_feedback_epoch_advances_total",
		"feedback publishes that changed a measurement and invalidated stale plans")

	r.CounterFunc("eagg_pool_jobs_total", "operator fan-outs submitted to the shared scheduler",
		func() float64 { return float64(e.pool.Stats().Jobs) })
	r.CounterFunc("eagg_pool_worker_tasks_total", "morsel tasks executed by pool workers",
		func() float64 { return float64(e.pool.Stats().WorkerTasks) })
	r.CounterFunc("eagg_pool_helper_tasks_total", "morsel tasks executed by submitting goroutines",
		func() float64 { return float64(e.pool.Stats().HelperTasks) })
	r.GaugeFunc("eagg_pool_queue_depth", "currently open pool jobs",
		func() float64 { return float64(e.pool.QueueDepth()) })
	r.GaugeFunc("eagg_pool_max_queued", "high-water mark of concurrently open pool jobs",
		func() float64 { return float64(e.pool.Stats().MaxQueued) })

	e.optimizeMS = r.Histogram("eagg_optimize_ms", "optimization latency per request, milliseconds (cache hits included)", nil)
	e.execMS = r.Histogram("eagg_exec_ms", "execution latency per request, milliseconds", nil)
	e.resultRows = r.Counter("eagg_result_rows_total", "result rows produced")
	e.interRows = r.Counter("eagg_intermediate_rows_total", "intermediate rows materialized (measured C_out)")
	e.errorsTotal = r.Counter("eagg_errors_total", "requests that failed")
	e.prepared = r.Counter("eagg_programs_prepared_total",
		"plans compiled into programs (cache misses, uncached requests, tables whose schemas differ from the cached program's)")
}

// Registry returns the engine's metrics registry — mount
// Registry().Handler() at /metrics to scrape it, or PublishExpvar to
// expose it through expvar.
func (e *Engine) Registry() *obs.Registry { return e.reg }

// Close shuts the engine down: the worker pool drains and exits, and
// subsequent Execute calls fail. In-flight queries complete (their
// fan-outs degrade to inline execution once the pool closes).
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.mu.Unlock()
	e.pool.Close()
}

// Register makes a dataset available to requests by name (replacing any
// previous dataset of that name). The tables must not be mutated after
// registration — every concurrent query reads them directly.
func (e *Engine) Register(name string, data engine.TableData) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.datasets[name] = data
}

// Epoch returns the current feedback epoch (0 when shared feedback is
// off or nothing has been measured yet).
func (e *Engine) Epoch() uint64 {
	if e.stats == nil {
		return 0
	}
	return e.stats.Epoch()
}

// NewSession returns a session bound to the engine. Sessions are cheap
// handles; each is safe for concurrent use by multiple goroutines, and
// any number of sessions may execute at once.
func (e *Engine) NewSession() *Session {
	id := e.sessions.Add(1)
	return &Session{eng: e, id: id}
}

// Metrics is a point-in-time snapshot of the engine's shared state.
type Metrics struct {
	Requests           int64 // queries executed (or failed) through the engine
	AdmissionWaits     int64 // queries that blocked on the admission semaphore
	PlanCacheHits      int64
	PlanCacheMiss      int64
	PlanCacheEvictions int64  // capacity evictions + stale-epoch prunes
	PlanCacheSize      int    // entries currently cached
	ProgramsPrepared   int64  // plans compiled into programs; a plan-cache hit compiles none
	Epoch              uint64 // current feedback epoch
	FeedbackKeys       int    // measured cardinalities in the shared overlay
	Pool               algebra.PoolStats
}

// Metrics returns current counters.
func (e *Engine) Metrics() Metrics {
	m := Metrics{
		Requests:           e.requests.Load(),
		AdmissionWaits:     e.admissionWaits.Load(),
		PlanCacheHits:      e.cache.hits.Load(),
		PlanCacheMiss:      e.cache.misses.Load(),
		PlanCacheEvictions: e.cache.evictions.Load(),
		PlanCacheSize:      e.cache.size(),
		ProgramsPrepared:   e.prepared.Value(),
		Pool:               e.pool.Stats(),
	}
	if e.stats != nil {
		m.Epoch = e.stats.Epoch()
		m.FeedbackKeys = e.stats.Len()
	}
	return m
}

// Session is one client's handle on the engine.
type Session struct {
	eng *Engine
	id  int64
}

// ID returns the session's engine-unique id.
func (s *Session) ID() int64 { return s.id }

// Request is one query submission.
type Request struct {
	// Opt configures the optimizer. Opt.Stats must be nil — the engine
	// installs its own shared-overlay snapshot (requests needing custom
	// statistics belong on the one-shot library entry points).
	Opt core.Options
	// Exec configures execution. Exec.Pool must be nil — the engine
	// supplies the shared scheduler. Exec.Trace is honored: the request
	// records its optimize span (annotated with the plan-cache outcome)
	// and its operator spans into the caller's trace.
	Exec engine.ExecOptions
	// Data is the inline input data; leave nil to use the registered
	// dataset named by Dataset.
	Data engine.TableData
	// Dataset names a registered dataset (ignored when Data is set).
	Dataset string
	// NoCache bypasses the plan cache for this request (the plan is
	// optimized fresh and not stored) — the cold-path reference.
	NoCache bool
}

// Response is one executed query.
type Response struct {
	Table *algebra.Table
	Plan  *plan.Plan
	// Stats is the execution profile (measured C_out, per-operator
	// cardinalities, result rows).
	Stats *engine.ExecStats
	// OptStats reports the optimizer's search effort. On a plan-cache
	// hit it is the zero value — no csg-cmp-pairs enumerated, no plans
	// built — which is exactly the point of the cache.
	OptStats core.Stats
	// CacheHit reports that the plan came from the cache (including
	// waiting on another request's in-flight optimization).
	CacheHit bool
	// Epoch is the feedback epoch the plan was optimized under.
	Epoch uint64
	// OptimizeMillis and ExecMillis split the request's wall time.
	OptimizeMillis float64
	ExecMillis     float64
}

// Execute optimizes and runs one query. Safe for arbitrary concurrent
// use; the result table is bit-identical to the one-shot library call
// (core.Optimize + engine.ExecProfiledOpts) under the same statistics
// snapshot, whatever the concurrency.
//
// A plan-cache miss prepares the plan's program against the request's
// tables inside the single flight and caches it beside the plan; a hit
// runs the cached program and compiles nothing. A request whose tables'
// schemas differ from the ones the cached program was prepared for (the
// same fingerprint over columns in another order) prepares a program of
// its own and leaves the cached one alone.
func (s *Session) Execute(q *query.Query, req Request) (*Response, error) {
	return s.eng.execute(q, req)
}

func (e *Engine) execute(q *query.Query, req Request) (*Response, error) {
	resp, err := e.doExecute(q, req)
	if err != nil {
		e.errorsTotal.Inc()
	}
	return resp, err
}

func (e *Engine) doExecute(q *query.Query, req Request) (*Response, error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, errors.New("service: engine is closed")
	}
	data := req.Data
	if data == nil {
		if req.Dataset == "" {
			e.mu.Unlock()
			return nil, errors.New("service: request needs Data or a Dataset name")
		}
		var ok bool
		data, ok = e.datasets[req.Dataset]
		if !ok {
			e.mu.Unlock()
			return nil, fmt.Errorf("service: unknown dataset %q", req.Dataset)
		}
	}
	e.mu.Unlock()
	if req.Opt.Stats != nil {
		return nil, errors.New("service: Request.Opt.Stats must be nil (the engine supplies the shared statistics snapshot)")
	}
	if req.Exec.Pool != nil {
		return nil, errors.New("service: Request.Exec.Pool must be nil (the engine supplies the shared scheduler)")
	}
	e.requests.Add(1)

	// Admission: bound the queries executing at once. Waiting requests
	// queue on the channel in arrival order.
	select {
	case e.sem <- struct{}{}:
	default:
		e.admissionWaits.Add(1)
		e.sem <- struct{}{}
	}
	defer func() { <-e.sem }()

	// Freeze the statistics for this query: the snapshot is immutable,
	// so the whole optimization — parallel DP workers included — sees
	// one consistent state no concurrent publish can perturb.
	opt := req.Opt
	var epoch uint64
	if e.stats != nil {
		var snap *cost.FeedbackOverlay
		snap, epoch = e.stats.Snapshot()
		opt.Stats = snap
	}

	resp := &Response{Epoch: epoch}
	// With a trace attached, the optimize phase records a span whose id is
	// tr.Len() before the call (Begin appends immediately); TraceOptimize
	// attaches the search telemetry, the cache outcome is annotated after.
	// On a cache hit the stats are zero and the span has no dp-level
	// children — which is exactly the point of the cache.
	tr := req.Exec.Trace
	sid := -1
	if tr != nil {
		sid = tr.Len()
	}
	optStart := time.Now()
	var prog *engine.Program
	if req.NoCache {
		res, err := engine.TraceOptimize(tr, "optimize", func() (*core.Result, error) {
			return core.Optimize(q, opt)
		})
		if err != nil {
			return nil, err
		}
		resp.Plan, resp.OptStats = res.Plan, res.Stats
	} else {
		// The key is encoded into a reused buffer and stays bytes unless
		// the lookup misses: a hit allocates nothing for it.
		sig := sigBufs.Get().(*[]byte)
		*sig = core.AppendFingerprint((*sig)[:0], q, opt)
		_, err := engine.TraceOptimize(tr, "optimize", func() (*core.Result, error) {
			v, hit, err := e.cache.getOrCompute(*sig, epoch, func() (planned, error) {
				res, err := core.Optimize(q, opt)
				if err != nil {
					return planned{}, err
				}
				// A plan these tables cannot be prepared for (one is missing)
				// is cached without a program; requests prepare their own.
				prog, _ := e.prepare(q, res.Plan, data)
				return planned{plan: res.Plan, prog: prog, stats: res.Stats}, nil
			})
			if err != nil {
				return nil, err
			}
			resp.Plan, resp.CacheHit, prog = v.plan, hit, v.prog
			if !hit {
				resp.OptStats = v.stats
			}
			return &core.Result{Plan: v.plan, Stats: resp.OptStats}, nil
		})
		sigBufs.Put(sig)
		if err != nil {
			return nil, err
		}
	}
	if sid >= 0 {
		switch {
		case req.NoCache:
			tr.Annotate(sid, "plan_cache", "bypass")
		case resp.CacheHit:
			tr.Annotate(sid, "plan_cache", "hit")
		default:
			tr.Annotate(sid, "plan_cache", "miss")
		}
	}
	resp.OptimizeMillis = float64(time.Since(optStart).Microseconds()) / 1000
	e.optimizeMS.Observe(resp.OptimizeMillis)

	ex := req.Exec
	if ex.Workers == 0 {
		ex.Workers = e.opts.Workers
	}
	ex.Pool = e.pool
	execStart := time.Now()
	root := -1 // the root operator's span
	if tr != nil {
		root = tr.Len()
	}
	reused := resp.CacheHit && prog != nil
	var tab *algebra.Table
	var stats *engine.ExecStats
	var err error
	if prog != nil {
		tab, stats, err = prog.Run(data, ex)
	}
	if _, mismatch := err.(*engine.SchemaError); prog == nil || mismatch {
		// Run refused before executing anything, so nothing was traced.
		reused = false
		if prog, err = e.prepare(q, resp.Plan, data); err == nil {
			tab, stats, err = prog.Run(data, ex)
		}
	}
	if err != nil {
		return nil, err
	}
	if root >= 0 {
		program := "prepared"
		if reused {
			program = "cached"
		}
		tr.Annotate(root, "program", program)
	}
	resp.ExecMillis = float64(time.Since(execStart).Microseconds()) / 1000
	e.execMS.Observe(resp.ExecMillis)
	resp.Table, resp.Stats = tab, stats
	e.resultRows.Add(int64(stats.ResultRows))
	e.interRows.Add(int64(stats.ActualCout))

	// Publish the measured cardinalities. The epoch only advances when
	// a measurement actually changes (steady-state workloads keep their
	// cached plans); on a change, plans optimized under older epochs
	// are dropped — the epoch half of the cache key already keeps them
	// from being returned, pruning just frees the memory.
	if e.stats != nil {
		if newEpoch, changed := e.stats.Publish(stats.Profile()); changed {
			e.epochAdvances.Inc()
			e.cache.pruneBelow(newEpoch)
		}
	}
	return resp, nil
}

// prepare compiles the plan into a program for data's tables, counting it.
func (e *Engine) prepare(q *query.Query, p *plan.Plan, data engine.TableData) (*engine.Program, error) {
	prog, err := engine.Prepare(q, p, data.Schemas())
	if err == nil {
		e.prepared.Inc()
	}
	return prog, err
}
