package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// workload is one closed loop: a fixed, seeded operation sequence per
// client that the phases repeat pass after pass.
type workload interface {
	// setUp makes every input from the seed, computes the oracles,
	// starts what the workload serves from, runs each shape once so
	// caches are warm, and proves the oracle notices a corrupted value.
	setUp(seed int64) error
	tearDown()
	clients() int
	opsPerPass(client int) int
	// beginPass lays out pass number n. The operations of a pass are the
	// same multiset every time; single-client workloads reshuffle them,
	// because a fixed order of fixed allocations makes GC cycles land on
	// the same operations all run long, and on others in the next run.
	beginPass(n int)
	// do runs operation i of the client's pass, verifies its output and
	// records it. tr is nil in untraced passes.
	do(client, i int, a *acc, tr *Trace)
	// counters reads the cumulative counters of shared state (zero
	// where the workload has none).
	counters() sharedCounters
	// probe times direct calls into single layers after the traced
	// passes and adds what set-up measured.
	probe(m metricSet)
}

// sharedCounters are the service engine's cumulative counters.
type sharedCounters struct {
	cacheHits, cacheMisses, evictions, admissionWaits int64
	poolWorkerTasks, poolHelperTasks, poolMaxQueued   int64
}

func (c sharedCounters) minus(o sharedCounters) sharedCounters {
	return sharedCounters{
		cacheHits: c.cacheHits - o.cacheHits, cacheMisses: c.cacheMisses - o.cacheMisses,
		evictions: c.evictions - o.evictions, admissionWaits: c.admissionWaits - o.admissionWaits,
		poolWorkerTasks: c.poolWorkerTasks - o.poolWorkerTasks, poolHelperTasks: c.poolHelperTasks - o.poolHelperTasks,
		poolMaxQueued: c.poolMaxQueued, // a high-water mark, not a sum
	}
}

// Layers the traced run attributes self time to.
const (
	layerRequest  = iota // harness: request span minus execute and verify
	layerVerify          // harness: checking the output
	layerGlue            // execute span minus its children: admission, plan compile, result conversion
	layerCacheHit        // optimize span of a plan-cache hit: fingerprint and lookup
	layerOptimize        // optimize span minus dp levels: conflict detection, enumeration set-up
	layerDPLevels        // sealed DP levels
	layerScan
	layerJoin
	layerGroup
	layerProject
	numLayers
)

var layerNames = [numLayers]string{
	"harness.request", "harness.verify", "execute.glue", "service.plan_cache_hit",
	"core.optimize", "core.dp_levels", "algebra.scan", "algebra.join", "algebra.group", "algebra.project",
}

// acc accumulates one client's pass. The layer fields are filled in
// traced passes only, so the untraced loop pays for nothing but the
// latency sample.
type acc struct {
	detail   bool
	latNS    []int64
	failed   int
	verifyNS int64

	pairs, plansBuilt, tablePlans int64
	hitUS, missUS, execUS, overUS []float64
	denseMS, wideMS               []float64
	interRows                     float64
	qerrMax                       float64
	hash                          HashStats
	sortsPerformed, sortsElim     int64

	traces   []*Trace
	offsets  []int64
	spans    int64
	layerNS  [numLayers]int64
	execNS   int64 // Σ execute span durations
	joinOut  int64 // rows out of join spans
	groupIn  int64 // rows into grouping spans
	phaseRef time.Time
}

func (a *acc) noteOptimizer(s OptStats) {
	a.pairs += int64(s.CsgCmpPairs)
	a.plansBuilt += int64(s.PlansBuilt)
	a.tablePlans += int64(s.TablePlans)
}

// noteResponse reads the counters a service response already carries.
func (a *acc) noteResponse(r *Response, lat time.Duration) {
	a.noteOptimizer(r.OptStats)
	optUS, execUS := r.OptimizeMillis*1000, r.ExecMillis*1000
	if r.CacheHit {
		a.hitUS = append(a.hitUS, optUS)
	} else {
		a.missUS = append(a.missUS, optUS)
	}
	a.execUS = append(a.execUS, execUS)
	a.overUS = append(a.overUS, float64(lat.Nanoseconds())/1000-optUS-execUS)
	a.interRows += r.Stats.ActualCout
	a.qerrMax = max(a.qerrMax, r.Stats.CoutQError())
	addHash(&a.hash, r.Stats.Hash)
	p, e := r.Plan.SortStats()
	a.sortsPerformed += int64(p)
	a.sortsElim += int64(e)
}

// addHash folds one execution's hash-table telemetry into a total.
func addHash(total *HashStats, h HashStats) {
	total.Builds += h.Builds
	total.Entries += h.Entries
	total.Capacity += h.Capacity
	total.MaxProbe = max(total.MaxProbe, h.MaxProbe)
	total.BloomChecks += h.BloomChecks
	total.BloomPasses += h.BloomPasses
}

// op times one operation and, in a traced pass, wraps it in the harness's
// own spans: request ⊃ {execute, verify}. The program's spans nest under
// execute because it records into the same trace.
type op struct {
	tr            *Trace
	rid, eid, vid int
	start         time.Time
	lat           time.Duration
}

func startOp(tr *Trace) op {
	o := op{tr: tr}
	if tr != nil {
		o.rid = tr.Begin("request", "bench")
		o.eid = tr.Begin("execute", "bench")
	}
	o.start = time.Now()
	return o
}

// returned marks the end of the call under test and the start of its
// verification.
func (o *op) returned() {
	o.lat = time.Since(o.start)
	if o.tr != nil {
		o.tr.End(o.eid)
		o.vid = o.tr.Begin("verify", "bench")
	}
	o.start = time.Now()
}

// verified closes the operation and records it.
func (o *op) verified(a *acc, ok bool) {
	verify := time.Since(o.start)
	if o.tr != nil {
		o.tr.End(o.vid)
		o.tr.End(o.rid)
	}
	a.latNS = append(a.latNS, o.lat.Nanoseconds())
	a.verifyNS += verify.Nanoseconds()
	if !ok {
		a.failed++
	}
}

// startTrace opens a request's trace in a traced pass.
func (a *acc) startTrace() *Trace {
	tr := newTrace()
	a.traces = append(a.traces, tr)
	a.offsets = append(a.offsets, time.Since(a.phaseRef).Nanoseconds())
	return tr
}

// selfTimes returns each span's duration minus the part its direct
// children cover.
func selfTimes(spans []Span) []int64 {
	self := make([]int64, len(spans))
	for i, sp := range spans {
		self[i] += max(sp.DurNS, 0)
		if sp.Parent >= 0 {
			self[sp.Parent] -= max(sp.DurNS, 0)
		}
	}
	for i := range self {
		self[i] = max(self[i], 0)
	}
	return self
}

// layerOf buckets a span: the harness's own by name, the program's by
// category, and its operator spans by name prefix.
func layerOf(sp Span) int {
	switch sp.Cat {
	case "bench":
		switch sp.Name {
		case "execute":
			return layerGlue
		case "verify":
			return layerVerify
		}
		return layerRequest
	case "optimize":
		for _, kv := range sp.Args {
			if kv.Key == "plan_cache" && kv.Value == "hit" {
				return layerCacheHit
			}
		}
		return layerOptimize
	case "dp-level":
		return layerDPLevels
	}
	switch {
	case strings.HasPrefix(sp.Name, "scan "):
		return layerScan
	case strings.HasPrefix(sp.Name, "Γ"):
		return layerGroup
	case strings.HasPrefix(sp.Name, "Π"):
		return layerProject
	}
	return layerJoin
}

// foldTraces attributes the pass's spans to layers and drops the traces.
func (a *acc) foldTraces() {
	for _, tr := range a.traces {
		spans := tr.Spans()
		a.spans += int64(len(spans))
		for i, self := range selfTimes(spans) {
			sp := spans[i]
			ly := layerOf(sp)
			a.layerNS[ly] += self
			switch ly {
			case layerGlue:
				a.execNS += sp.DurNS
			case layerJoin:
				a.joinOut += max(sp.RowsOut, 0)
			case layerGroup:
				a.groupIn += max(sp.RowsIn, 0)
			}
		}
	}
	a.traces, a.offsets = nil, nil
}

func (a *acc) merge(b *acc) {
	a.latNS = append(a.latNS, b.latNS...)
	a.failed += b.failed
	a.verifyNS += b.verifyNS
	a.pairs += b.pairs
	a.plansBuilt += b.plansBuilt
	a.tablePlans += b.tablePlans
	a.hitUS = append(a.hitUS, b.hitUS...)
	a.missUS = append(a.missUS, b.missUS...)
	a.execUS = append(a.execUS, b.execUS...)
	a.overUS = append(a.overUS, b.overUS...)
	a.denseMS = append(a.denseMS, b.denseMS...)
	a.wideMS = append(a.wideMS, b.wideMS...)
	a.interRows += b.interRows
	a.qerrMax = max(a.qerrMax, b.qerrMax)
	addHash(&a.hash, b.hash)
	a.sortsPerformed += b.sortsPerformed
	a.sortsElim += b.sortsElim
	a.spans += b.spans
	for i := range a.layerNS {
		a.layerNS[i] += b.layerNS[i]
	}
	a.execNS += b.execNS
	a.joinOut += b.joinOut
	a.groupIn += b.groupIn
}

// pass is one repetition of every client's sequence.
type pass struct {
	ops        int
	wall       time.Duration
	cpu        time.Duration
	allocBytes uint64
}

// phase is a run of passes of one kind (traced or not).
type phase struct {
	passes   []pass
	total    *acc
	shared   sharedCounters
	gcCycles uint32
	gcPause  time.Duration
	heapSys  uint64
	// kept holds the first requests' traces for the Chrome file.
	kept        []*Trace
	keptOffsets []int64
}

// rusage reads the process's CPU time (user + system) and its resident
// high-water mark (ru_maxrss is in KiB on Linux).
func rusage() (cpu time.Duration, peakRSSMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), float64(ru.Maxrss) / 1024
}

const keepTraces = 20

// runPhase repeats passes until d has elapsed and minOps operations have
// run (at least one pass). The sequence of a pass is fixed, so counts per
// pass compare across commits whatever the number of passes a machine fits
// into d.
func runPhase(w workload, d time.Duration, minOps int, traced bool) *phase {
	ph := &phase{total: &acc{}}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0, pause0 := ms0.NumGC, ms0.PauseTotalNs
	shared0 := w.counters()
	start := time.Now()
	for len(ph.passes) == 0 || time.Since(start) < d || ph.ops() < minOps {
		n := w.clients()
		accs := make([]*acc, n)
		for c := range accs {
			accs[c] = &acc{detail: traced, phaseRef: start}
		}
		w.beginPass(len(ph.passes))
		runtime.ReadMemStats(&ms0)
		cpu0, _ := rusage()
		var wg sync.WaitGroup
		t0 := time.Now()
		for c := 0; c < n; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i, ops := 0, w.opsPerPass(c); i < ops; i++ {
					var tr *Trace
					if traced {
						tr = accs[c].startTrace()
					}
					w.do(c, i, accs[c], tr)
				}
			}(c)
		}
		wg.Wait()
		p := pass{wall: time.Since(t0)}
		cpu1, _ := rusage()
		p.cpu = cpu1 - cpu0
		runtime.ReadMemStats(&ms1)
		p.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
		for _, a := range accs {
			p.ops += len(a.latNS)
			for i := 0; i < len(a.traces) && len(ph.kept) < keepTraces; i++ {
				ph.kept = append(ph.kept, a.traces[i])
				ph.keptOffsets = append(ph.keptOffsets, a.offsets[i])
			}
			a.foldTraces()
			ph.total.merge(a)
		}
		ph.passes = append(ph.passes, p)
	}
	ph.shared = w.counters().minus(shared0)
	ph.gcCycles = ms1.NumGC - gc0
	ph.gcPause = time.Duration(ms1.PauseTotalNs - pause0)
	ph.heapSys = ms1.HeapSys
	return ph
}

func (ph *phase) ops() int { return len(ph.total.latNS) }

func (ph *phase) perPass(f func(pass) float64) []float64 {
	out := make([]float64, len(ph.passes))
	for i, p := range ph.passes {
		out[i] = f(p)
	}
	return out
}

func (ph *phase) medianPassWall() float64 {
	return median(ph.perPass(func(p pass) float64 { return p.wall.Seconds() }))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

const mb = 1 << 20

// endToEndMetrics reduces the untraced phase. Rates are medians over
// passes, so one disturbed pass does not move them; percentiles are over
// every operation of the phase.
func endToEndMetrics(ph *phase, setupS []float64) metricSet {
	lat := make([]float64, len(ph.total.latNS))
	for i, ns := range ph.total.latNS {
		lat[i] = float64(ns) / 1e6
	}
	sort.Float64s(lat)
	_, peakRSS := rusage()
	return metricSet{
		"setup_s":         median(setupS),
		"ops_per_s":       median(ph.perPass(func(p pass) float64 { return float64(p.ops) / p.wall.Seconds() })),
		"op_p50_ms":       percentile(lat, 50),
		"op_p90_ms":       percentile(lat, 90),
		"cpu_ms_per_op":   median(ph.perPass(func(p pass) float64 { return ms(p.cpu) / float64(p.ops) })),
		"alloc_mb_per_op": median(ph.perPass(func(p pass) float64 { return float64(p.allocBytes) / mb / float64(p.ops) })),
		"peak_rss_mb":     peakRSS,
	}
}

// layerRow is one line of the traced run's layer table.
type layerRow struct {
	Layer          string  `json:"layer"`
	SelfMSPerOp    float64 `json:"self_ms_per_op"`
	ShareOfRequest float64 `json:"share_of_request"`
}

func layerTable(ph *phase) []layerRow {
	var total int64
	for _, ns := range ph.total.layerNS {
		total += ns
	}
	rows := make([]layerRow, 0, numLayers)
	for i, ns := range ph.total.layerNS {
		if ns == 0 {
			continue
		}
		rows = append(rows, layerRow{
			Layer:          layerNames[i],
			SelfMSPerOp:    float64(ns) / 1e6 / float64(ph.ops()),
			ShareOfRequest: float64(ns) / float64(total),
		})
	}
	return rows
}

// layerMetrics reduces the traced phase: the untraced reference phase of
// the same run gives the tracing overhead.
func layerMetrics(ref, tr *phase, m metricSet) {
	a := tr.total
	ops, passes := float64(tr.ops()), float64(len(tr.passes))
	perOp := func(ly int) float64 { return float64(a.layerNS[ly]) / 1e6 / ops }

	m["obs.trace_overhead_share"] = tr.medianPassWall()/ref.medianPassWall() - 1
	m["obs.spans_per_op"] = float64(a.spans) / ops
	program := a.layerNS[layerCacheHit] + a.layerNS[layerOptimize] + a.layerNS[layerDPLevels] +
		a.layerNS[layerScan] + a.layerNS[layerJoin] + a.layerNS[layerGroup] + a.layerNS[layerProject]
	m["obs.attributed_share"] = float64(program) / float64(a.execNS)
	m["harness.verify_ms_per_op"] = float64(a.verifyNS) / 1e6 / ops
	m["go.gc_cycles_per_op"] = float64(tr.gcCycles) / ops
	m["go.gc_pause_ms_total"] = ms(tr.gcPause)
	m["go.heap_peak_mb"] = float64(tr.heapSys) / mb

	// Optimizer effort, per pass: the sequence is fixed, so on a single
	// client these repeat exactly.
	m["core.csg_cmp_pairs"] = float64(a.pairs) / passes
	m["core.plans_built"] = float64(a.plansBuilt) / passes
	m["core.table_plans"] = float64(a.tablePlans) / passes
	if a.plansBuilt > 0 {
		optimizeNS := a.layerNS[layerOptimize] + a.layerNS[layerDPLevels]
		m["core.us_per_plan_built"] = float64(optimizeNS) / 1e3 / float64(a.plansBuilt)
	}
	if len(a.denseMS) > 0 {
		m["core.optimize_dense_ms"] = median(a.denseMS)
	}
	if len(a.wideMS) > 0 {
		m["core.optimize_wide_ms"] = median(a.wideMS)
	}

	if len(a.execUS) == 0 {
		return // no engine behind this workload
	}
	m["engine.intermediate_rows_per_op"] = a.interRows / ops
	m["engine.cout_qerror_max"] = a.qerrMax
	m["algebra.scan_self_ms"] = perOp(layerScan)
	m["algebra.join_self_ms"] = perOp(layerJoin)
	m["algebra.group_self_ms"] = perOp(layerGroup)
	m["algebra.project_self_ms"] = perOp(layerProject)
	if ns := a.layerNS[layerJoin]; ns > 0 {
		m["algebra.join_rows_per_s"] = float64(a.joinOut) / (float64(ns) / 1e9)
	}
	if ns := a.layerNS[layerGroup]; ns > 0 {
		m["algebra.group_rows_per_s"] = float64(a.groupIn) / (float64(ns) / 1e9)
	}
	m["algebra.ht_builds"] = float64(a.hash.Builds) / ops
	m["algebra.ht_entries"] = float64(a.hash.Entries) / ops
	m["algebra.ht_load_factor"] = a.hash.LoadFactor()
	m["algebra.ht_max_probe"] = float64(a.hash.MaxProbe)
	if a.hash.BloomChecks > 0 {
		m["algebra.bloom_pass_share"] = a.hash.BloomPassRate()
	}
	m["algebra.sorts_performed"] = float64(a.sortsPerformed) / ops
	m["algebra.sorts_eliminated"] = float64(a.sortsElim) / ops
	m["algebra.pool_worker_tasks"] = float64(tr.shared.poolWorkerTasks) / ops
	m["algebra.pool_helper_tasks"] = float64(tr.shared.poolHelperTasks) / ops
	m["algebra.pool_max_queued"] = float64(tr.shared.poolMaxQueued)

	m["service.overhead_us"] = median(a.overUS)
	if len(a.hitUS) > 0 {
		m["service.optimize_hit_us"] = median(a.hitUS)
	}
	if len(a.missUS) > 0 {
		m["service.optimize_miss_us"] = median(a.missUS)
	}
	m["service.exec_us"] = median(a.execUS)
	m["service.plan_cache_hit_share"] = float64(tr.shared.cacheHits) / float64(tr.shared.cacheHits+tr.shared.cacheMisses)
	m["service.plan_cache_evictions"] = float64(tr.shared.evictions) / passes
	m["service.admission_waits"] = float64(tr.shared.admissionWaits) / passes
}

// The untraced run sets up at least minSetUps times, and again until
// setUpBudget has gone into it or maxSetUps is reached: setup_s is the
// median, and a set-up of a third of a second needs more repeats to be
// steady than one of three seconds.
const (
	minSetUps   = 2
	maxSetUps   = 15
	setUpBudget = 4 * time.Second
)

// minSamples is how many operations the measured phase collects at least,
// so that ten or more lie beyond op_p90_ms.
const minSamples = 100

// runDetail is everything one run measured; bench/out keeps it, and the
// result line is its contract-shaped extract.
type runDetail struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Samples   int                    `json:"samples"`
	Passes    int                    `json:"passes"`
	Metrics   map[string]metricValue `json:"metrics"`
	Layers    []layerRow             `json:"layers,omitempty"`
}

// runWorkload is one run of one workload in this process.
func runWorkload(spec workloadSpec, seed int64, seconds float64, traced bool, outDir string) (*runDetail, error) {
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	w := spec.New()
	atLeast, atMost := minSetUps, maxSetUps
	if traced {
		atLeast, atMost = 1, 1 // setup_s is an untraced metric
	}
	var setupS []float64
	var spent time.Duration
	for r := 0; r < atLeast || (r < atMost && spent < setUpBudget); r++ {
		if r > 0 {
			w.tearDown()
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		if err := w.setUp(seed); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", spec.Name, err)
		}
		took := time.Since(t0)
		spent += took
		setupS = append(setupS, took.Seconds())
	}
	defer w.tearDown()
	runtime.GC()

	d := time.Duration(seconds * float64(time.Second))
	det := &runDetail{Workload: spec.Name, Seed: seed, Seconds: seconds, Trace: traced}
	var measured *phase
	if !traced {
		measured = runPhase(w, d, minSamples, false)
		det.Metrics = endToEndMetrics(measured, setupS).render(endToEnd)
	} else {
		// A third of the time each: the untraced reference, the traced
		// passes, and the direct layer probes.
		ref := runPhase(w, d/3, 0, false)
		measured = runPhase(w, d/3, 0, true)
		m := metricSet{}
		layerMetrics(ref, measured, m)
		w.probe(m)
		det.Metrics = m.render(perLayer)
		det.Layers = layerTable(measured)
		if err := writeTraceFile(outDir, spec.Name, measured); err != nil {
			return nil, err
		}
	}
	det.Attempted = measured.ops()
	det.Failed = measured.total.failed
	det.Correct = det.Failed == 0
	det.Samples = measured.ops()
	det.Passes = len(measured.passes)
	return det, nil
}
