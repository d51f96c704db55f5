package experiments

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"eagg/internal/algebra"
	"eagg/internal/core"
	"eagg/internal/engine"
	"eagg/internal/query"
	"eagg/internal/service"
)

// ServeRow aggregates one TPC-H shape's traffic in an eabench serve run.
type ServeRow struct {
	Query    string
	Requests int
	// CacheHits counts requests whose plan came from the cache (the
	// first request per (shape, epoch) is the only necessary miss).
	CacheHits int
	// QPS is the shape's completed requests per second of wall time
	// (shapes run interleaved, so per-shape qps sums to the total).
	QPS float64
	// Latency percentiles over the shape's end-to-end request times.
	MeanMillis float64
	P50Millis  float64
	P99Millis  float64
	// Match reports that every response reproduced the canonical
	// result — concurrency must never change what a query computes.
	Match bool
}

// ServeReport is the output of eabench serve: one engine serving
// concurrent sessions that replay TPC-H query shapes against resident
// data.
type ServeReport struct {
	Factor   float64
	Sessions int
	Workers  int
	Feedback bool
	Phys     core.PhysMode
	Rows     []ServeRow
	// TotalQPS is completed requests per second across all shapes.
	TotalQPS float64
	// WallMillis is the serving phase's wall time.
	WallMillis float64
	// Metrics is the engine's final state (cache hit/miss, feedback
	// epoch, pool task counts).
	Metrics service.Metrics
	// MetricsAddr is the bound address of the metrics endpoint ("" when
	// none was requested).
	MetricsAddr string
}

// ServeEval stands up a service engine over synthetic TPC-H data and
// drives it with `sessions` concurrent sessions, each replaying the
// named query shapes round-robin until every shape has served
// `requests` requests. Every response is verified against the shape's
// canonical result; per-shape latency percentiles and throughput plus
// the engine's cache/feedback metrics make up the report. A nil or
// empty names list selects every TPC-H query.
//
// A non-nil ln serves the engine's registry for the duration of the
// serving phase at /metrics (Prometheus text exposition) and
// /debug/vars (expvar, registry published under "eagg"); nil serves no
// metrics endpoint. The caller owns creating the listener — a bad
// address is then a flag-validation error, not a mid-run surprise — and
// the server closes it on the way out.
func ServeEval(cfg Config, factor float64, names []string, sessions, requests int, feedback bool, ln net.Listener) *ServeReport {
	cfg = cfg.Defaults()
	if sessions < 1 {
		sessions = 1
	}
	if requests < 1 {
		requests = 1
	}
	names = execQueryNames(names)

	type shape struct {
		name    string
		q       *queryWithData
		pending atomic.Int64 // requests still to issue
		mu      sync.Mutex
		lats    []float64
		hits    int
		match   bool
	}
	shapes := make([]*shape, len(names))

	eng := service.NewEngine(service.EngineOptions{
		Workers:        cfg.Workers,
		MaxConcurrent:  sessions,
		SharedFeedback: feedback,
	})
	defer eng.Close()

	metricsAddr := ""
	if ln != nil {
		metricsAddr = ln.Addr().String()
		eng.Registry().PublishExpvar("eagg")
		mux := http.NewServeMux()
		mux.Handle("/metrics", eng.Registry().Handler())
		mux.Handle("/debug/vars", expvar.Handler())
		srv := &http.Server{Handler: mux}
		go srv.Serve(ln)
		defer srv.Close()
	}

	for i, name := range names {
		q, data, wantRel, attrs, _ := execSetup(cfg, factor, name)
		eng.Register(name, data)
		shapes[i] = &shape{
			name:  name,
			q:     &queryWithData{q: q, wantRel: wantRel, attrs: attrs},
			match: true,
		}
		shapes[i].pending.Store(int64(requests))
	}

	var wg sync.WaitGroup
	wg.Add(sessions)
	start := time.Now()
	for s := 0; s < sessions; s++ {
		go func(s int) {
			defer wg.Done()
			sess := eng.NewSession()
			for {
				served := false
				for off := 0; off < len(shapes); off++ {
					sh := shapes[(s+off)%len(shapes)]
					if sh.pending.Add(-1) < 0 {
						continue
					}
					served = true
					reqStart := time.Now()
					resp, err := sess.Execute(sh.q.q, service.Request{
						Opt:     core.Options{Algorithm: core.AlgEAPrune, Workers: cfg.Workers, Phys: cfg.Phys},
						Exec:    engine.ExecOptions{Workers: cfg.Workers},
						Dataset: sh.name,
					})
					lat := float64(time.Since(reqStart).Microseconds()) / 1000
					ok := err == nil && algebra.EqualBags(sh.q.wantRel, resp.Table.Rel(), sh.q.attrs)
					sh.mu.Lock()
					sh.lats = append(sh.lats, lat)
					if err == nil && resp.CacheHit {
						sh.hits++
					}
					if !ok {
						sh.match = false
					}
					sh.mu.Unlock()
				}
				if !served {
					return
				}
			}
		}(s)
	}
	wg.Wait()
	wall := time.Since(start)

	rep := &ServeReport{
		Factor:      factor,
		Sessions:    sessions,
		Workers:     cfg.Workers,
		Feedback:    feedback,
		Phys:        cfg.Phys,
		WallMillis:  float64(wall.Microseconds()) / 1000,
		Metrics:     eng.Metrics(),
		MetricsAddr: metricsAddr,
	}
	total := 0
	secs := wall.Seconds()
	for _, sh := range shapes {
		sort.Float64s(sh.lats)
		row := ServeRow{
			Query:     sh.name,
			Requests:  len(sh.lats),
			CacheHits: sh.hits,
			Match:     sh.match,
		}
		if n := len(sh.lats); n > 0 {
			sum := 0.0
			for _, l := range sh.lats {
				sum += l
			}
			row.MeanMillis = sum / float64(n)
			row.P50Millis = sh.lats[n/2]
			row.P99Millis = sh.lats[min(n-1, n*99/100)]
			if secs > 0 {
				row.QPS = float64(n) / secs
			}
		}
		total += row.Requests
		rep.Rows = append(rep.Rows, row)
	}
	if secs > 0 {
		rep.TotalQPS = float64(total) / secs
	}
	return rep
}

// queryWithData bundles one shape's query and verification oracle.
type queryWithData struct {
	q       *query.Query
	wantRel *algebra.Rel
	attrs   []string
}

// AllMatch reports whether every served response reproduced its shape's
// canonical result — the go/no-go signal for scripted eabench serve use.
func (r *ServeReport) AllMatch() bool {
	for _, row := range r.Rows {
		if !row.Match {
			return false
		}
	}
	return true
}

// Format renders the report as an aligned table plus the engine's
// shared-state counters.
func (r *ServeReport) Format() string {
	var b strings.Builder
	feedback := "off"
	if r.Feedback {
		feedback = "on"
	}
	fmt.Fprintf(&b, "Service throughput: %d sessions over one shared engine (scale factor %g, workers %d, phys %v, feedback %s)\n",
		r.Sessions, r.Factor, r.Workers, r.Phys, feedback)
	fmt.Fprintf(&b, "%-6s %9s %9s %10s %10s %10s %10s %6s\n",
		"query", "requests", "hits", "qps", "mean ms", "p50 ms", "p99 ms", "match")
	for _, row := range r.Rows {
		match := "ok"
		if !row.Match {
			match = "FAIL"
		}
		fmt.Fprintf(&b, "%-6s %9d %9d %10.1f %10.2f %10.2f %10.2f %6s\n",
			row.Query, row.Requests, row.CacheHits, row.QPS, row.MeanMillis, row.P50Millis, row.P99Millis, match)
	}
	m := r.Metrics
	fmt.Fprintf(&b, "total: %.1f qps over %.0f ms wall\n", r.TotalQPS, r.WallMillis)
	fmt.Fprintf(&b, "engine: cache %d hits / %d misses (%d cached, %d evicted), feedback epoch %d (%d keys), pool %d worker + %d helper tasks over %d jobs (max %d queued), %d admission waits\n",
		m.PlanCacheHits, m.PlanCacheMiss, m.PlanCacheSize, m.PlanCacheEvictions, m.Epoch, m.FeedbackKeys,
		m.Pool.WorkerTasks, m.Pool.HelperTasks, m.Pool.Jobs, m.Pool.MaxQueued, m.AdmissionWaits)
	if r.MetricsAddr != "" {
		fmt.Fprintf(&b, "metrics: served on http://%s/metrics (Prometheus) and /debug/vars (expvar) during the run\n", r.MetricsAddr)
	}
	return b.String()
}
