package service

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"eagg/internal/core"
	"eagg/internal/obs"
)

// scrape fetches the Prometheus exposition and parses the plain
// counter/gauge samples into a name→value map (histogram series keep
// their suffixed names: eagg_exec_ms_count etc.).
func scrape(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("scrape: content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("scrape: read: %v", err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("scrape: malformed sample %q", line)
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("scrape: value of %s: %v", name, err)
		}
		out[name] = f
	}
	return out
}

// TestServiceMetricsEndpointConcurrent scrapes the engine's /metrics
// endpoint while queries execute against it — the registry's lock-free
// instruments must neither block nor miscount under concurrency (the
// name keeps this test in the CI concurrency-stress lane's -race runs).
func TestServiceMetricsEndpointConcurrent(t *testing.T) {
	q, data := q3Data(t)
	e := NewEngine(EngineOptions{Workers: 4, SharedFeedback: true})
	defer e.Close()
	e.Register("q3", data)

	srv := httptest.NewServer(e.Registry().Handler())
	defer srv.Close()

	const goroutines, perG = 6, 5
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*2)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := e.NewSession()
			for i := 0; i < perG; i++ {
				req := Request{Opt: core.Options{Algorithm: core.AlgEAPrune}, Dataset: "q3"}
				if _, err := s.Execute(q, req); err != nil {
					errs <- err
					return
				}
			}
		}()
		// One scraper per executor goroutine, hammering the endpoint
		// mid-flight; values are transient, only well-formedness holds.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				resp, err := http.Get(srv.URL)
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	const total = goroutines * perG
	m := scrape(t, srv.URL)
	if got := m["eagg_requests_total"]; got != total {
		t.Errorf("eagg_requests_total = %v, want %d", got, total)
	}
	if hits, misses := m["eagg_plan_cache_hits_total"], m["eagg_plan_cache_misses_total"]; hits+misses != total {
		t.Errorf("cache hits %v + misses %v != %d requests", hits, misses, total)
	}
	// One dataset, one schema: each miss prepares the one program its hits run.
	if prepared, misses := m["eagg_programs_prepared_total"], m["eagg_plan_cache_misses_total"]; prepared != misses {
		t.Errorf("eagg_programs_prepared_total = %v, want %v (one per miss)", prepared, misses)
	}
	for _, h := range []string{"eagg_optimize_ms", "eagg_exec_ms"} {
		if got := m[h+"_count"]; got != total {
			t.Errorf("%s_count = %v, want %d", h, got, total)
		}
	}
	if got := m["eagg_result_rows_total"]; got <= 0 {
		t.Errorf("eagg_result_rows_total = %v, want > 0", got)
	}
	if got := m["eagg_feedback_epoch"]; got < 1 {
		t.Errorf("eagg_feedback_epoch = %v, want ≥ 1 after measured executions", got)
	}
	// The tiny test instance may not fan out to the pool at all; the
	// instrument must exist, its value is workload-dependent.
	if _, ok := m["eagg_pool_jobs_total"]; !ok {
		t.Error("eagg_pool_jobs_total not exported")
	}
	if got := m["eagg_errors_total"]; got != 0 {
		t.Errorf("eagg_errors_total = %v, want 0", got)
	}

	// Metrics() mirrors the scraped counters.
	em := e.Metrics()
	if em.Requests != total {
		t.Errorf("Metrics().Requests = %d, want %d", em.Requests, total)
	}
	if int64(m["eagg_plan_cache_evictions_total"]) != em.PlanCacheEvictions {
		t.Errorf("evictions: scrape %v vs Metrics %d", m["eagg_plan_cache_evictions_total"], em.PlanCacheEvictions)
	}
}

// TestServiceRequestTrace exercises Exec.Trace through the service path:
// the optimize span must carry the plan-cache outcome, operator spans
// must be recorded for the execution, and the root operator span says
// whether the request ran the cached program or prepared one.
func TestServiceRequestTrace(t *testing.T) {
	q, data := q3Data(t)
	e := NewEngine(EngineOptions{Workers: 2})
	defer e.Close()
	e.Register("q3", data)
	s := e.NewSession()

	outcome := func(tr *obs.Trace) string {
		for _, sp := range tr.Spans() {
			if sp.Cat != "optimize" {
				continue
			}
			for _, kv := range sp.Args {
				if kv.Key == "plan_cache" {
					return kv.Value
				}
			}
		}
		return ""
	}
	// The root operator span is the first "op" span (spans open in
	// pre-order).
	program := func(tr *obs.Trace) string {
		for _, sp := range tr.Spans() {
			if sp.Cat != "op" {
				continue
			}
			for _, kv := range sp.Args {
				if kv.Key == "program" {
					return kv.Value
				}
			}
			return ""
		}
		return ""
	}
	countOps := func(tr *obs.Trace) int {
		n := 0
		for _, sp := range tr.Spans() {
			if sp.Cat == "op" {
				n++
			}
		}
		return n
	}

	for i, want := range []struct{ cache, program string }{{"miss", "prepared"}, {"hit", "cached"}} {
		tr := obs.NewTrace()
		req := Request{Opt: core.Options{Algorithm: core.AlgEAPrune}, Dataset: "q3"}
		req.Exec.Trace = tr
		if _, err := s.Execute(q, req); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if got := outcome(tr); got != want.cache {
			t.Errorf("request %d: plan_cache = %q, want %q", i, got, want.cache)
		}
		if got := program(tr); got != want.program {
			t.Errorf("request %d: program = %q, want %q", i, got, want.program)
		}
		if countOps(tr) == 0 {
			t.Errorf("request %d: no operator spans recorded", i)
		}
	}

	tr := obs.NewTrace()
	req := Request{Opt: core.Options{Algorithm: core.AlgEAPrune}, Dataset: "q3", NoCache: true}
	req.Exec.Trace = tr
	if _, err := s.Execute(q, req); err != nil {
		t.Fatal(err)
	}
	if got := outcome(tr); got != "bypass" {
		t.Errorf("NoCache: plan_cache = %q, want %q", got, "bypass")
	}
	if got := program(tr); got != "prepared" {
		t.Errorf("NoCache: program = %q, want %q", got, "prepared")
	}
}

// TestEngineRegistryExposition sanity-checks the exposition itself: every
// instrument the engine registers renders, and the latency histograms
// carry cumulative buckets.
func TestEngineRegistryExposition(t *testing.T) {
	q, data := q3Data(t)
	e := NewEngine(EngineOptions{Workers: 2, SharedFeedback: true})
	defer e.Close()
	e.Register("q3", data)
	s := e.NewSession()
	if _, err := s.Execute(q, Request{Opt: core.Options{Algorithm: core.AlgEAPrune}, Dataset: "q3"}); err != nil {
		t.Fatal(err)
	}

	text := e.Registry().Prometheus()
	for _, want := range []string{
		"eagg_requests_total 1",
		"eagg_plan_cache_misses_total 1",
		"eagg_programs_prepared_total 1",
		// The execution's publish advanced the epoch, pruning the plan
		// optimized under epoch 0 — entries 0, one eviction.
		"eagg_plan_cache_entries 0",
		"eagg_plan_cache_evictions_total 1",
		"eagg_feedback_epoch_advances_total 1",
		"eagg_sessions 1",
		"# TYPE eagg_exec_ms histogram",
		`eagg_exec_ms_bucket{le="+Inf"} 1`,
		"eagg_exec_ms_count 1",
		"eagg_feedback_epoch 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n%s", want, text)
		}
	}
	if strings.Count(text, "# TYPE") < 15 {
		t.Errorf("expected ≥ 15 registered metrics, got:\n%s", text)
	}

	// A failed request counts in eagg_errors_total.
	if _, err := s.Execute(q, Request{Dataset: "no-such"}); err == nil {
		t.Fatal("expected unknown-dataset error")
	}
	if got := e.Registry().Prometheus(); !strings.Contains(got, "eagg_errors_total 1") {
		t.Errorf("eagg_errors_total not incremented:\n%s", got)
	}
}
