package service

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"eagg/internal/algebra"
	"eagg/internal/core"
	"eagg/internal/cost"
	"eagg/internal/engine"
	"eagg/internal/query"
	"eagg/internal/randquery"
	"eagg/internal/tpch"
)

// rowOracle names the sequential row runtime: the library reference the
// engine's responses (batch runtime, shared pool) are compared against.
var rowOracle = engine.ExecOptions{Runtime: engine.RuntimeRow}

// identicalTables asserts bit-identical results: same schema, same rows
// in the same order, floats compared by bit pattern — the same contract
// internal/engine's parallel suite enforces for the morsel runtime.
func identicalTables(t *testing.T, label string, want, got *algebra.Table) {
	t.Helper()
	if fmt.Sprint(want.Schema.Names()) != fmt.Sprint(got.Schema.Names()) {
		t.Fatalf("%s: schema differs: %v vs %v", label, want.Schema.Names(), got.Schema.Names())
	}
	if len(want.Rows) != len(got.Rows) {
		t.Fatalf("%s: cardinality differs: want %d got %d", label, len(want.Rows), len(got.Rows))
	}
	for i := range want.Rows {
		for j := range want.Rows[i] {
			a, b := want.Rows[i][j], got.Rows[i][j]
			if a.Kind != b.Kind || a.I != b.I || a.S != b.S ||
				math.Float64bits(a.F) != math.Float64bits(b.F) {
				t.Fatalf("%s: row %d slot %d differs: %v vs %v", label, i, j, a, b)
			}
		}
	}
}

// q3Data builds the Q3 query with a small deterministic instance.
func q3Data(t *testing.T) (*query.Query, engine.TableData) {
	t.Helper()
	q := tpch.Queries()["Q3"]
	rng := rand.New(rand.NewSource(42))
	return q, tpch.GenerateTables(rng, q, tpch.ExecutionScaleAt("Q3", 0.2))
}

// TestServiceWarmCacheSkipsDP is the tentpole's headline property: the
// second request for a query shape comes from the plan cache — zero
// csg-cmp-pairs enumerated, zero plans built — and still returns a
// bit-identical result.
func TestServiceWarmCacheSkipsDP(t *testing.T) {
	q, data := q3Data(t)
	e := NewEngine(EngineOptions{Workers: 4})
	defer e.Close()
	e.Register("q3", data)
	s := e.NewSession()

	req := Request{Opt: core.Options{Algorithm: core.AlgEAPrune}, Dataset: "q3"}
	cold, err := s.Execute(q, req)
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheHit {
		t.Fatal("first request reported a cache hit")
	}
	if cold.OptStats.CsgCmpPairs == 0 || cold.OptStats.PlansBuilt == 0 {
		t.Fatalf("cold request did no search: %+v", cold.OptStats)
	}

	warm, err := s.Execute(q, req)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit {
		t.Fatal("second request missed the cache")
	}
	if warm.OptStats.CsgCmpPairs != 0 || warm.OptStats.PlansBuilt != 0 || warm.OptStats.TablePlans != 0 {
		t.Fatalf("cache hit still reported search effort: %+v", warm.OptStats)
	}
	if warm.Plan != cold.Plan {
		t.Fatal("cache hit returned a different plan object")
	}
	identicalTables(t, "warm vs cold", cold.Table, warm.Table)

	m := e.Metrics()
	if m.PlanCacheHits != 1 || m.PlanCacheMiss != 1 || m.Requests != 2 {
		t.Fatalf("metrics %+v, want 1 hit / 1 miss / 2 requests", m)
	}
}

// TestServiceConcurrentDeterminism is the concurrent-determinism suite:
// the same query submitted from 8 goroutines through one shared Engine —
// cache hit or miss, shared feedback on or off — returns tables
// bit-identical to the sequential one-shot library call under the same
// statistics snapshot. Run with -race; the CI stress lane repeats it
// with -count=3 -cpu 1,2,4.
func TestServiceConcurrentDeterminism(t *testing.T) {
	q, data := q3Data(t)
	for _, tc := range []struct {
		name     string
		feedback bool
		noCache  bool
	}{
		{"cache", false, false},
		{"nocache", false, true},
		{"feedback-cache", true, false},
		{"feedback-nocache", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine(EngineOptions{Workers: 4, MaxConcurrent: 8, SharedFeedback: tc.feedback})
			defer e.Close()
			e.Register("q3", data)
			req := Request{Opt: core.Options{Algorithm: core.AlgEAPrune}, Dataset: "q3", NoCache: tc.noCache}

			if tc.feedback {
				// Drive the overlay to its fixed point first: once a
				// request's published profile changes nothing, the
				// epoch — and with it the chosen plan — is stable, and
				// republishing stays idempotent, so the concurrent
				// phase below runs against frozen statistics.
				s := e.NewSession()
				for i := 0; i < 8; i++ {
					before := e.Epoch()
					if _, err := s.Execute(q, req); err != nil {
						t.Fatal(err)
					}
					if e.Epoch() == before && i > 0 {
						break
					}
				}
			}

			// The sequential library reference under the engine's
			// exact statistics snapshot.
			opt := core.Options{Algorithm: core.AlgEAPrune}
			if tc.feedback {
				snap, _ := e.stats.Snapshot()
				opt.Stats = snap
			}
			res, err := core.Optimize(q, opt)
			if err != nil {
				t.Fatal(err)
			}
			want, err := engine.ExecTablesOpts(q, res.Plan, data, rowOracle)
			if err != nil {
				t.Fatal(err)
			}

			const goroutines = 8
			var wg sync.WaitGroup
			wg.Add(goroutines)
			results := make([]*Response, goroutines)
			errs := make([]error, goroutines)
			for g := 0; g < goroutines; g++ {
				go func(g int) {
					defer wg.Done()
					s := e.NewSession()
					results[g], errs[g] = s.Execute(q, req)
				}(g)
			}
			wg.Wait()
			for g := 0; g < goroutines; g++ {
				if errs[g] != nil {
					t.Fatalf("goroutine %d: %v", g, errs[g])
				}
				if sig := results[g].Plan.Signature(); sig != res.Plan.Signature() {
					t.Fatalf("goroutine %d chose plan %s, library chose %s", g, sig, res.Plan.Signature())
				}
				identicalTables(t, fmt.Sprintf("goroutine %d", g), want, results[g].Table)
			}
		})
	}
}

// TestServiceConcurrentMixedShapes hammers the engine with several
// different query shapes at once (the realistic traffic pattern): each
// shape's result must match its own sequential reference, whatever
// interleaving the shared pool and cache produce.
func TestServiceConcurrentMixedShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	type workload struct {
		q    *query.Query
		data engine.TableData
		want *algebra.Table
	}
	var shapes []workload
	for i := 0; i < 4; i++ {
		q := randquery.Generate(rng, randquery.Params{Relations: 4 + i})
		data := engine.RandomData(rng, q, 30).Tables()
		res, err := core.Optimize(q, core.Options{Algorithm: core.AlgEAPrune})
		if err != nil {
			t.Fatal(err)
		}
		want, err := engine.ExecTablesOpts(q, res.Plan, data, rowOracle)
		if err != nil {
			t.Fatal(err)
		}
		shapes = append(shapes, workload{q, data, want})
	}

	e := NewEngine(EngineOptions{Workers: 4, MaxConcurrent: 4})
	defer e.Close()
	var wg sync.WaitGroup
	const clients = 12
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			s := e.NewSession()
			for round := 0; round < 6; round++ {
				w := shapes[(c+round)%len(shapes)]
				resp, err := s.Execute(w.q, Request{
					Opt:  core.Options{Algorithm: core.AlgEAPrune},
					Exec: engine.ExecOptions{MorselSize: 2}, // force fan-out on tiny inputs
					Data: w.data,
				})
				if err != nil {
					t.Errorf("client %d round %d: %v", c, round, err)
					return
				}
				identicalTables(t, fmt.Sprintf("client %d round %d", c, round), w.want, resp.Table)
			}
		}(c)
	}
	wg.Wait()
	if m := e.Metrics(); m.PlanCacheMiss > int64(len(shapes)) {
		t.Errorf("expected at most %d cold optimizations, got %d misses", len(shapes), m.PlanCacheMiss)
	}
}

// TestServiceEpochInvalidation pins the feedback/cache interaction: the
// first publish of real measurements advances the epoch and re-keys the
// cache, the workload re-optimizes (possibly to a better plan), and once
// measurements stop changing the epoch freezes and the cache serves
// every further request.
func TestServiceEpochInvalidation(t *testing.T) {
	q, data := q3Data(t)
	e := NewEngine(EngineOptions{Workers: 2, SharedFeedback: true})
	defer e.Close()
	s := e.NewSession()
	req := Request{Opt: core.Options{Algorithm: core.AlgEAPrune}, Data: data}

	first, err := s.Execute(q, req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Epoch != 0 || first.CacheHit {
		t.Fatalf("first request: epoch=%d hit=%v, want 0/false", first.Epoch, first.CacheHit)
	}
	if e.Epoch() == 0 {
		t.Fatal("execution published measurements but the epoch did not advance")
	}

	// Iterate to the fixed point, then verify steady state: stable
	// epoch, cache hits, and old-epoch entries pruned.
	var last *Response
	for i := 0; i < 8; i++ {
		before := e.Epoch()
		last, err = s.Execute(q, req)
		if err != nil {
			t.Fatal(err)
		}
		if e.Epoch() == before {
			break
		}
	}
	stable := e.Epoch()
	steady, err := s.Execute(q, req)
	if err != nil {
		t.Fatal(err)
	}
	if !steady.CacheHit || steady.Epoch != stable {
		t.Fatalf("steady state: hit=%v epoch=%d, want true/%d", steady.CacheHit, steady.Epoch, stable)
	}
	if e.Epoch() != stable {
		t.Fatal("steady-state re-publish advanced the epoch (publish not idempotent)")
	}
	identicalTables(t, "steady vs fixed-point", last.Table, steady.Table)
	if size := e.cache.size(); size != 1 {
		t.Fatalf("cache holds %d entries after pruning, want 1 (the current-epoch plan)", size)
	}
}

// TestZeroValueOptionsRunBatch pins the service default: a request that
// names no runtime executes on the batch kernels, which — unlike the row
// runtime's Go maps — report their table builds.
func TestZeroValueOptionsRunBatch(t *testing.T) {
	q, data := q3Data(t)
	e := NewEngine(EngineOptions{Workers: 2})
	defer e.Close()
	resp, err := e.NewSession().Execute(q, Request{Data: data})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stats.Hash.Builds == 0 {
		t.Fatalf("a default request built no hash table on a join plan — it did not run the batch runtime: %+v", resp.Stats.Hash)
	}
}

// TestServiceRequestValidation pins the request-hygiene errors: the
// engine owns statistics and the scheduler, data must resolve, and a
// closed engine refuses work.
func TestServiceRequestValidation(t *testing.T) {
	q, data := q3Data(t)
	e := NewEngine(EngineOptions{Workers: 2})
	s := e.NewSession()

	if _, err := s.Execute(q, Request{Data: data, Opt: core.Options{Stats: cost.NewFeedbackOverlay()}}); err == nil {
		t.Error("Opt.Stats accepted")
	}
	if _, err := s.Execute(q, Request{Data: data, Exec: engine.ExecOptions{Pool: algebra.NewPool(0)}}); err == nil {
		t.Error("Exec.Pool accepted")
	}
	if _, err := s.Execute(q, Request{Data: data, Exec: engine.ExecOptions{Runtime: 7}}); err == nil || !strings.Contains(err.Error(), "unknown runtime Runtime(7)") {
		t.Errorf("Exec.Runtime 7: error %v, want an unknown-runtime error", err)
	}
	if _, err := s.Execute(q, Request{}); err == nil {
		t.Error("request without data accepted")
	}
	if _, err := s.Execute(q, Request{Dataset: "nope"}); err == nil {
		t.Error("unknown dataset accepted")
	}
	e.Close()
	if _, err := s.Execute(q, Request{Data: data}); err == nil {
		t.Error("closed engine accepted a request")
	}
}
