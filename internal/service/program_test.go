package service

import (
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"eagg/internal/algebra"
	"eagg/internal/core"
	"eagg/internal/engine"
	"eagg/internal/query"
	"eagg/internal/randquery"
)

// permuted returns t with its columns in reverse order: the same relation
// under another schema.
func permuted(t *algebra.Table) *algebra.Table {
	names := slices.Clone(t.Schema.Names())
	slices.Reverse(names)
	out := &algebra.Table{Schema: algebra.NewSchema(names)}
	for _, row := range t.Rows {
		r := slices.Clone(row)
		slices.Reverse(r)
		out.Rows = append(out.Rows, r)
	}
	return out
}

// TestServiceProgramBinding registers one query's data twice, the second
// time with the orders table's columns in reverse order. Both datasets
// share a fingerprint, so they share the cache entry and its program,
// prepared for the first. The second dataset's requests must still equal
// the nested-loop reference: they prepare programs of their own, count
// as cache hits like any other, and leave the cached program in place —
// the first dataset's next request still runs it.
func TestServiceProgramBinding(t *testing.T) {
	q, data := q3Data(t)
	swapped := maps.Clone(data)
	swapped[1] = permuted(data[1])
	e := NewEngine(EngineOptions{Workers: 2})
	defer e.Close()
	e.Register("ordered", data)
	e.Register("reversed", swapped)
	s := e.NewSession()

	rels := engine.Data{}
	for id, tab := range data {
		rels[id] = tab.Rel()
	}
	want, err := engine.CanonicalRef(q, rels)
	if err != nil {
		t.Fatal(err)
	}
	for i, step := range []struct {
		dataset  string
		hit      bool
		prepared int64 // programs prepared so far
	}{
		{"ordered", false, 1}, // the miss prepares the cached program
		{"reversed", true, 2}, // a hit whose tables it does not fit
		{"reversed", true, 3}, // …again: the cache was not rebound to them
		{"ordered", true, 3},  // the cached program, untouched
	} {
		resp, err := s.Execute(q, Request{Opt: core.Options{Algorithm: core.AlgEAPrune}, Dataset: step.dataset})
		if err != nil {
			t.Fatalf("request %d (%s): %v", i, step.dataset, err)
		}
		if !algebra.EqualBags(want, resp.Table.Rel(), engine.OutputAttrs(q)) {
			t.Fatalf("request %d (%s): result differs from CanonicalRef", i, step.dataset)
		}
		m := e.Metrics()
		if resp.CacheHit != step.hit || m.ProgramsPrepared != step.prepared {
			t.Fatalf("request %d (%s): hit %v, %d programs prepared; want %v, %d", i, step.dataset, resp.CacheHit, m.ProgramsPrepared, step.hit, step.prepared)
		}
	}
	if m := e.Metrics(); m.PlanCacheHits != 3 || m.PlanCacheMiss != 1 || m.PlanCacheSize != 1 {
		t.Fatalf("hits/misses/entries = %d/%d/%d, want 3/1/1", m.PlanCacheHits, m.PlanCacheMiss, m.PlanCacheSize)
	}

	// A dataset that lacks a relation fails the request with the engine's
	// error, from the cached program and from a fresh one alike.
	missing := maps.Clone(data)
	delete(missing, 2)
	e.Register("missing", missing)
	for _, noCache := range []bool{false, true} {
		_, err := s.Execute(q, Request{Opt: core.Options{Algorithm: core.AlgEAPrune}, Dataset: "missing", NoCache: noCache})
		if err == nil || !strings.Contains(err.Error(), "no data for relation 2") {
			t.Fatalf("NoCache=%v: err %v, want the missing relation's", noCache, err)
		}
	}
}

// hitShapes builds BenchmarkServiceThroughput/cache=hit's engine: 16
// random 4…8-relation shapes over 8-row tables, one dataset each, every
// plan cached by one request.
func hitShapes() (*Engine, []*query.Query, []string) {
	e := NewEngine(EngineOptions{Workers: 2})
	rng := rand.New(rand.NewSource(1))
	qs := make([]*query.Query, 16)
	names := make([]string, len(qs))
	for i := range qs {
		qs[i] = randquery.Generate(rng, randquery.Params{Relations: 4 + i%5})
		names[i] = fmt.Sprintf("s%d", i)
		e.Register(names[i], engine.RandomData(rng, qs[i], 8).Tables())
	}
	return e, qs, names
}

// TestServiceHitAllocs is the plan-cache hit's allocation gate: a hit
// runs the program cached beside the plan and compiles nothing, so what
// it allocates is the kernels' work on tiny tables plus a fixed few per
// request. Over 1,600 hits it measured 91 objects and 8,661 bytes per hit
// (129 and 16,647 before views shared their inputs' vectors and group
// indexes were seeded from their input's rows; 240 objects when every
// request compiled its plan). Both ceilings leave the same 8.5 % headroom.
func TestServiceHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items: allocation counts do not repeat")
	}
	e, qs, names := hitShapes()
	defer e.Close()
	s := e.NewSession()
	issue := func(i int) {
		if _, err := s.Execute(qs[i], Request{Opt: core.Options{Algorithm: core.AlgEAPrune}, Dataset: names[i]}); err != nil {
			t.Fatal(err)
		}
	}
	for i := range qs {
		issue(i)
	}
	before := e.Metrics().ProgramsPrepared
	i := 0
	objects, bytes := perRun(100*len(qs), func() {
		issue(i % len(qs))
		i++
	})
	m := e.Metrics()
	if m.PlanCacheMiss != int64(len(qs)) || m.ProgramsPrepared != before {
		t.Fatalf("%d misses, %d programs prepared while measuring: the gate must measure hits", m.PlanCacheMiss, m.ProgramsPrepared-before)
	}
	t.Logf("%.1f objects, %.0f bytes per hit", objects, bytes)
	if objects > 99 {
		t.Fatalf("a plan-cache hit allocates %.1f objects, budget 99", objects)
	}
	if bytes > 9400 {
		t.Fatalf("a plan-cache hit allocates %.0f bytes, budget 9,400", bytes)
	}
}

// perRun is testing.AllocsPerRun that also counts bytes: the mean objects
// and bytes fn allocates per call over n calls at GOMAXPROCS 1, after one
// warm-up call.
func perRun(n int, fn func()) (objects, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}
