package core

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"eagg/internal/bitset"
	"eagg/internal/plan"
	"eagg/internal/query"
	"eagg/internal/randquery"
)

// TestResultSurvivesArenaReuse: a run's arenas go back to the pool when
// Optimize returns, cleared, and the next runs build in them, so a result
// must share no memory with them. A few results are kept while 48
// optimizations of every generator, physical mode and worker count — half
// of them from four goroutines at once — take the pooled arenas; each must
// still equal, profiles included, the plan of a run of the same query
// whose arenas never go back. (A copy taken when Optimize returns would
// not do as the reference: the arenas are cleared before it returns.)
func TestResultSurvivesArenaReuse(t *testing.T) {
	// rand6.0 and star8 fill about as many chunks as an arena keeps, so
	// release clears nearly all of their memory at once; rand14.2's levels
	// cross dpParallelCutoff, so its plan comes out of a pool worker's
	// arena as well as the driver's.
	type kept struct{ res, ref *plan.Plan }
	var keep []kept
	for _, c := range []struct {
		q    *query.Query
		opts Options
	}{
		{randquery.Generate(rand.New(rand.NewSource(1)), randquery.Params{Relations: 6}), Options{Algorithm: AlgEAPrune, Workers: 1}},
		{randquery.Star(8), Options{Algorithm: AlgEAPrune, Workers: 2}},
		{rand14dot2(), Options{Algorithm: AlgEAPrune, Workers: 2}},
	} {
		// The reference first: its arenas never go back to the pool.
		ref, err := pooledGenerator(c.q, c.opts).run()
		if err != nil {
			t.Fatal(err)
		}
		res, err := Optimize(c.q, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		keep = append(keep, kept{res.Plan, ref.Plan})
	}

	type run struct {
		n    int
		opts Options
	}
	algs := []Options{
		{Algorithm: AlgDPhyp}, {Algorithm: AlgH1}, {Algorithm: AlgH2, F: 1.03},
		{Algorithm: AlgBeam}, {Algorithm: AlgEAPrune}, {Algorithm: AlgEAAll},
	}
	var runs []run
	for i := 0; i < 48; i++ {
		r := run{n: 3 + i%14, opts: algs[i%len(algs)]}
		r.opts.Workers = 1 + i%2
		// The sort-based layer keys plan classes by order, and a large
		// random query can hold hundreds of thousands of them.
		if r.n <= 10 && i%3 == 1 {
			r.opts.Phys = PhysModeSort
		}
		// Dense random graphs have exponentially many pairs: past the
		// budget the greedy fallback builds the plan, in the same arenas.
		r.opts.PairBudget = 1000
		switch r.opts.Algorithm {
		case AlgEAAll:
			r.n = min(r.n, 5)
		case AlgEAPrune:
			r.n = min(r.n, 12)
		}
		runs = append(runs, r)
	}
	optimize := func(r run, seed int64) {
		q := randquery.Generate(rand.New(rand.NewSource(seed)), randquery.Params{Relations: r.n})
		if _, err := Optimize(q, r.opts); err != nil {
			t.Errorf("n=%d %v/%v workers=%d: %v", r.n, r.opts.Algorithm, r.opts.Phys, r.opts.Workers, err)
		}
	}
	// The first half runs on this goroutine, the second from four at once.
	half := len(runs) / 2
	for i, r := range runs[:half] {
		optimize(r, int64(i))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := half + g; i < len(runs); i += 4 {
				optimize(runs[i], int64(i))
			}
		}(g)
	}
	wg.Wait()

	for i, k := range keep {
		if !plan.Equal(k.res, k.ref) || k.res.Signature() != k.ref.Signature() || !sameProfiles(k.res, k.ref) {
			t.Errorf("kept plan %d differs from its query's plan\nkept:\n%v\nreference:\n%v", i, k.res, k.ref)
		}
	}
}

// sameProfiles reports whether two trees of equal shape carry equal
// path-cardinality vectors, which plan.Equal leaves out.
func sameProfiles(a, b *plan.Plan) bool {
	if a == nil || b == nil {
		return a == b
	}
	return slices.Equal(a.Profile, b.Profile) && sameProfiles(a.Left, b.Left) && sameProfiles(a.Right, b.Right)
}

// TestReleasedWorkerKeepsNoRun: a worker goes back to the pool with its
// buffers and its arena's spare chunks, and may sit there through several
// collections, so it must hold no pointer into the run it served — one
// would keep that run's chunks, and with them every plan, alive. The check
// walks every field of every worker of a run, slices up to their capacity,
// so a field added to worker (or to plan.Plan or cost.JoinPreds) that
// release does not clear fails here. The runs cover the pool's workers
// (EA-Prune's free list, the pushed groupings), the sort layer's orders
// and merge keys, and keys beyond 64 attributes, whose sets hold a string.
func TestReleasedWorkerKeepsNoRun(t *testing.T) {
	for _, c := range []struct {
		name string
		g    interface {
			run() (*Result, error)
			workers() []*worker
			release()
		}
	}{
		{"rand14.2/EA-Prune", pooledGenerator(rand14dot2(), Options{Algorithm: AlgEAPrune, Workers: 2})},
		{"rand8.0/sort/EA-Prune", pooledGenerator(scanOrdered(randquery.Generate(rand.New(rand.NewSource(1)), randquery.Params{Relations: 8})), Options{Algorithm: AlgEAPrune, Workers: 2, Phys: PhysModeSort})},
		{"chain70/H1", newGenerator[bitset.VSet](randquery.Chain(70), Options{Algorithm: AlgH1, Workers: 1})},
	} {
		if _, err := c.g.run(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		ws := c.g.workers()
		// Before release the driver's worker holds the run, or the check
		// below would prove nothing.
		if stray := strayPointer(reflect.ValueOf(ws[0]).Elem(), "worker"); stray == "" {
			t.Fatalf("%s: the driver's worker holds no pointer before release", c.name)
		}
		c.g.release()
		for i, w := range ws {
			if stray := strayPointer(reflect.ValueOf(w).Elem(), "worker"); stray != "" {
				t.Errorf("%s: released worker %d holds %s", c.name, i, stray)
			}
			if len(w.arena.plans.spare) == 0 {
				t.Errorf("%s: released worker %d keeps no spare plan chunk", c.name, i)
			}
		}
	}
}

// scanOrdered declares every single-attribute key of q a scan order, as
// the TPC-H queries do, so that the sort layer has orders to carry.
func scanOrdered(q *query.Query) *query.Query {
	for r, rel := range q.Relations {
		for _, k := range rel.Keys {
			if k.Len() == 1 {
				q.SetScanOrder(r, k.Min())
			}
		}
	}
	return q
}

// workers returns the run's workers, the driver's first.
func (g *generator[S]) workers() []*worker { return slices.Clone(g.ws) }

// ownBuffers names the slices a released worker keeps: their arrays belong
// to the worker, which reuses them in its next run. Any other slice must be
// nil. Elements are checked either way.
var ownBuffers = map[string]bool{
	"worker.edges": true, "worker.touch": true, "worker.cl": true, "worker.cls": true,
	"worker.jp.Preds": true, "worker.jp.cl.words": true,
	"worker.cand.Keys": true, "worker.cand.Profile": true,
	"worker.fin.Keys": true, "worker.fin.Profile": true,
	"worker.gl.Keys": true, "worker.gl.Profile": true,
	"worker.gr": true, "worker.gr.Keys": true, "worker.gr.Profile": true,
	"worker.grNode": true, "worker.free": true,
}

// strayPointer returns the path of the first pointer v holds, "" if there
// is none: a non-nil pointer, map, function or interface, a non-empty
// string, or a slice that is not one of ownBuffers (or of an arena list's
// chunks); slices are walked up to their capacity.
func strayPointer(v reflect.Value, path string) string {
	switch v.Kind() {
	case reflect.Pointer, reflect.Map, reflect.Func, reflect.Interface, reflect.Chan, reflect.UnsafePointer:
		if !v.IsNil() {
			return path
		}
	case reflect.String:
		if v.Len() > 0 {
			return path
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if s := strayPointer(v.Field(i), path+"."+v.Type().Field(i).Name); s != "" {
				return s
			}
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if s := strayPointer(v.Index(i), path); s != "" {
				return s
			}
		}
	case reflect.Slice:
		if v.IsNil() {
			return ""
		}
		// An arena list keeps its spare chunks, and the array of its full
		// list, emptied.
		arenaList := strings.HasPrefix(path, "worker.arena.")
		if !ownBuffers[path] && !(arenaList && (strings.HasSuffix(path, ".spare") || strings.HasSuffix(path, ".full"))) {
			return path
		}
		all := v.Slice3(0, v.Cap(), v.Cap())
		for i := 0; i < all.Len(); i++ {
			if s := strayPointer(all.Index(i), path); s != "" {
				return s
			}
		}
	}
	return ""
}
