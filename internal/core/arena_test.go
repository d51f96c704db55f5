package core

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

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
