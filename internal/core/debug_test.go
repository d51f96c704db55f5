package core

import (
	"math/rand"
	"testing"

	"eagg/internal/bitset"
	"eagg/internal/conflict"
	"eagg/internal/cost"
	"eagg/internal/query"
	"eagg/internal/randquery"
)

// TestPruneCoverageInvariant checks the pruning invariant behind Sec. 4.6
// set by set, which is much stronger than comparing final costs: every
// plan the exhaustive EA-All table holds must be dominated (or matched) by
// a plan EA-Prune retained for the same relation set. A violation means a
// future-relevant plan property escaped the dominance test (that is
// exactly how the estimator inconsistencies fixed during development were
// found).
func TestPruneCoverageInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(20151))
	for n := 3; n <= 6; n++ {
		for trial := 0; trial < 8; trial++ {
			q := randquery.Generate(rng, randquery.Params{Relations: n})
			all := tableOf(t, q, AlgEAAll)
			pruned := tableOf(t, q, AlgEAPrune)
			full := bitset.Range64(0, n)
			for s, e := range all {
				if s == full {
					continue
				}
				for _, p := range e.plans {
					covered := false
					for _, kept := range pruned[s].plans {
						covered = covered || frontierDominates(kept, p, false)
					}
					if !covered {
						t.Fatalf("n=%d trial=%d set %v: plan not covered by EA-Prune retentions\ncost=%.6g card=%.6g keys=%v\n%v",
							n, trial, s, p.Cost, p.Card, p.Keys, p.String())
					}
				}
			}
		}
	}
}

// tableOf runs the generator and returns its DP table, so dominance can be
// evaluated post hoc.
func tableOf(t *testing.T, q *query.Query, alg Algorithm) map[bitset.Set64]*entry {
	t.Helper()
	g := newGenerator(q, Options{Algorithm: alg})
	if _, err := g.run(); err != nil {
		t.Fatal(err)
	}
	return g.table
}

// newGenerator builds a Set64 generator the way optimizeAs does, except
// that parallelCutoff stays 0: with Workers > 1 every level goes through
// the pool.
func newGenerator(q *query.Query, opts Options) *generator[bitset.Set64] {
	est := cost.NewEstimator(q)
	if opts.Stats != nil {
		est.Source = opts.Stats
	}
	g := &generator[bitset.Set64]{
		q:    q,
		det:  conflict.Detect[bitset.Set64](q),
		est:  est,
		opts: opts,
		all:  bitset.Range64(0, len(q.Relations)),
	}
	g.allV = g.all.ToV()
	g.prepare()
	return g
}
