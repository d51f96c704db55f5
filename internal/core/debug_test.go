package core

import (
	"math/rand"
	"testing"

	"eagg/internal/bitset"
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
			all := tableOf(t, q, AlgEAAll).table
			g := tableOf(t, q, AlgEAPrune)
			pruned := g.table
			full := bitset.Range64(0, n)
			for s, e := range all {
				if s == full {
					continue
				}
				for _, p := range e.plans {
					covered := false
					for _, kept := range pruned[s].plans {
						covered = covered || planDominates(g, kept, p)
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

// tableOf runs the generator without the H1 bound and returns it with its
// DP table, so dominance can be evaluated post hoc: the invariant is one of
// Def. 4, and the bound drops plans that it does not cover.
func tableOf(t *testing.T, q *query.Query, alg Algorithm) *generator[bitset.Set64] {
	t.Helper()
	g := pooledGenerator(q, Options{Algorithm: alg})
	g.bounded = false
	if _, err := g.run(); err != nil {
		t.Fatal(err)
	}
	return g
}

// pooledGenerator is newGenerator on Set64 with parallelCutoff 0: with
// Workers > 1 every level goes through the pool.
func pooledGenerator(q *query.Query, opts Options) *generator[bitset.Set64] {
	g := newGenerator[bitset.Set64](q, opts)
	g.parallelCutoff = 0
	return g
}
