package core

import (
	"eagg/internal/bitset"
	"eagg/internal/query"
)

// RaceEnabled exposes raceEnabled to the external test package.
const RaceEnabled = raceEnabled

// OptimizeWide is Optimize on the wide set representation (bitset.VSet)
// whatever the query's size, so the differential tests can hold it to the
// Set64 fast path on the queries both handle.
func OptimizeWide(q *query.Query, opts Options) (*Result, error) {
	if err := checkOptions(q, &opts); err != nil {
		return nil, err
	}
	return optimizeAs[bitset.VSet](q, opts)
}

// OptimizeBounded is Optimize on a query of at most 63 relations with the
// H1 pass that bounds the exact DP switched on or off whatever the
// generator, and with every level of a Workers > 1 run through the pool.
// Off, EA-Prune is the paper's unbounded search, the reference the bound
// must not change; on, EA-All keeps only the plans that rank at most as
// high as H1's, a complete search that reaches larger queries.
func OptimizeBounded(q *query.Query, opts Options, bounded bool) (*Result, error) {
	if err := checkOptions(q, &opts); err != nil {
		return nil, err
	}
	g := newGenerator[bitset.Set64](q, opts)
	g.bounded, g.parallelCutoff = bounded, 0
	defer g.release()
	return g.run()
}

// OptimizeIncumbent is Optimize on a query of at most 63 relations with the
// incumbent bound (see excluded) switched on or off, and with every level
// of a Workers > 1 run through the pool. Off, consider and processPair
// estimate every tree within the H1 bound, the reference the incumbent
// bound must not change.
func OptimizeIncumbent(q *query.Query, opts Options, on bool) (*Result, error) {
	if err := checkOptions(q, &opts); err != nil {
		return nil, err
	}
	g := newGenerator[bitset.Set64](q, opts)
	g.incumbent, g.parallelCutoff = on, 0
	defer g.release()
	return g.run()
}
