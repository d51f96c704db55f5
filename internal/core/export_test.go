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
