package hypergraph

import (
	"testing"

	"eagg/internal/bitset"
)

// EmitsOnce exposes emitsOnce to the external test package.
func EmitsOnce[S bitset.RelSet[S]](t *testing.T, name string, g *Graph[S]) int {
	t.Helper()
	return emitsOnce(t, name, g)
}

// BuildableSetsBudget exposes the budgeted closure, whose pairs come in
// emission order, before CsgCmpPairs sorts them by level.
func (g *Graph[S]) BuildableSetsBudget(budget int) ([]S, []CsgCmpPair[S], bool) {
	return g.buildableSets(budget)
}
