package core

// Greedy fallback for queries whose csg-cmp-pair enumeration exceeds its
// budget (e.g. a 100-relation star: every subset containing the hub is a
// connected subgraph, so the exact pair count is exponential). The
// fallback is a beamed left-deep construction: per DP level it extends
// each frontier set by one relation through the same applicability walk,
// operator-tree expansion and retention policy the exact DP uses, then
// keeps the greedyFrontier cheapest result sets. It is sequential and
// fully deterministic — ties resolve by first-appearance order, which is
// itself determined by the frontier order — so the workers-invariance
// contract of the parallel driver holds trivially.

import (
	"sort"
	"time"

	"eagg/internal/bitset"
	"eagg/internal/hypergraph"
)

// greedyFrontier is the number of result sets the fallback carries per
// level. Width 1 is pure greedy; a modest beam recovers most of the
// quality lost to the missing exact enumeration at linear cost.
const greedyFrontier = 16

// bestPlanCost returns the ranking cost of a DP-table entry: the
// cheapest member, by physical cost when the sort layer participates.
func (g *generator[S]) bestPlanCost(e *entry) float64 {
	best := e.plans[0]
	for _, p := range e.plans[1:] {
		if g.physOn() {
			if p.PhysCost < best.PhysCost {
				best = p
			}
		} else if p.Cost < best.Cost {
			best = p
		}
	}
	if g.physOn() {
		return best.PhysCost
	}
	return best.Cost
}

func (g *generator[S]) runGreedy() {
	n := len(g.q.Relations)
	frontier := make([]S, 0, n)
	for r := 0; r < n; r++ {
		frontier = append(frontier, bitset.SingleIn[S](r))
	}
	for level := 2; level <= n && len(frontier) > 0; level++ {
		start := time.Now()
		levelPairs := 0
		var next []S
		seen := make(map[S]bool)
		for _, s := range frontier {
			for r := 0; r < n; r++ {
				if s.Contains(r) {
					continue
				}
				single := bitset.SingleIn[S](r)
				if g.det.Graph.ConnectsSets(s, single) < 0 {
					continue
				}
				// Orient the pair the way the exact enumerator emits it
				// (min(S1) < min(S2)) so applicability decisions match.
				pr := hypergraph.CsgCmpPair[S]{S1: s, S2: single}
				if r < s.Min() {
					pr = hypergraph.CsgCmpPair[S]{S1: single, S2: s}
				}
				t := s.Add(r)
				levelPairs++
				e := g.table[t]
				if e == nil {
					e = g.open(g.w0, t)
				}
				built := g.processPair(g.w0, e, pr, t == g.all)
				g.stats.PlansBuilt += built
				if built > 0 {
					g.table[t] = e
					if !seen[t] {
						seen[t] = true
						next = append(next, t)
					}
				}
			}
		}
		for _, s := range next {
			g.table[s].seal(g.w0)
		}
		// Beam: keep the cheapest greedyFrontier result sets. The stable
		// sort preserves first-appearance order on cost ties.
		if level < n && len(next) > greedyFrontier {
			sort.SliceStable(next, func(i, j int) bool {
				return g.bestPlanCost(g.table[next[i]]) < g.bestPlanCost(g.table[next[j]])
			})
			for _, s := range next[greedyFrontier:] {
				delete(g.table, s)
			}
			next = next[:greedyFrontier]
		}
		g.stats.Levels = append(g.stats.Levels, LevelStat{
			Level: level, Pairs: levelPairs, Subsets: len(next), Duration: time.Since(start),
		})
		frontier = next
	}
}
