// DP level driver. Csg-cmp-pairs are bucketed by result-set cardinality
// (the DP "levels"); within a level every pair writes only entries of that
// level and reads only strictly smaller, already-sealed levels, so a
// barrier between levels preserves the dynamic-programming dependency
// order. A level with enough work fans out: its pairs are grouped by their
// result set (the subproblem key |S1 ∪ S2| identifies the DP-table entry)
// and each group is claimed by exactly one worker, which folds the group's
// operator trees through the retention policy in the exact order the
// inline path would and stores the finished entry in the group's own slot.
// At the barrier the driver moves the slots into the table. Because
// per-entry insertion order is preserved and all estimates are pure
// functions of the query, any worker count produces plans bit-identical to
// the inline reference path (Workers: 1).
//
// A level whose work estimate is under dpParallelCutoff does not pay for
// any of that: it runs inline, pair by pair, exactly as under Workers: 1.
package core

import (
	"sync"
	"sync/atomic"
	"time"

	"eagg/internal/bitset"
	"eagg/internal/hypergraph"
)

// dpParallelCutoff is the level work — candidate subplan combinations, see
// levelWork — from which fanning a level out over the pool beats running
// it inline. Read off BenchmarkDPParallelCrossover (DESIGN "The EA-Prune
// inner loop" has the sweep): below it the goroutine start-up and the
// subset grouping cost more than a second core saves.
const dpParallelCutoff = 4096

// subsetTask is the parallel work unit: every csg-cmp-pair of one level
// sharing the same result set, in enumeration order. Single ownership per
// subproblem key is what keeps the retention-policy insertion order — and
// hence the retained plans — identical to the inline path.
type subsetTask[S bitset.RelSet[S]] struct {
	s     S
	pairs []hypergraph.CsgCmpPair[S]
}

// groupBySubset splits a level's pairs into per-result-set tasks,
// preserving both first-appearance order of the keys and pair order within
// each key.
func groupBySubset[S bitset.RelSet[S]](chunk []hypergraph.CsgCmpPair[S]) []subsetTask[S] {
	idx := make(map[S]int, len(chunk))
	tasks := make([]subsetTask[S], 0, len(chunk))
	for _, pr := range chunk {
		s := pr.S1.Union(pr.S2)
		i, ok := idx[s]
		if !ok {
			i = len(tasks)
			idx[s] = i
			tasks = append(tasks, subsetTask[S]{s: s})
		}
		tasks[i].pairs = append(tasks[i].pairs, pr)
	}
	return tasks
}

// processSubset builds the complete DP-table entry for one subproblem key:
// the per-pair step of the inline path over every pair of the task, folded
// into a locally owned entry.
func (g *generator[S]) processSubset(w *worker, task subsetTask[S]) (*entry, int) {
	e := g.open(w, task.s)
	built := 0
	for _, pr := range task.pairs {
		built += g.processPair(w, e, pr, task.s == g.all)
	}
	return e, built
}

// levelWork estimates a level's work before it starts: Σ over its pairs of
// |table[S1]| · |table[S2]|, the subplan combinations buildInto will
// consider — known exactly, because the lower levels are sealed. It stops
// counting at limit.
func (g *generator[S]) levelWork(chunk []hypergraph.CsgCmpPair[S], limit int) int {
	work := 0
	for _, pr := range chunk {
		if e1, e2 := g.table[pr.S1], g.table[pr.S2]; e1 != nil && e2 != nil {
			if work += len(e1.plans) * len(e2.plans); work >= limit {
				break
			}
		}
	}
	return work
}

// runLevels processes the DP levels in order, recording per-level timing.
// A level runs inline when workers is 1 or its work is under
// parallelCutoff. Otherwise pool workers claim its subset tasks off a
// shared atomic cursor; each estimates through its own estimator clone
// (the clones share the immutable query analysis but own their
// cardinality caches, so no estimator lock exists on the hot path) and
// stores the entry it finished in done[i], the slot of the task i it
// claimed. Only the worker that claimed i writes slot i, and the driver
// reads the slots only after the barrier. Clones and goroutines first
// exist when a level first crosses the cutoff.
func (g *generator[S]) runLevels(pairs []hypergraph.CsgCmpPair[S], workers int) {
	forEachLevel(pairs, func(level int, chunk []hypergraph.CsgCmpPair[S]) {
		start := time.Now()
		var subsets int
		if workers == 1 || g.levelWork(chunk, g.parallelCutoff) < g.parallelCutoff {
			subsets = g.runLevelInline(chunk)
		} else {
			for len(g.ws) < workers {
				g.ws = append(g.ws, newWorker(g.est.Clone()))
			}
			tasks := groupBySubset(chunk)
			subsets = len(tasks)
			done := make([]*entry, len(tasks))
			var cursor, built atomic.Int64
			var wg sync.WaitGroup
			for _, w := range g.ws[:min(workers, len(tasks))] {
				wg.Add(1)
				go func(w *worker) {
					defer wg.Done()
					local := 0
					for i := int(cursor.Add(1)) - 1; i < len(tasks); i = int(cursor.Add(1)) - 1 {
						var n int
						done[i], n = g.processSubset(w, tasks[i])
						local += n
					}
					built.Add(int64(local))
				}(w)
			}
			wg.Wait()
			for i, e := range done {
				g.table[tasks[i].s] = e
			}
			g.stats.PlansBuilt += int(built.Load())
		}
		g.stats.Levels = append(g.stats.Levels, LevelStat{
			Level: level, Pairs: len(chunk), Subsets: subsets, Duration: time.Since(start),
		})
	})
}
