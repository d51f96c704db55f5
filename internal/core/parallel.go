// Parallel DP driver. Csg-cmp-pairs are bucketed by result-set cardinality
// (the DP "levels"); within a level every pair writes only entries of that
// level and reads only strictly smaller, already-sealed levels, so a
// barrier between levels preserves the dynamic-programming dependency
// order. Within a level the pairs are grouped by their result set (the
// subproblem key |S1 ∪ S2| identifies the DP-table entry) and each group is
// claimed by exactly one worker, which folds the group's operator trees
// through the retention policy in the exact order the sequential driver
// would and publishes the finished entry once into a sharded staging
// table. At the barrier the staged entries are sealed into the main table
// single-threaded. Because per-entry insertion order is preserved and all
// estimates are pure functions of the query, any worker count produces
// plans bit-identical to the sequential reference path (Workers: 1).
//
// A level whose work estimate is under dpParallelCutoff does not pay for
// any of that: it runs inline, pair by pair, exactly as the sequential
// driver runs it.
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
// inner loop" has the sweep): below it the goroutine start-up, the subset
// grouping and the staging round trip cost more than a second core saves.
const dpParallelCutoff = 4096

// tableShards is the number of staging shards (a power of two). Entries
// are spread by hash of the subproblem key, so with 64 shards even dozens
// of workers rarely collide on a shard lock.
const tableShards = 64

type tableShard[S bitset.RelSet[S]] struct {
	mu      sync.Mutex
	entries map[S]*entry
	// Pad the 8-byte mutex + 8-byte map header to a full 64-byte cache
	// line so adjacent shard locks don't false-share.
	_ [48]byte
}

// stagingTable buffers the entries of the level currently being processed.
// Workers write finished entries under the shard mutex; the sealed main
// table is never written during a level, so workers read it lock-free.
type stagingTable[S bitset.RelSet[S]] struct {
	shards     [tableShards]tableShard[S]
	contention atomic.Int64
}

func newStagingTable[S bitset.RelSet[S]]() *stagingTable[S] {
	st := &stagingTable[S]{}
	for i := range st.shards {
		st.shards[i].entries = make(map[S]*entry)
	}
	return st
}

// shardOf hashes the subproblem key to a shard index. The raw bit pattern
// is heavily clustered (all keys of a level share a popcount), so the
// representation's Hash64 (a splitmix64-style finalizer) spreads it.
func shardOf[S bitset.RelSet[S]](s S) int {
	return int(s.Hash64() & (tableShards - 1))
}

func (st *stagingTable[S]) put(s S, e *entry) {
	sh := &st.shards[shardOf(s)]
	if !sh.mu.TryLock() {
		st.contention.Add(1)
		sh.mu.Lock()
	}
	sh.entries[s] = e
	sh.mu.Unlock()
}

// sealInto moves every staged entry into the main table and resets the
// shards for the next level. Runs single-threaded at the level barrier.
func (st *stagingTable[S]) sealInto(table map[S]*entry) {
	for i := range st.shards {
		sh := &st.shards[i]
		for s, e := range sh.entries {
			table[s] = e
			delete(sh.entries, s)
		}
	}
}

// subsetTask is the parallel work unit: every csg-cmp-pair of one level
// sharing the same result set, in enumeration order. Single ownership per
// subproblem key is what keeps the retention-policy insertion order — and
// hence the retained plans — identical to the sequential driver.
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
// the per-pair step of the sequential driver over every pair of the task,
// folded into a locally owned entry and sealed.
func (g *generator[S]) processSubset(w *worker, task subsetTask[S]) (*entry, int) {
	e := g.open(w, task.s)
	built := 0
	for _, pr := range task.pairs {
		built += g.processPair(w, e, pr, task.s == g.all)
	}
	e.seal()
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

// runLevelsParallel processes the DP levels, the ones with enough work on
// a worker pool. Pool workers claim subset tasks off a shared atomic
// cursor; each estimates through its own estimator clone (the clones share
// the immutable query analysis but own their cardinality caches, so no
// estimator lock exists on the hot path). Clones, staging table and
// goroutines first exist when a level first crosses the cutoff.
func (g *generator[S]) runLevelsParallel(pairs []hypergraph.CsgCmpPair[S], workers int) {
	var staging *stagingTable[S]
	var ws []*worker
	forEachLevel(pairs, func(level int, chunk []hypergraph.CsgCmpPair[S]) {
		start := time.Now()
		var subsets int
		if g.levelWork(chunk, g.parallelCutoff) < g.parallelCutoff {
			subsets = g.runLevelInline(chunk)
		} else {
			if staging == nil {
				staging = newStagingTable[S]()
				ws = append(ws, g.w0)
				for len(ws) < workers {
					ws = append(ws, &worker{est: g.est.Clone()})
				}
			}
			tasks := groupBySubset(chunk)
			subsets = len(tasks)
			var cursor, built atomic.Int64
			var wg sync.WaitGroup
			for _, w := range ws[:min(workers, len(tasks))] {
				wg.Add(1)
				go func(w *worker) {
					defer wg.Done()
					local := 0
					for {
						i := int(cursor.Add(1)) - 1
						if i >= len(tasks) {
							break
						}
						e, n := g.processSubset(w, tasks[i])
						local += n
						if len(e.plans) > 0 {
							staging.put(tasks[i].s, e)
						}
					}
					built.Add(int64(local))
				}(w)
			}
			wg.Wait()
			staging.sealInto(g.table)
			g.stats.PlansBuilt += int(built.Load())
		}
		g.stats.Levels = append(g.stats.Levels, LevelStat{
			Level: level, Pairs: len(chunk), Subsets: subsets, Duration: time.Since(start),
		})
	})
	if staging != nil {
		g.stats.ShardContention = staging.contention.Load()
	}
}
