package service

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"eagg/internal/core"
	"eagg/internal/plan"
	"eagg/internal/tpch"
)

func mkPlan() *plan.Plan { return &plan.Plan{Kind: plan.NodeScan, Rel: 0} }

// TestPlanCacheKeyCollision pins the satellite requirement: two requests
// differing only in physical mode or only in stats epoch never share a
// cache entry — the phys mode separates through the fingerprint, the
// epoch through the key's second half.
func TestPlanCacheKeyCollision(t *testing.T) {
	q := tpch.Queries()["Q3"]
	hash := core.Fingerprint(q, core.Options{Algorithm: core.AlgEAPrune, Phys: core.PhysModeHash})
	sorted := core.Fingerprint(q, core.Options{Algorithm: core.AlgEAPrune, Phys: core.PhysModeSort})
	if hash == sorted {
		t.Fatal("phys modes share a fingerprint — a hash-layer plan could serve a sort request")
	}

	c := newPlanCache(16)
	computes := 0
	get := func(sig string, epoch uint64) {
		t.Helper()
		_, _, err := c.getOrCompute([]byte(sig), epoch, func() (planned, error) {
			computes++
			return planned{plan: mkPlan()}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Same fingerprint, different epochs: distinct entries.
	get(hash, 0)
	get(hash, 1)
	// Different phys fingerprints, same epoch: distinct entries.
	get(sorted, 0)
	if computes != 3 || c.size() != 3 {
		t.Fatalf("computes=%d size=%d, want 3/3 (no sharing across phys mode or epoch)", computes, c.size())
	}
	// Exact repeats hit.
	get(hash, 0)
	get(hash, 1)
	get(sorted, 0)
	if computes != 3 {
		t.Fatalf("repeat lookups recomputed: %d computes", computes)
	}
}

// TestPlanCacheSingleFlight pins that a cold popular key is optimized
// exactly once: concurrent requesters block on the in-flight compute and
// count as hits.
func TestPlanCacheSingleFlight(t *testing.T) {
	c := newPlanCache(16)
	var computes atomic.Int32
	gate := make(chan struct{})
	key := []byte("hot")

	const waiters = 16
	var wg sync.WaitGroup
	wg.Add(waiters)
	plans := make([]*plan.Plan, waiters)
	for i := 0; i < waiters; i++ {
		go func(i int) {
			defer wg.Done()
			v, _, err := c.getOrCompute(key, 0, func() (planned, error) {
				computes.Add(1)
				<-gate // hold every waiter on the in-flight entry
				return planned{plan: mkPlan()}, nil
			})
			if err != nil {
				t.Error(err)
			}
			plans[i] = v.plan
		}(i)
	}
	close(gate)
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Fatalf("computed %d times, want 1", got)
	}
	for i := 1; i < waiters; i++ {
		if plans[i] != plans[0] {
			t.Fatal("waiters got different plan objects")
		}
	}
	if hits := c.hits.Load(); hits != waiters-1 {
		t.Fatalf("hits=%d, want %d", hits, waiters-1)
	}
}

// TestPlanCacheErrorNotCached pins that failed optimizations are not
// cached: the next request retries and can succeed.
func TestPlanCacheErrorNotCached(t *testing.T) {
	c := newPlanCache(4)
	key := []byte("flaky")
	boom := errors.New("boom")
	_, _, err := c.getOrCompute(key, 0, func() (planned, error) {
		return planned{}, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err=%v, want boom", err)
	}
	if c.size() != 0 {
		t.Fatal("failed entry stayed cached")
	}
	v, hit, err := c.getOrCompute(key, 0, func() (planned, error) {
		return planned{plan: mkPlan()}, nil
	})
	if err != nil || hit || v.plan == nil {
		t.Fatalf("retry: p=%v hit=%v err=%v", v.plan, hit, err)
	}
}

// listLen walks the recency list and returns its length, failing the
// test if an entry on it is not the one the map holds under its key.
func (c *planCache) listLen(t *testing.T) int {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for en := c.root.next; en != &c.root; en = en.next {
		if c.m[en.key] != en || en.next.prev != en {
			t.Fatalf("recency list and map disagree at %q", en.key.sig)
		}
		n++
	}
	return n
}

// cached reports whether the cache holds (sig, epoch), without touching
// its recency.
func (c *planCache) cached(sig string, epoch uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.m[cacheKey{sig: sig, epoch: epoch}]
	return ok
}

// fill requests (sig, epoch) with a compute function that always succeeds.
func (c *planCache) fill(t *testing.T, sig string, epoch uint64) {
	t.Helper()
	v, _, err := c.getOrCompute([]byte(sig), epoch, func() (planned, error) {
		return planned{plan: mkPlan()}, nil
	})
	if err != nil || v.plan == nil {
		t.Fatalf("%s@%d: plan %v, err %v", sig, epoch, v.plan, err)
	}
}

// TestPlanCacheEvictionAndPrune pins the bounds: the cap holds, a plan
// optimized under an epoch older than the newest seen is the next victim
// whatever its recency, and pruneBelow clears stale entries.
func TestPlanCacheEvictionAndPrune(t *testing.T) {
	c := newPlanCache(4)
	c.fill(t, "new0", 5)
	c.fill(t, "new1", 5)
	// A straggler that froze its statistics before the advance to epoch 5
	// inserts under epoch 0: cached while there is room, but at the cold
	// end, so the insert that overflows evicts it — not new0, the least
	// recently used.
	c.fill(t, "straggler", 0)
	c.fill(t, "new2", 5)
	if c.size() != 4 || !c.cached("straggler", 0) {
		t.Fatalf("size=%d, want 4 with the straggler cached", c.size())
	}
	c.fill(t, "new3", 5)
	if c.cached("straggler", 0) || !c.cached("new0", 5) || c.size() != 4 {
		t.Fatal("a current plan was evicted before the stale one")
	}
	// Into a cache full of current plans a stale insert is its own victim;
	// fill saw its requester answered all the same.
	c.fill(t, "straggler", 0)
	if c.cached("straggler", 0) || c.size() != 4 {
		t.Fatalf("stale insert into a full cache: size=%d", c.size())
	}
	c.fill(t, "newer", 6)
	c.pruneBelow(6)
	if c.size() != 1 || !c.cached("newer", 6) || c.listLen(t) != 1 {
		t.Fatalf("pruneBelow(6) left %d entries (list %d)", c.size(), c.listLen(t))
	}
	if got := c.evictions.Load(); got != 6 {
		t.Fatalf("evictions=%d, want 6 (3 by capacity, 3 pruned)", got)
	}
}

// TestPlanCacheRecency pins least-recently-used eviction: a hit protects
// its entry, the victim is the entry untouched longest. (Eviction used to
// take whichever key map iteration yielded first.)
func TestPlanCacheRecency(t *testing.T) {
	c := newPlanCache(4)
	for _, sig := range []string{"a", "b", "c", "d", "a", "e"} {
		c.fill(t, sig, 0)
	}
	for sig, want := range map[string]bool{"a": true, "b": false, "c": true, "d": true, "e": true} {
		if c.cached(sig, 0) != want {
			t.Errorf("%s cached = %v, want %v", sig, !want, want)
		}
	}
	if c.hits.Load() != 1 || c.misses.Load() != 5 || c.evictions.Load() != 1 {
		t.Errorf("hits/misses/evictions = %d/%d/%d, want 1/5/1", c.hits.Load(), c.misses.Load(), c.evictions.Load())
	}
}

// TestPlanCacheHitAllocatesNothing pins the hit path's key handling: the
// lookup indexes the map through the caller's bytes.
func TestPlanCacheHitAllocatesNothing(t *testing.T) {
	c := newPlanCache(4)
	c.fill(t, "a", 0)
	c.fill(t, "b", 0)
	sigs := [][]byte{[]byte("a"), []byte("b")}
	fn := func() (planned, error) { return planned{}, errors.New("recomputed") }
	i := 0
	if n := testing.AllocsPerRun(100, func() {
		if _, hit, _ := c.getOrCompute(sigs[i%2], 0, fn); !hit {
			t.Fatal("miss on a cached key")
		}
		i++
	}); n != 0 {
		t.Fatalf("a hit allocates %v times, want 0", n)
	}
}

// TestPlanCacheHitShareZipf replays the benchmark's serve workload — 512
// shapes requested once each coldest first, then Zipf(1.1) draws — through
// a 256-entry cache. Recency holds 0.894 of the draws; evicting a random
// entry, as map order did, holds 0.861, and no policy can beat the static
// optimum of keeping the hottest 256, 0.926.
func TestPlanCacheHitShareZipf(t *testing.T) {
	const shapes, draws = 512, 200000
	c := newPlanCache(256)
	sigs := make([][]byte, shapes)
	for i := range sigs {
		sigs[i] = []byte(fmt.Sprintf("shape%d", i))
	}
	fn := func() (planned, error) { return planned{plan: mkPlan()}, nil }
	for i := shapes - 1; i >= 0; i-- {
		c.getOrCompute(sigs[i], 0, fn)
	}
	z := rand.NewZipf(rand.New(rand.NewSource(7)), 1.1, 1, shapes-1)
	hits := 0
	for i := 0; i < draws; i++ {
		if _, hit, _ := c.getOrCompute(sigs[z.Uint64()], 0, fn); hit {
			hits++
		}
	}
	if share := float64(hits) / draws; share < 0.885 {
		t.Fatalf("hit share %.3f, want ≥ 0.885", share)
	}
}

// TestPlanCacheConcurrentEviction churns a small cache from many
// goroutines: whatever is evicted or in flight, a request gets the plan
// computed for its own key, the cap holds at every observation, every
// request is a hit or a miss, and the list ends up mirroring the map.
func TestPlanCacheConcurrentEviction(t *testing.T) {
	const workers, keys, max, requests = 8, 64, 16, 4000
	c := newPlanCache(max)
	var wg sync.WaitGroup
	wg.Add(workers)
	for g := 0; g < workers; g++ {
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < requests; i++ {
				k := rng.Intn(keys)
				v, _, err := c.getOrCompute([]byte(fmt.Sprintf("k%d", k)), 0, func() (planned, error) {
					return planned{plan: &plan.Plan{Kind: plan.NodeScan, Rel: k}}, nil
				})
				if err != nil || v.plan.Rel != k {
					t.Errorf("key %d: plan %+v, err %v", k, v.plan, err)
					return
				}
				if n := c.size(); n > max {
					t.Errorf("size %d over the cap %d", n, max)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := c.hits.Load() + c.misses.Load(); got != workers*requests {
		t.Errorf("hits+misses = %d, want %d requests", got, workers*requests)
	}
	if n := c.listLen(t); n != c.size() || n != max {
		t.Errorf("list %d, map %d, want both %d", n, c.size(), max)
	}
}
