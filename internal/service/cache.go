package service

import (
	"sync"
	"sync/atomic"

	"eagg/internal/core"
	"eagg/internal/engine"
	"eagg/internal/plan"
)

// cacheKey identifies one cached plan: the canonical (query, options)
// fingerprint — which includes the physical mode — plus the feedback
// epoch the plan was optimized under. Two requests differing in either
// half never share an entry: a plan built for the hash layer must not
// serve a sort-mode request, and a plan built from stale statistics
// must not outlive the measurements that would have changed it.
type cacheKey struct {
	sig   string
	epoch uint64
}

// planned is what a cache entry holds: the plan, the program prepared
// from it (engine.Prepare), and the optimizer's search effort.
type planned struct {
	plan  *plan.Plan
	prog  *engine.Program
	stats core.Stats
}

// cacheEntry is one plan cache slot with single-flight semantics: the
// first request for a key computes while later requests block on ready.
// val/err are written exactly once, before ready closes. key and the
// recency links belong to the cache and are touched only under its mutex;
// an entry is on the list exactly while the map holds it.
type cacheEntry struct {
	ready chan struct{}
	val   planned
	err   error

	key        cacheKey
	prev, next *cacheEntry
}

// planCache is a bounded plan cache with single-flight computation and
// least-recently-used eviction. Plans and programs are immutable, so
// handing the same ones to any number of concurrent executions is safe; a
// program is evicted with its plan.
//
// Every entry of m sits on an intrusive recency list — a ring through
// root, hottest at root.next, coldest at root.prev — that getOrCompute
// and pruneBelow maintain under mu: a hit moves its entry to the hot
// end, a miss inserts there and unlinks from the cold end while the map
// is over its cap. The one exception to recency is a plan optimized
// under an epoch older than the newest the cache has seen (a request
// that froze its statistics just before a feedback advance): no later
// request can ask for it, so it is inserted at the cold end.
type planCache struct {
	mu     sync.Mutex
	max    int
	m      map[cacheKey]*cacheEntry
	root   cacheEntry // list sentinel
	newest uint64     // highest epoch inserted or pruned up to

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64 // capacity evictions + stale-epoch prunes
}

func newPlanCache(max int) *planCache {
	c := &planCache{max: max, m: map[cacheKey]*cacheEntry{}}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

// linkAfter puts en on the list behind at. Called with mu held.
func (en *cacheEntry) linkAfter(at *cacheEntry) {
	en.prev, en.next = at, at.next
	at.next.prev = en
	at.next = en
}

// unlink takes en off the list. Called with mu held.
func (en *cacheEntry) unlink() {
	en.prev.next, en.next.prev = en.next, en.prev
	en.prev, en.next = nil, nil
}

// dropLocked removes en from the map and the list. Called with mu held.
func (c *planCache) dropLocked(en *cacheEntry) {
	delete(c.m, en.key)
	en.unlink()
}

// getOrCompute returns the cached entry for (sig, epoch), computing it
// via fn on the first request. sig is only read, and only until the
// lookup is done: a hit indexes the map through it without allocating,
// a miss copies it into the key it inserts. Concurrent requests for the
// same key wait for the single in-flight computation and count as hits
// (they skipped the DP search — which is what hit/miss measures). A
// failed computation is not cached: its waiters see the error, and the
// entry is removed so later requests retry. An entry evicted or pruned
// while in flight still completes and answers its own requester and
// waiters; only the cache stops serving it.
func (c *planCache) getOrCompute(sig []byte, epoch uint64, fn func() (planned, error)) (planned, bool, error) {
	c.mu.Lock()
	if en, ok := c.m[cacheKey{sig: string(sig), epoch: epoch}]; ok {
		en.unlink()
		en.linkAfter(&c.root)
		c.mu.Unlock()
		<-en.ready
		if en.err != nil {
			return planned{}, false, en.err
		}
		c.hits.Add(1)
		return en.val, true, nil
	}
	en := &cacheEntry{ready: make(chan struct{}), key: cacheKey{sig: string(sig), epoch: epoch}}
	c.m[en.key] = en
	if epoch < c.newest {
		en.linkAfter(c.root.prev)
	} else {
		c.newest = epoch
		en.linkAfter(&c.root)
	}
	for len(c.m) > c.max {
		c.dropLocked(c.root.prev)
		c.evictions.Add(1)
	}
	c.mu.Unlock()
	c.misses.Add(1)

	en.val, en.err = fn()
	close(en.ready)
	if en.err != nil {
		c.mu.Lock()
		if c.m[en.key] == en {
			c.dropLocked(en)
		}
		c.mu.Unlock()
		return planned{}, false, en.err
	}
	return en.val, false, nil
}

// pruneBelow drops every entry optimized under an epoch older than
// epoch. In-flight entries may be pruned too: their computation still
// completes and its direct requester still gets the plan — only the
// cache stops serving it.
func (c *planCache) pruneBelow(epoch uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if epoch > c.newest {
		c.newest = epoch
	}
	for en := c.root.next; en != &c.root; {
		next := en.next
		if en.key.epoch < epoch {
			c.dropLocked(en)
			c.evictions.Add(1)
		}
		en = next
	}
}

// size returns the current entry count.
func (c *planCache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}
