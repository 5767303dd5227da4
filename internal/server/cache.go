package server

import (
	"container/list"
	"strconv"
	"sync"

	ossm "github.com/ossm-mining/ossm"
	"github.com/ossm-mining/ossm/internal/obs"
)

// boundCache is the hot-path LRU of ubsup answers. Bound queries dominate
// a serving workload (PAPER.md §3: the OSSM exists so queries at any
// threshold are cheap and query-independent), and popular itemsets repeat,
// so one small map lookup replaces a min-scan over every segment row.
//
// Keys embed the owning index's registry version, so replacing an index
// (a streaming Appender snapshot swap) invalidates every cached bound for
// it at once: post-swap queries form keys at the new version and can never
// observe a stale value, while the dead generation's entries age out of
// the LRU tail without a sweep.
type boundCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element

	hits      *obs.Counter // ossm_cache_hits_total
	misses    *obs.Counter // ossm_cache_misses_total
	evictions *obs.Counter // ossm_cache_evictions_total
}

type cacheEntry struct {
	key   string
	bound int64
}

// newBoundCache returns an LRU holding up to capacity bounds; capacity
// <= 0 disables caching (every get misses, puts are dropped). The cache
// registers its hit, miss and eviction counters and its size gauge on r.
func newBoundCache(capacity int, r *obs.Registry) *boundCache {
	c := &boundCache{
		cap:       capacity,
		ll:        list.New(),
		items:     make(map[string]*list.Element),
		hits:      r.Counter("ossm_cache_hits_total", "Bound-cache hits."),
		misses:    r.Counter("ossm_cache_misses_total", "Bound-cache misses."),
		evictions: r.Counter("ossm_cache_evictions_total", "Bound-cache LRU evictions."),
	}
	r.GaugeFunc("ossm_cache_entries", "Bounds currently cached.",
		func() float64 { return float64(c.len()) })
	return c
}

// appendCacheKey canonicalizes (index name, index version, itemset) into
// the cache's key space, appending to buf. The itemset must already be
// canonical (sorted, de-duplicated) so permutations of one query collide.
// Keys stay []byte on the hot path: looking a byte slice up via
// map[string(key)] compiles to an allocation-free probe, so a cache hit
// costs one buffer append and one map access.
func appendCacheKey(buf []byte, name string, version uint64, set ossm.Itemset) []byte {
	buf = append(buf, name...)
	buf = append(buf, 0)
	buf = strconv.AppendUint(buf, version, 10)
	buf = append(buf, 0)
	for i, it := range set {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendUint(buf, uint64(it), 10)
	}
	return buf
}

// get returns the cached bound for key and whether it was present.
func (c *boundCache) get(key []byte) (int64, bool) {
	if c.cap <= 0 {
		c.misses.Inc()
		return 0, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[string(key)]
	if !ok {
		c.misses.Inc()
		return 0, false
	}
	c.ll.MoveToFront(el)
	c.hits.Inc()
	return el.Value.(*cacheEntry).bound, true
}

// put records a freshly computed bound, evicting the least recently used
// entry when the cache is full.
func (c *boundCache) put(key []byte, bound int64) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[string(key)]; ok {
		el.Value.(*cacheEntry).bound = bound
		c.ll.MoveToFront(el)
		return
	}
	k := string(key)
	c.items[k] = c.ll.PushFront(&cacheEntry{key: k, bound: bound})
	if c.ll.Len() > c.cap {
		tail := c.ll.Back()
		c.ll.Remove(tail)
		delete(c.items, tail.Value.(*cacheEntry).key)
		c.evictions.Inc()
	}
}

// len reports the number of cached bounds.
func (c *boundCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
