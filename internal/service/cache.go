package service

import (
	"container/list"
	"sync"

	"repro/internal/metrics"
)

// resultCache is a bounded LRU over content-addressed keys. Values are
// *Response treated as immutable once stored; readers copy the struct
// before stamping per-request fields. The cache is double-bounded: by
// entry count and by approximate heap bytes, so a handful of p=4096
// responses cannot blow the heap while the entry bound still has hundreds
// of slots free.
type resultCache struct {
	mu       sync.Mutex
	cap      int
	maxBytes int64
	bytes    int64      // approximate heap bytes of every held entry
	order    *list.List // front = most recently used; values are *cacheEntry
	entries  map[string]*list.Element

	evictions  *metrics.Counter
	size       *metrics.Gauge
	bytesGauge *metrics.Gauge
}

type cacheEntry struct {
	key   string
	resp  *Response
	bytes int64
}

func newResultCache(capacity int, maxBytes int64, evictions *metrics.Counter, size, bytesGauge *metrics.Gauge) *resultCache {
	if capacity <= 0 {
		capacity = 1
	}
	if maxBytes <= 0 {
		maxBytes = defaultCacheBytes
	}
	return &resultCache{
		cap:        capacity,
		maxBytes:   maxBytes,
		order:      list.New(),
		entries:    make(map[string]*list.Element),
		evictions:  evictions,
		size:       size,
		bytesGauge: bytesGauge,
	}
}

// defaultCacheBytes bounds the result cache's memory when Config.CacheBytes
// is unset: 256 MiB, roughly 8000 p=4096 responses.
const defaultCacheBytes = 256 << 20

// approxResponseBytes estimates a cached response's heap footprint: the
// mapping dominates at large p, the per-size results and struct overhead
// cover the rest. Deliberately an estimate — it bounds growth, it does not
// meter an allocator.
func approxResponseBytes(r *Response) int64 {
	b := int64(160) // struct, slice headers, map entry, list element
	b += int64(len(r.Mapping)) * 8
	b += int64(len(r.Results)) * 40
	b += int64(len(r.Heuristic) + len(r.Order) + len(r.Shard))
	if r.GraphCost != nil {
		b += 16
	}
	b += int64(len(r.Trace)) * 48
	return b
}

func (c *resultCache) get(key string) (*Response, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).resp, true
}

func (c *resultCache) put(key string, resp *Response) {
	cost := approxResponseBytes(resp)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*cacheEntry)
		c.bytes += cost - e.bytes
		e.resp, e.bytes = resp, cost
		c.order.MoveToFront(el)
	} else {
		c.entries[key] = c.order.PushFront(&cacheEntry{key: key, resp: resp, bytes: cost})
		c.bytes += cost
	}
	// Evict down to both bounds, always keeping the entry just inserted so
	// an oversized response still serves its own request's followers.
	for len(c.entries) > 1 && (len(c.entries) > c.cap || c.bytes > c.maxBytes) {
		oldest := c.order.Back()
		e := oldest.Value.(*cacheEntry)
		c.order.Remove(oldest)
		delete(c.entries, e.key)
		c.bytes -= e.bytes
		c.evictions.Inc()
	}
	c.size.Set(int64(len(c.entries)))
	c.bytesGauge.Set(c.bytes)
}

func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
