package dns

import (
	"time"

	"repro/internal/dnswire"
)

// CacheCheckpoint is an opaque copy of a Cache's dynamic state (the
// entry set in exact LRU order plus the lookup counters), captured with
// Cache.Checkpoint and restored with Cache.Restore for testbed world
// reuse. Cached messages are shared, not cloned: the cache treats them
// as immutable.
type CacheCheckpoint struct {
	entries []cacheEntrySnap // MRU → LRU order
	hits    uint64
	misses  uint64
	evicts  uint64
	expired uint64
}

type cacheEntrySnap struct {
	key     cacheKey
	msg     *dnswire.Message
	expires time.Time
}

// Checkpoint copies the cache's entry set (preserving LRU order) and
// counters.
func (c *Cache) Checkpoint() *CacheCheckpoint {
	cp := &CacheCheckpoint{
		hits:    c.Hits,
		misses:  c.Misses,
		evicts:  c.Evictions,
		expired: c.Expired,
	}
	for e := c.head; e != nil; e = e.next {
		cp.entries = append(cp.entries, cacheEntrySnap{key: e.key, msg: e.msg, expires: e.expires})
	}
	return cp
}

// Restore rewinds the cache to a previously captured Checkpoint,
// rebuilding the entry map and the intrusive LRU list in the recorded
// order.
func (c *Cache) Restore(cp *CacheCheckpoint) {
	c.entries = make(map[cacheKey]*cacheEntry, len(cp.entries))
	c.head, c.tail = nil, nil
	var prev *cacheEntry
	for _, s := range cp.entries {
		e := &cacheEntry{key: s.key, msg: s.msg, expires: s.expires}
		c.entries[s.key] = e
		if prev == nil {
			c.head = e
		} else {
			prev.next = e
			e.prev = prev
		}
		prev = e
	}
	c.tail = prev

	c.Hits = cp.hits
	c.Misses = cp.misses
	c.Evictions = cp.evicts
	c.Expired = cp.expired
}

// Restore sets the log's count back to n, a Len captured earlier, for
// testbed world reuse.
func (l *QueryLog) Restore(n int) { l.n = n }
