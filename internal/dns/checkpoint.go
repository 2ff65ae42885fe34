package dns

// Checkpoint saves the cache's entries, in LRU order, and its counters
// for Restore. It is part of the testbed world-reuse lifecycle. Cached
// messages are shared, not cloned: the cache treats them as immutable.
func (c *Cache) Checkpoint() {
	c.saved = new(cacheState)
	c.cacheState.copyInto(c.saved)
}

// Restore rewinds the cache to its checkpoint.
func (c *Cache) Restore() {
	c.saved.copyInto(&c.cacheState)
}

func (s *cacheState) copyInto(dst *cacheState) {
	entries := dst.entries
	*dst = *s

	// Entries change in place and are linked in LRU order: rebuild the
	// list from copies, in the same order, inside dst's map.
	if entries == nil {
		entries = make(map[cacheKey]*cacheEntry, len(s.entries))
	}
	clear(entries)
	dst.entries, dst.head, dst.tail = entries, nil, nil
	for e := s.head; e != nil; e = e.next {
		cp := &cacheEntry{key: e.key, msg: e.msg, expires: e.expires, prev: dst.tail}
		if dst.tail == nil {
			dst.head = cp
		} else {
			dst.tail.next = cp
		}
		dst.tail = cp
		entries[e.key] = cp
	}
}

// Checkpoint saves the log's count for Restore.
func (l *QueryLog) Checkpoint() {
	saved := l.queryLogState
	l.saved = &saved
}

// Restore sets the log's count back to its checkpoint.
func (l *QueryLog) Restore() { l.queryLogState = *l.saved }
