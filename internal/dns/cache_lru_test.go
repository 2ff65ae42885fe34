package dns

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"repro/internal/dnswire"
)

// countingInner answers every A query positively and counts calls.
func countingInner(calls *int, ttl uint32) Resolver {
	return ResolverFunc(func(qq dnswire.Question) (*dnswire.Message, error) {
		*calls++
		resp := NoError()
		resp.Answers = []dnswire.RR{{
			Name: dnswire.CanonicalName(qq.Name), Type: dnswire.TypeA, TTL: ttl, Addr: netip.MustParseAddr("192.0.2.1"),
		}}
		return resp, nil
	})
}

// A caller appending to a returned answer slice must not change what a
// subsequent cache hit sees (the aliasing bug: the cache used to hand
// out its own *Message, and dns.Respond copies slice headers into the
// reply, so an append could scribble over the cached backing array).
func TestCacheHitSurvivesCallerAppend(t *testing.T) {
	now := time.Date(2024, 11, 17, 9, 0, 0, 0, time.UTC)
	calls := 0
	c := NewCache(countingInner(&calls, 300), func() time.Time { return now })

	first := mustResolve(t, c, q("victim.test", dnswire.TypeA))
	// Simulate a caller (e.g. a DNS64 layer or server loop) extending the
	// answer section of the response it was handed.
	first.Answers = append(first.Answers, dnswire.RR{
		Name: "injected.test.", Type: dnswire.TypeA, TTL: 1, Addr: netip.MustParseAddr("203.0.113.99"),
	})
	first.Answers[0].TTL = 1 // and mutating its own copy's header fields

	second := mustResolve(t, c, q("victim.test", dnswire.TypeA))
	if calls != 1 {
		t.Fatalf("expected a cache hit, inner called %d times", calls)
	}
	if len(second.Answers) != 1 {
		t.Fatalf("cache corrupted: hit has %d answers, want 1", len(second.Answers))
	}
	if second.Answers[0].Name != "victim.test." {
		t.Errorf("cache hit answer name = %q", second.Answers[0].Name)
	}

	// Appending to the hit must not affect a third hit either.
	second.Answers = append(second.Answers, dnswire.RR{Name: "x.test.", Type: dnswire.TypeA})
	third := mustResolve(t, c, q("victim.test", dnswire.TypeA))
	if len(third.Answers) != 1 {
		t.Fatalf("cache corrupted by append-after-hit: %d answers", len(third.Answers))
	}
}

func TestCacheCapacityBoundLRU(t *testing.T) {
	now := time.Date(2024, 11, 17, 9, 0, 0, 0, time.UTC)
	calls := 0
	c := NewCache(countingInner(&calls, 3600), func() time.Time { return now })
	c.MaxEntries = 4

	for i := 0; i < 10; i++ {
		mustResolve(t, c, q(fmt.Sprintf("host%d.test", i), dnswire.TypeA))
	}
	if c.Len() != 4 {
		t.Fatalf("Len = %d, want capacity 4", c.Len())
	}
	if c.Evictions != 6 {
		t.Errorf("Evictions = %d, want 6", c.Evictions)
	}

	// The four most recent names must be hits; the oldest must miss.
	calls = 0
	for i := 6; i < 10; i++ {
		mustResolve(t, c, q(fmt.Sprintf("host%d.test", i), dnswire.TypeA))
	}
	if calls != 0 {
		t.Errorf("recent entries missed: %d inner calls", calls)
	}
	mustResolve(t, c, q("host0.test", dnswire.TypeA))
	if calls != 1 {
		t.Errorf("evicted entry served from cache")
	}
}

func TestCacheLRUTouchOnHit(t *testing.T) {
	now := time.Date(2024, 11, 17, 9, 0, 0, 0, time.UTC)
	calls := 0
	c := NewCache(countingInner(&calls, 3600), func() time.Time { return now })
	c.MaxEntries = 2

	mustResolve(t, c, q("a.test", dnswire.TypeA))
	mustResolve(t, c, q("b.test", dnswire.TypeA))
	mustResolve(t, c, q("a.test", dnswire.TypeA)) // touch a: b becomes coldest
	mustResolve(t, c, q("c.test", dnswire.TypeA)) // evicts b

	calls = 0
	mustResolve(t, c, q("a.test", dnswire.TypeA))
	if calls != 0 {
		t.Errorf("recently touched entry was evicted")
	}
	mustResolve(t, c, q("b.test", dnswire.TypeA))
	if calls != 1 {
		t.Errorf("LRU victim was not b")
	}
}

// Expired entries must be removed — on the lookup that finds them stale,
// and from the cold end during insertion — instead of leaking forever.
func TestCacheStaleEntriesEvicted(t *testing.T) {
	now := time.Date(2024, 11, 17, 9, 0, 0, 0, time.UTC)
	calls := 0
	c := NewCache(countingInner(&calls, 30), func() time.Time { return now })

	mustResolve(t, c, q("stale.test", dnswire.TypeA))
	if c.Len() != 1 {
		t.Fatalf("Len = %d after insert", c.Len())
	}
	now = now.Add(31 * time.Second)
	mustResolve(t, c, q("stale.test", dnswire.TypeA)) // stale hit: evict + refill
	if c.Len() != 1 {
		t.Errorf("Len = %d, stale entry leaked alongside refill", c.Len())
	}
	if c.Expired != 1 {
		t.Errorf("Expired = %d, want 1", c.Expired)
	}
	if calls != 2 {
		t.Errorf("inner calls = %d, want 2", calls)
	}
}

func TestCacheInsertionShedsExpiredBeforeLive(t *testing.T) {
	now := time.Date(2024, 11, 17, 9, 0, 0, 0, time.UTC)
	ttl := uint32(30)
	calls := 0
	inner := ResolverFunc(func(qq dnswire.Question) (*dnswire.Message, error) {
		calls++
		resp := NoError()
		resp.Answers = []dnswire.RR{{Name: qq.Name, Type: dnswire.TypeA, TTL: ttl, Addr: netip.MustParseAddr("192.0.2.1")}}
		return resp, nil
	})
	c := NewCache(inner, func() time.Time { return now })
	c.MaxEntries = 3

	mustResolve(t, c, q("old1.test", dnswire.TypeA))
	mustResolve(t, c, q("old2.test", dnswire.TypeA))
	now = now.Add(31 * time.Second) // old1/old2 expire
	ttl = 3600
	mustResolve(t, c, q("live.test", dnswire.TypeA))
	mustResolve(t, c, q("new.test", dnswire.TypeA)) // at capacity: must shed expired, not live

	if c.Evictions != 0 {
		t.Errorf("live entry evicted while expired entries remained (Evictions=%d)", c.Evictions)
	}
	calls = 0
	mustResolve(t, c, q("live.test", dnswire.TypeA))
	if calls != 0 {
		t.Errorf("live entry was sacrificed for an expired one")
	}
}

// lruOrder lists the cache's names from most to least recently used,
// failing unless the back links and the entry map agree with the list.
func lruOrder(t *testing.T, c *Cache) []string {
	t.Helper()
	var names []string
	var prev *cacheEntry
	for e := c.head; e != nil; e = e.next {
		if e.prev != prev {
			t.Fatalf("entry %s has a broken back link", e.key.name)
		}
		if c.entries[e.key] != e {
			t.Fatalf("entry %s is not the one the map holds", e.key.name)
		}
		names = append(names, e.key.name)
		prev = e
	}
	if c.tail != prev || len(c.entries) != len(names) {
		t.Fatalf("tail or map size disagrees with the %d-entry list", len(names))
	}
	return names
}

// TestCacheRestoreRewindsLRUOrder checkpoints a full cache, reorders
// and evicts through it, and checks that Restore brings back the same
// entries in the same LRU order with the same counters — twice, so the
// saved copy must not share entries with the live list.
func TestCacheRestoreRewindsLRUOrder(t *testing.T) {
	now := time.Date(2024, 11, 17, 9, 0, 0, 0, time.UTC)
	calls := 0
	c := NewCache(countingInner(&calls, 3600), func() time.Time { return now })
	c.MaxEntries = 3
	for _, name := range []string{"a.test", "b.test", "c.test"} {
		mustResolve(t, c, q(name, dnswire.TypeA))
	}
	c.Checkpoint()
	want := lruOrder(t, c)
	wantCounts := [4]uint64{c.Hits, c.Misses, c.Evictions, c.Expired}

	for round := 1; round <= 2; round++ {
		mustResolve(t, c, q("a.test", dnswire.TypeA)) // touch a
		mustResolve(t, c, q("d.test", dnswire.TypeA)) // evicts the coldest
		c.Restore()
		if got := lruOrder(t, c); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("round %d: LRU order after Restore = %v, want %v", round, got, want)
		}
		if got := [4]uint64{c.Hits, c.Misses, c.Evictions, c.Expired}; got != wantCounts {
			t.Fatalf("round %d: counters after Restore = %v, want %v", round, got, wantCounts)
		}
	}
}
