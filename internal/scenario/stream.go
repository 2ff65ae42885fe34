package scenario

import (
	"sync"

	"repro/internal/testbed"
)

// This file is the streaming half of the execution engine. Historically
// a run accumulated every DeviceResult in Report.Devices and derived
// the aggregate fields from that slice at the end — O(devices) retained
// state, which is exactly what stops a million-client scenario run from
// fitting in bounded memory. The streaming core inverts that: every
// aggregate in Report folds incrementally in O(1) state as each trial
// finishes, per-device rows flow out through a RowSink the moment they
// are complete, and the retained Devices slice is opt-out via
// RunOptions.DiscardDevices. A run with no sink and no discard is
// byte-identical to the legacy path (the stream ≡ legacy goldens pin
// this), so the serial ≡ sharded contract carries over unchanged.

// Row is one streamed per-device record: the device's full result plus
// its coordinates in the run. Shard is the shard (or fabric subtree)
// index that produced the row — 0 for serial runs — and Index is the
// row's 0-based trial position within that shard. Rows from one shard
// arrive in trial order; rows from different shards interleave with
// worker scheduling, so consumers needing global order sort by (Shard,
// Index).
type Row struct {
	Shard int
	Index int
	DeviceResult
}

// RowSink consumes rows as trials finish. Sinks passed to a sharded run
// are serialized by the engine (one ObserveRow at a time), so
// implementations need no locking of their own.
type RowSink interface {
	ObserveRow(Row)
}

// RowSinkFunc adapts a function to the RowSink interface.
type RowSinkFunc func(Row)

// ObserveRow implements RowSink.
func (f RowSinkFunc) ObserveRow(r Row) { f(r) }

// lockedSink serializes a shared sink across shard worker goroutines.
type lockedSink struct {
	mu    sync.Mutex
	inner RowSink
}

func (s *lockedSink) ObserveRow(r Row) {
	s.mu.Lock()
	s.inner.ObserveRow(r)
	s.mu.Unlock()
}

// WorldPool reuses built worlds across runs via the testbed
// Checkpoint/Reset lifecycle: Get returns an idle world rewound to its
// exact post-Build state (or builds one and checkpoints it), Put parks
// it for the next Get with the same key. Keys partition interchangeable
// worlds — RunShardedSized keys by shard device count (worlds from one
// sized factory differ only in that), RunFabric keys by subtree index
// (a serial fabric run is subtree 0). A caller may park a checkpointed
// world under the matching key ahead of a run, and the run then builds
// nothing.
// Worlds that cannot checkpoint (built clients) are closed on Put and
// rebuilt on Get, so the pool degrades to build-per-run rather than
// failing. Safe for concurrent use by shard workers.
type WorldPool struct {
	mu   sync.Mutex
	idle map[any][]*testbed.Testbed
}

// NewWorldPool returns an empty pool.
func NewWorldPool() *WorldPool {
	return &WorldPool{idle: make(map[any][]*testbed.Testbed)}
}

// Get returns a world for key: an idle pooled world reset to its
// checkpoint if one is available, else a fresh build (checkpointed so
// it can be pooled on Put). A pooled world that fails Reset is closed
// and replaced by a fresh build.
func (p *WorldPool) Get(key any, build func() (*testbed.Testbed, error)) (*testbed.Testbed, error) {
	for {
		p.mu.Lock()
		stack := p.idle[key]
		if len(stack) == 0 {
			p.mu.Unlock()
			break
		}
		tb := stack[len(stack)-1]
		p.idle[key] = stack[:len(stack)-1]
		p.mu.Unlock()
		if tb.Reset() == nil {
			return tb, nil
		}
		tb.Close()
	}
	tb, err := build()
	if err != nil {
		return nil, err
	}
	// Checkpoint may refuse (worlds with built clients); the world is
	// still usable, it just won't be pooled.
	_ = tb.Checkpoint()
	return tb, nil
}

// Put parks tb for reuse under key. Worlds without a checkpoint cannot
// rewind and are closed instead.
func (p *WorldPool) Put(key any, tb *testbed.Testbed) {
	if tb == nil {
		return
	}
	if !tb.Checkpointed() {
		tb.Close()
		return
	}
	p.mu.Lock()
	p.idle[key] = append(p.idle[key], tb)
	p.mu.Unlock()
}

// Close tears down every idle world. The pool stays usable afterwards
// (a later Get simply builds fresh); worlds currently checked out are
// the caller's to Put back or Close directly.
func (p *WorldPool) Close() {
	p.mu.Lock()
	idle := p.idle
	p.idle = make(map[any][]*testbed.Testbed)
	p.mu.Unlock()
	for _, stack := range idle {
		for _, tb := range stack {
			tb.Close()
		}
	}
}
