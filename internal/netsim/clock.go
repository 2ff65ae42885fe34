package netsim

import (
	"math/bits"
	"time"
)

// Clock is a virtual clock. Time only advances when the owning Network
// processes events, which makes every simulation run deterministic and
// lets expiry-driven behaviour (DHCP leases, NAT64 session timeouts, RA
// lifetimes) be tested without real sleeping.
//
// Pending timers live in a hierarchical timer wheel: four levels of 64
// slots at a 1 ms tick, covering ~4.6 hours, with a 4-ary overflow heap
// for anything beyond the horizon. A population of thousands of hosts
// arms retransmit, renewal and lifetime timers constantly; the wheel
// makes arming and cancelling O(1) instead of churning one global heap,
// while still popping timers in exact (deadline, arm-order) sequence —
// see DESIGN.md §3c for why determinism survives the change.
type Clock struct {
	epoch time.Time

	// clockState holds what a run changes; Checkpoint saves a copy in
	// saved and Restore copies it back (checkpoint.go).
	clockState
	saved *clockState

	// armed lists the timers pending at the checkpoint. Restore drops
	// every pending timer and puts these back, each with its original
	// deadline and arm order, exactly as a fresh world holds them.
	armed []*Timer

	// The pending timers.
	wheel    [wheelLevels][wheelSlots][]*Timer
	occ      [wheelLevels]uint64 // per-level slot occupancy bitmaps
	overflow overflowHeap
	pending  int

	// minCache memoizes the earliest pending timer between structural
	// changes, so the event loop's peek-per-step stays O(1).
	minCache *Timer
}

// clockState is the part of a Clock that a run changes.
type clockState struct {
	now time.Time
	seq uint64

	// cur is the wheel's reference tick, advanced (with cascading) as
	// virtual time moves. Invariant: every pending timer's tick >= cur,
	// because time never advances past an unfired timer's deadline.
	cur uint64

	// stopped refuses new timers after a purge (Network.Stop); AfterFunc
	// then hands back inert, pre-stopped handles.
	stopped bool
}

const (
	// wheelTick is the wheel's granularity. Sub-tick deadlines coexist
	// in one slot and are ordered by exact (when, seq) at pop time.
	wheelTick   = time.Millisecond
	wheelLevels = 4
	wheelSlots  = 64
	wheelBits   = 6
)

// NewClock returns a clock starting at a fixed, arbitrary epoch.
func NewClock() *Clock {
	epoch := time.Date(2024, time.November, 17, 9, 0, 0, 0, time.UTC)
	return &Clock{epoch: epoch, clockState: clockState{now: epoch}}
}

// Now returns the current virtual time.
func (c *Clock) Now() time.Time { return c.now }

// tick converts a virtual timestamp to an absolute wheel tick.
func (c *Clock) tick(t time.Time) uint64 {
	d := t.Sub(c.epoch)
	if d < 0 {
		return 0
	}
	return uint64(d / wheelTick)
}

// Timer is a handle for a scheduled callback.
type Timer struct {
	when    time.Time
	seq     uint64
	fn      func()
	stopped bool

	// Location within the clock's structures, so Stop and pop detach in
	// O(1): a wheel bucket (bucket non-nil) or the overflow heap
	// (inHeap). Both unset means fired or never armed.
	c      *Clock
	bucket *[]*Timer
	level  uint8
	slot   uint8
	inHeap bool
	pos    int
}

func timerLess(a, b *Timer) bool {
	if !a.when.Equal(b.when) {
		return a.when.Before(b.when)
	}
	return a.seq < b.seq
}

// Stop cancels the timer, detaching it from the wheel immediately so
// abandoned timers (retransmits answered, leases renewed) cost nothing
// at scan time. It is safe to call multiple times.
func (t *Timer) Stop() {
	if t == nil || t.stopped {
		return
	}
	t.stopped = true
	if t.c != nil {
		t.c.detach(t)
	}
}

// AfterFunc schedules fn to run d after the current virtual time.
func (c *Clock) AfterFunc(d time.Duration, fn func()) *Timer {
	if c.stopped {
		return &Timer{stopped: true}
	}
	if d < 0 {
		d = 0
	}
	c.seq++
	t := &Timer{when: c.now.Add(d), seq: c.seq, fn: fn, c: c}
	c.insert(t)
	return t
}

// insert places a timer at the shallowest wheel level whose span still
// contains its tick, or in the overflow heap beyond the horizon.
func (c *Clock) insert(t *Timer) {
	tk := c.tick(t.when)
	placed := false
	for l := 0; l < wheelLevels; l++ {
		shift := uint(wheelBits * l)
		if tk>>shift-c.cur>>shift < wheelSlots {
			slot := (tk >> shift) & (wheelSlots - 1)
			b := &c.wheel[l][slot]
			t.bucket, t.level, t.slot, t.pos = b, uint8(l), uint8(slot), len(*b)
			*b = append(*b, t)
			c.occ[l] |= 1 << slot
			placed = true
			break
		}
	}
	if !placed {
		c.overflow.push(t)
	}
	c.pending++
	if c.minCache != nil && timerLess(t, c.minCache) {
		c.minCache = t
	}
}

// detach unlinks a timer from whichever structure holds it. O(1) for
// wheel buckets (swap-remove), O(log n) for the overflow heap.
func (c *Clock) detach(t *Timer) {
	switch {
	case t.bucket != nil:
		b := t.bucket
		last := len(*b) - 1
		moved := (*b)[last]
		(*b)[t.pos] = moved
		moved.pos = t.pos
		(*b)[last] = nil
		*b = (*b)[:last]
		if last == 0 {
			c.occ[t.level] &^= 1 << t.slot
		}
		t.bucket = nil
	case t.inHeap:
		c.overflow.removeAt(t.pos)
		t.inHeap = false
	default:
		return // already fired or detached
	}
	c.pending--
	if c.minCache == t {
		c.minCache = nil
	}
}

// advance moves the clock forward to tm if tm is later than now,
// cascading due wheel blocks down a level as the reference tick passes
// them. Cascading is what keeps each level's slots aliasing-free: a slot
// only ever holds one 64-tick (or 64^l-tick) block at a time.
func (c *Clock) advance(tm time.Time) {
	if !tm.After(c.now) {
		return
	}
	c.now = tm
	newCur := c.tick(tm)
	if newCur <= c.cur {
		return
	}
	c.cur = newCur
	// Demote the block now containing cur at each level, top down. Any
	// timer there has tick >= cur (time never passes a pending timer),
	// so it re-inserts strictly below its old level. Blocks skipped by a
	// big jump are provably empty for the same reason.
	for l := wheelLevels - 1; l >= 1; l-- {
		shift := uint(wheelBits * l)
		slot := (newCur >> shift) & (wheelSlots - 1)
		if c.occ[l]&(1<<slot) == 0 {
			continue
		}
		b := c.wheel[l][slot]
		c.wheel[l][slot] = b[:0]
		c.occ[l] &^= 1 << slot
		for i, t := range b {
			t.bucket = nil
			c.pending-- // re-counted by insert
			c.insert(t)
			b[i] = nil
		}
	}
}

// levelMin returns the earliest pending timer at wheel level l, or nil.
// The earliest occupied slot (in circular order from cur's own slot)
// necessarily holds the level's minimum, since distinct slots hold
// disjoint, ordered tick blocks; within the slot, timers are unordered
// and scanned linearly.
func (c *Clock) levelMin(l int) *Timer {
	if c.occ[l] == 0 {
		return nil
	}
	r := int((c.cur >> uint(wheelBits*l)) & (wheelSlots - 1))
	off := bits.TrailingZeros64(bits.RotateLeft64(c.occ[l], -r))
	slot := (r + off) & (wheelSlots - 1)
	var best *Timer
	for _, t := range c.wheel[l][slot] {
		if best == nil || timerLess(t, best) {
			best = t
		}
	}
	return best
}

// nextTimer returns the earliest pending timer without popping it, or nil.
func (c *Clock) nextTimer() *Timer {
	if c.minCache != nil {
		return c.minCache
	}
	if c.pending == 0 {
		return nil
	}
	best := c.overflow.peek()
	for l := 0; l < wheelLevels; l++ {
		if t := c.levelMin(l); t != nil && (best == nil || timerLess(t, best)) {
			best = t
		}
	}
	c.minCache = best
	return best
}

// popTimer removes and returns the earliest pending timer, advancing the
// clock to its deadline. Returns nil when no timers remain.
func (c *Clock) popTimer() *Timer {
	t := c.nextTimer()
	if t == nil {
		return nil
	}
	c.advance(t.when)
	c.detach(t)
	return t
}

// dropAll detaches every pending timer, leaving handles inert.
func (c *Clock) dropAll() {
	for l := range c.wheel {
		for s := range c.wheel[l] {
			b := c.wheel[l][s]
			for i, t := range b {
				t.bucket = nil
				b[i] = nil
			}
			c.wheel[l][s] = b[:0]
		}
		c.occ[l] = 0
	}
	for i, t := range c.overflow {
		t.inHeap = false
		c.overflow[i] = nil
	}
	c.overflow = c.overflow[:0]
	c.pending = 0
	c.minCache = nil
}

// purge cancels every pending timer and refuses new ones until the
// owning Network restores its checkpoint.
func (c *Clock) purge() {
	c.stopped = true
	c.dropAll()
}

// overflowHeap is a 4-ary min-heap over (when, seq) for timers beyond
// the wheel horizon, with position tracking for O(log n) cancellation.
type overflowHeap []*Timer

func (h overflowHeap) peek() *Timer {
	if len(h) == 0 {
		return nil
	}
	return h[0]
}

func (h *overflowHeap) push(t *Timer) {
	t.inHeap = true
	t.pos = len(*h)
	*h = append(*h, t)
	h.siftUp(t.pos)
}

func (h *overflowHeap) removeAt(i int) {
	old := *h
	last := len(old) - 1
	old[i] = old[last]
	old[i].pos = i
	old[last] = nil
	*h = old[:last]
	if i < last {
		h.siftDown(i)
		h.siftUp(i)
	}
}

func (h overflowHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 4
		if !timerLess(h[i], h[parent]) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h overflowHeap) siftDown(i int) {
	n := len(h)
	for {
		first := 4*i + 1
		if first >= n {
			return
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for ch := first + 1; ch < last; ch++ {
			if timerLess(h[ch], h[min]) {
				min = ch
			}
		}
		if !timerLess(h[min], h[i]) {
			return
		}
		h.swap(i, min)
		i = min
	}
}

func (h overflowHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].pos, h[j].pos = i, j
}
