package netsim

import "time"

// Clock is a virtual clock. Time only advances when the owning Network
// processes events, which makes every simulation run deterministic and
// lets expiry-driven behaviour (DHCP leases, NAT64 session timeouts, RA
// lifetimes) be tested without real sleeping.
//
// Pending timers live in one 4-ary min-heap over (deadline, arm order)
// that keeps each timer's index, so Stop removes a timer at once and
// timers pop in exact (deadline, arm-order) sequence. No clock in the
// benchmark workloads holds more than about a hundred timers at once
// (DESIGN.md §3c).
type Clock struct {
	// clockState holds what a run changes; Checkpoint saves a copy in
	// saved and Restore copies it back (checkpoint.go).
	clockState
	saved *clockState

	// armed lists the timers pending at the checkpoint. Restore drops
	// every pending timer and puts these back, each with its original
	// deadline and arm order, exactly as a fresh world holds them.
	armed []*Timer

	// timers holds the pending timers.
	timers timerHeap
}

// clockState is the part of a Clock that a run changes.
type clockState struct {
	now time.Time
	seq uint64

	// stopped refuses new timers after a purge (Network.Stop); AfterFunc
	// then hands back inert, pre-stopped handles.
	stopped bool
}

// NewClock returns a clock starting at a fixed, arbitrary epoch.
func NewClock() *Clock {
	return &Clock{clockState: clockState{now: time.Date(2024, time.November, 17, 9, 0, 0, 0, time.UTC)}}
}

// Now returns the current virtual time.
func (c *Clock) Now() time.Time { return c.now }

// Timer is a handle for a scheduled callback.
type Timer struct {
	when    time.Time
	seq     uint64
	fn      func()
	stopped bool

	// c is the clock the timer was armed on and pos its index in that
	// clock's heap; pos is -1 when the timer is not pending.
	c   *Clock
	pos int
}

func timerLess(a, b *Timer) bool {
	if c := a.when.Compare(b.when); c != 0 {
		return c < 0
	}
	return a.seq < b.seq
}

// Stop cancels the timer, removing it from its clock's heap at once so
// abandoned timers (retransmits answered, leases renewed) cost nothing
// later. It is safe to call multiple times.
func (t *Timer) Stop() {
	if t == nil || t.stopped {
		return
	}
	t.stopped = true
	if t.pos >= 0 {
		t.c.timers.remove(t.pos)
	}
}

// AfterFunc schedules fn to run d after the current virtual time.
func (c *Clock) AfterFunc(d time.Duration, fn func()) *Timer {
	if c.stopped {
		return &Timer{stopped: true, pos: -1}
	}
	if d < 0 {
		d = 0
	}
	c.seq++
	t := &Timer{when: c.now.Add(d), seq: c.seq, fn: fn, c: c}
	c.timers.push(t)
	return t
}

// advance moves the clock forward to tm if tm is later than now.
func (c *Clock) advance(tm time.Time) {
	if tm.After(c.now) {
		c.now = tm
	}
}

// nextTimer returns the earliest pending timer without popping it, or nil.
func (c *Clock) nextTimer() *Timer {
	if len(c.timers) == 0 {
		return nil
	}
	return c.timers[0]
}

// popTimer removes and returns the earliest pending timer, advancing the
// clock to its deadline. Returns nil when no timers remain.
func (c *Clock) popTimer() *Timer {
	t := c.nextTimer()
	if t == nil {
		return nil
	}
	c.advance(t.when)
	c.timers.remove(0)
	return t
}

// dropAll removes every pending timer, leaving handles inert.
func (c *Clock) dropAll() {
	for _, t := range c.timers {
		t.pos = -1
	}
	clear(c.timers)
	c.timers = c.timers[:0]
}

// purge cancels every pending timer and refuses new ones until the
// owning Network restores its checkpoint.
func (c *Clock) purge() {
	c.stopped = true
	c.dropAll()
}

// timerHeap is a 4-ary min-heap over (when, seq) that keeps each
// timer's index in its pos field, so any timer can be removed in
// O(log n).
type timerHeap []*Timer

func (h *timerHeap) push(t *Timer) {
	*h = append(*h, t)
	h.siftUp(len(*h) - 1)
}

// remove takes the timer at index i out of the heap and marks it not
// pending. The hole it leaves moves down to a leaf along the earliest
// children, and the heap's last timer fills it from there and sifts
// up. That last timer is mostly among the latest, so it seldom moves,
// and the walk down saves a comparison with it at every level.
func (h *timerHeap) remove(i int) {
	old := *h
	old[i].pos = -1
	n := len(old) - 1
	last := old[n]
	old[n] = nil
	*h = old[:n]
	if i == n {
		return
	}
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		for ch := first + 1; ch < first+4 && ch < n; ch++ {
			if timerLess(old[ch], old[min]) {
				min = ch
			}
		}
		old[i] = old[min]
		old[i].pos = i
		i = min
	}
	old[i] = last
	h.siftUp(i)
}

// siftUp moves the timer at index i up to its place, shifting each
// timer it passes down one level.
func (h timerHeap) siftUp(i int) {
	t := h[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !timerLess(t, h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].pos = i
		i = parent
	}
	h[i] = t
	t.pos = i
}
