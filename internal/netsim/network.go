package netsim

import (
	"math/bits"
	"testing"
	"time"
)

// Frame is an Ethernet-style layer-2 frame. Payload holds an encoded
// layer-3 packet (ARP, IPv4 or IPv6).
//
// Payload ownership, one rule for every delivered frame: Transmit copies
// the payload into a buffer from the fabric's arena, and receivers
// decode that copy in place — the packet and ndp decoders return views
// (Payload, Options, Body) that alias it rather than copies. A delivered
// payload is read-only: a flood hands one shared copy to every port,
// and a decoded view may already be in another component's hands. The
// payload and its views are valid until HandleFrame returns; then the
// fabric takes the buffer back for a later frame. A receiver that keeps
// bytes past its HandleFrame call, or wants to write them, copies them
// first.
type Frame struct {
	Src       MAC
	Dst       MAC
	EtherType uint16
	Payload   []byte
}

// EtherType values used by the simulator.
const (
	EtherTypeIPv4 uint16 = 0x0800
	EtherTypeARP  uint16 = 0x0806
	EtherTypeIPv6 uint16 = 0x86dd
)

// FrameHandler receives frames delivered to a NIC.
type FrameHandler interface {
	HandleFrame(nic *NIC, f Frame)
}

// FrameHandlerFunc adapts a function to the FrameHandler interface.
type FrameHandlerFunc func(nic *NIC, f Frame)

// HandleFrame calls fn(nic, f).
func (fn FrameHandlerFunc) HandleFrame(nic *NIC, f Frame) { fn(nic, f) }

// DefaultLinkLatency is the per-hop delivery delay applied to frames.
const DefaultLinkLatency = 10 * time.Microsecond

// Network owns the virtual clock and the pending delivery queue. All
// frame deliveries and timer callbacks execute from Run/RunFor in a
// single goroutine, in deterministic (time, sequence) order.
//
// Pending work lives in three cooperating structures: the event heap
// (eventQueue) holds frame deliveries — per-frame deliveries, flood
// fan-outs and ring drain events; the Clock's timer heap holds armed
// timers; and per-link frame rings (ring.go) hold in-flight pristine
// unicast frames, each ring represented in the event heap by a single
// drain event keyed at its head frame's (when, seq). The scheduler
// (step) always executes the globally earliest occurrence across all
// three, with events winning ties against timers at equal timestamps
// and seq breaking ties between events, so delivery order is a total
// order independent of which structure the work sat in.
type Network struct {
	Clock *Clock

	// netState holds everything a run changes; Checkpoint saves a copy
	// in saved and Restore copies it back (checkpoint.go).
	netState
	saved *netState

	// queue holds the pending events; Restore drops them.
	queue eventQueue

	// ringsOff disables the unicast ring fast path (SetUnicastRings).
	ringsOff bool

	// arena holds the payload copies of frames in flight.
	arena payloadArena

	// fanoutFree recycles destination-set slices between fan-out events,
	// so a flood costs no slice allocation once warmed up.
	fanoutFree [][]*NIC
}

// netState is the part of a Network that a run changes: the MAC
// allocation watermark, the event sequence, the delivery statistics and
// the ring bookkeeping.
type netState struct {
	macs      MACAllocator
	seq       uint64
	frames    uint64 // total frames delivered
	dropped   uint64 // frames with no peer
	queuePeak int

	// Fault-injection counters (see Impairment).
	impairLost        uint64
	impairFlapDropped uint64

	// stopped marks a fabric that has been shut down with Stop: pending
	// work is discarded and new scheduling becomes a no-op until Restore.
	stopped bool

	fanoutEvents     uint64 // fan-out events executed
	fanoutDeliveries uint64 // frames delivered through fan-out events

	// Unicast ring fast path (see ring.go). ringNICs tracks every NIC
	// that allocated a ring and was not since released (ReleaseNIC), so
	// Stop and Restore can clear them.
	ringNICs      []*NIC
	ringFrames    uint64 // frames delivered through ring drains
	ringBatches   uint64 // ring drain events executed
	ringOverflows uint64 // frames bounced to the legacy path by a full ring
}

// event is one pending frame delivery on the fabric, ordered by (when,
// seq); callbacks are Clock timers, not events. A single delivery
// (dst != nil) carries its frame inline, so the hot path never
// allocates a closure. A fan-out delivery (dsts != nil) carries one
// shared payload and the whole destination set of a flooded frame in a
// single event. A ring drain (ringNIC != nil) carries no frame at all:
// it stands in for every frame queued in that NIC's link ring, keyed at
// the head frame's (when, seq).
type event struct {
	when    time.Time
	seq     uint64
	dst     *NIC
	dsts    []*NIC
	ringNIC *NIC
	frame   Frame
}

// eventQueue is a 4-ary min-heap over events keyed on (when, seq). A
// hand-rolled heap (rather than container/heap) avoids boxing every
// event in an interface on Push/Pop and lets the compare inline; the
// wider fan-out halves tree depth for the deep queues a large client
// population produces. It is not the only scheduler: armed timers live
// in the Clock's own timer heap and in-flight pristine unicast frames
// in per-link rings (ring.go), with step and drainRing interleaving all
// three sources into one global (when, seq) order — events before
// timers at equal instants.
type eventQueue []event

func (q eventQueue) less(i, j int) bool {
	if !q[i].when.Equal(q[j].when) {
		return q[i].when.Before(q[j].when)
	}
	return q[i].seq < q[j].seq
}

func (q *eventQueue) push(ev event) {
	*q = append(*q, ev)
	h := *q
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (q *eventQueue) pop() event {
	h := *q
	n := len(h)
	root := h[0]
	h[0] = h[n-1]
	h[n-1] = event{} // release the NIC and payload references
	h = h[:n-1]
	*q = h
	n--
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if h.less(c, min) {
				min = c
			}
		}
		if !h.less(min, i) {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	return root
}

// Payload buffers come in power-of-two size classes from
// payloadMinClass to payloadMaxClass bytes, so a small frame never pins
// a large buffer; a larger payload gets a buffer of its own.
const (
	payloadMinClass = 64
	payloadMaxClass = 8 << 10
	payloadClasses  = 8
)

// scribbleReleased makes the arena zero every buffer it takes back, so
// in a test binary a receiver that keeps a payload past its delivery
// reads garbage in every test instead of stale bytes that happen to be
// right.
var scribbleReleased = testing.Testing()

// payloadArena holds the per-hop copies of in-flight frame payloads.
// A copy lives for one delivery: Transmit and the flood path take a
// buffer from the free list of its size class, and the network puts it
// back when the delivery's last handler returns, or when Stop or
// Restore drops the frame (see Frame). The free lists belong to the
// network, so the buffers survive garbage collections, and a fabric
// that has carried its peak in-flight load once allocates no more.
type payloadArena struct {
	free [payloadClasses][][]byte

	served    uint64 // payload copies made
	reused    uint64 // copies served from a free list
	allocated uint64 // size-class buffers allocated
}

// sizeClass returns the free-list index for n bytes, n <= payloadMaxClass.
func sizeClass(n int) int { return bits.Len(uint(max(n, 1)-1) / payloadMinClass) }

// copyOf returns a copy of p in an arena buffer. Its capacity is the
// whole buffer, which release needs back; deliveries clip it.
func (a *payloadArena) copyOf(p []byte) []byte {
	a.served++
	if len(p) > payloadMaxClass {
		return append(make([]byte, 0, len(p)), p...)
	}
	c := sizeClass(len(p))
	var buf []byte
	if k := len(a.free[c]); k > 0 {
		a.reused++
		buf = a.free[c][k-1]
		a.free[c] = a.free[c][:k-1]
	} else {
		a.allocated++
		buf = make([]byte, payloadMinClass<<c)
	}
	return buf[:copy(buf, p)]
}

// release takes back a payload copyOf made, once nothing reads it.
func (a *payloadArena) release(p []byte) {
	p = p[:cap(p)]
	if scribbleReleased {
		clear(p)
	}
	if len(p) >= payloadMinClass && len(p) <= payloadMaxClass {
		c := sizeClass(len(p))
		a.free[c] = append(a.free[c], p)
	}
}

// Stats is a point-in-time snapshot of the fabric's hot-path counters,
// exposed for the benchmark harness.
type Stats struct {
	// QueuePeak is the deepest the event queue has ever been.
	QueuePeak int
	// FramesDelivered counts every frame delivered so far;
	// FramesDropped counts frames transmitted on unconnected NICs.
	FramesDelivered uint64
	FramesDropped   uint64
	// PayloadsServed counts per-hop payload copies served by the arena;
	// AllocsAvoided is how many of those reused a released buffer, and
	// PayloadBuffers counts the size-class buffers the arena allocated
	// (a payload over 8 KiB gets a buffer of its own, counted in none).
	PayloadsServed uint64
	AllocsAvoided  uint64
	PayloadBuffers uint64
	// FanoutEvents counts flood fan-out events (one per flooded frame);
	// FanoutDeliveries counts frames delivered through them. Their ratio
	// is the mean flood width served by a single shared payload.
	FanoutEvents     uint64
	FanoutDeliveries uint64
	// UnicastRingFrames counts frames delivered through per-link ring
	// drains; UnicastRingBatches counts the drain events that carried
	// them (their ratio is the mean batch width).
	UnicastRingFrames  uint64
	UnicastRingBatches uint64
	// FramesImpairLost / FramesImpairFlapDropped count the frames that
	// impaired links lost to Loss and to a flap (see Impairment).
	FramesImpairLost        uint64
	FramesImpairFlapDropped uint64
}

// Stats returns the current hot-path counters.
func (n *Network) Stats() Stats {
	return Stats{
		QueuePeak:          n.queuePeak,
		FramesDelivered:    n.frames,
		FramesDropped:      n.dropped,
		PayloadsServed:     n.arena.served,
		AllocsAvoided:      n.arena.reused,
		PayloadBuffers:     n.arena.allocated,
		FanoutEvents:       n.fanoutEvents,
		FanoutDeliveries:   n.fanoutDeliveries,
		UnicastRingFrames:  n.ringFrames,
		UnicastRingBatches: n.ringBatches,

		FramesImpairLost:        n.impairLost,
		FramesImpairFlapDropped: n.impairFlapDropped,
	}
}

// NewNetwork returns an empty fabric with a fresh virtual clock.
func NewNetwork() *Network {
	return &Network{Clock: NewClock()}
}

// AllocMAC returns a unique MAC address for a new interface.
func (n *Network) AllocMAC() MAC { return n.macs.Next() }

// NewNIC creates an unattached NIC owned by handler. The NIC must be
// connected with Connect before frames can flow.
func (n *Network) NewNIC(handler FrameHandler) *NIC {
	return &NIC{net: n, mac: n.AllocMAC(), handler: handler}
}

// Connect wires two NICs with a point-to-point link.
func (n *Network) Connect(a, b *NIC) {
	a.peer, b.peer = b, a
}

// scheduleFrame enqueues delivery of f to dst at virtual time now+d.
// The frame rides inside the event itself, so a delivery costs no
// closure allocation.
func (n *Network) scheduleFrame(d time.Duration, dst *NIC, f Frame) {
	if n.stopped {
		n.arena.release(f.Payload)
		return
	}
	if d < 0 {
		d = 0
	}
	n.seq++
	n.queue.push(event{when: n.Clock.Now().Add(d), seq: n.seq, dst: dst, frame: f})
	if len(n.queue) > n.queuePeak {
		n.queuePeak = len(n.queue)
	}
}

// takeFanout hands out a destination-set buffer for a flood fan-out,
// reusing a retired one when available.
func (n *Network) takeFanout() []*NIC {
	if k := len(n.fanoutFree); k > 0 {
		buf := n.fanoutFree[k-1]
		n.fanoutFree[k-1] = nil
		n.fanoutFree = n.fanoutFree[:k-1]
		return buf
	}
	return make([]*NIC, 0, 16)
}

// releaseFanout returns a destination-set buffer to the freelist.
func (n *Network) releaseFanout(buf []*NIC) {
	for i := range buf {
		buf[i] = nil
	}
	n.fanoutFree = append(n.fanoutFree, buf[:0])
}

// scheduleFanout enqueues one event delivering f to every NIC in dsts at
// virtual time now+d, in slice order. The payload is shared by every
// receiver — the flood costs one payload copy and one heap push no
// matter how many ports it reaches. Ownership of dsts passes to the
// fabric (it is recycled after delivery). A stopped fabric recycles the
// buffer and the payload immediately and delivers nothing.
func (n *Network) scheduleFanout(d time.Duration, dsts []*NIC, f Frame) {
	if n.stopped {
		n.releaseFanout(dsts)
		n.arena.release(f.Payload)
		return
	}
	if d < 0 {
		d = 0
	}
	n.seq++
	n.queue.push(event{when: n.Clock.Now().Add(d), seq: n.seq, dsts: dsts, frame: f})
	if len(n.queue) > n.queuePeak {
		n.queuePeak = len(n.queue)
	}
}

// run executes one popped delivery event. A frame's payload goes back
// to the arena once its last handler has returned.
func (n *Network) run(ev event) {
	if ev.dst != nil {
		n.deliver(ev.dst, ev.frame.clipped())
	} else {
		// The per-port body is deliver's, written out: a call per port
		// (deliver does not inline) costs a wide flood about a third.
		n.fanoutEvents++
		f := ev.frame.clipped()
		size := uint64(len(f.Payload))
		for _, dst := range ev.dsts {
			n.frames++
			n.fanoutDeliveries++
			dst.rxFrames++
			dst.rxBytes += size
			if dst.handler != nil {
				dst.handler.HandleFrame(dst, f)
			}
		}
		n.releaseFanout(ev.dsts)
	}
	n.arena.release(ev.frame.Payload)
}

// clipped returns f with its payload's capacity clipped to its length,
// as handlers see it, so an append cannot run into the rest of the
// arena buffer.
func (f Frame) clipped() Frame {
	f.Payload = f.Payload[:len(f.Payload):len(f.Payload)]
	return f
}

// deliver counts f and hands it to nc's handler.
func (n *Network) deliver(nc *NIC, f Frame) {
	n.frames++
	nc.rxFrames++
	nc.rxBytes += uint64(len(f.Payload))
	if nc.handler != nil {
		nc.handler.HandleFrame(nc, f)
	}
}

// dropPending discards every queued event and ring frame, returning
// their payload buffers and destination sets for reuse.
func (n *Network) dropPending() {
	for _, ev := range n.queue {
		if ev.dsts != nil {
			n.releaseFanout(ev.dsts)
		}
		n.arena.release(ev.frame.Payload)
	}
	n.queue = nil
	n.clearRings()
}

// step executes the single earliest pending event or timer. When
// useDeadline is set, events beyond deadline are left queued. It reports
// whether anything ran.
func (n *Network) step(deadline time.Time, useDeadline bool) bool {
	var evWhen time.Time
	haveEv := len(n.queue) > 0
	if haveEv {
		evWhen = n.queue[0].when
	}
	tm := n.Clock.nextTimer()

	runEvent := haveEv && (tm == nil || !evWhen.After(tm.when))
	switch {
	case !haveEv && tm == nil:
		return false
	case runEvent:
		if useDeadline && evWhen.After(deadline) {
			return false
		}
		ev := n.queue.pop()
		n.Clock.advance(ev.when)
		if ev.ringNIC != nil {
			n.drainRing(ev.ringNIC, deadline, useDeadline)
			return true
		}
		n.run(ev)
		return true
	default:
		if useDeadline && tm.when.After(deadline) {
			return false
		}
		t := n.Clock.popTimer()
		if t != nil {
			t.fn()
		}
		return true
	}
}

// Run drains every pending event and timer, advancing virtual time as
// needed, and returns when the fabric is quiescent. maxEvents guards
// against livelock from self-rearming timers; 0 means a generous default.
func (n *Network) Run(maxEvents int) int {
	if maxEvents <= 0 {
		maxEvents = 1 << 20
	}
	ran := 0
	for ran < maxEvents && n.step(time.Time{}, false) {
		ran++
	}
	return ran
}

// RunFor processes events until virtual time now+d is reached, then
// advances the clock to exactly that instant. Periodic timers that
// re-arm themselves (e.g. RA beacons) make Run unsuitable; RunFor bounds
// the simulation window instead.
func (n *Network) RunFor(d time.Duration) int {
	deadline := n.Clock.Now().Add(d)
	ran := 0
	for ran < 1<<22 && n.step(deadline, true) {
		ran++
	}
	n.Clock.advance(deadline)
	return ran
}

// RunUntil processes events until pred returns true or the fabric goes
// quiet within the supplied window. It reports whether pred became true.
// The window slides: any event inside it extends the wait, which is what
// keeps a paced long-lived transfer alive as long as data keeps flowing.
// For a hard timeout (res_send-style "answer within d or fail") use
// WaitUntil instead — under a periodic event source (RA beacons, lease
// timers) the sliding window never closes and a caller waiting on an
// answer that will never come would burn the full event budget.
func (n *Network) RunUntil(pred func() bool, window time.Duration) bool {
	for i := 0; i < 1<<22; i++ {
		if pred() {
			return true
		}
		if !n.step(n.Clock.Now().Add(window), true) {
			n.Clock.advance(n.Clock.Now().Add(window))
			return pred()
		}
	}
	return pred()
}

// WaitUntil processes events until pred returns true or virtual time
// now+timeout is reached. On timeout the clock lands exactly on the
// deadline, so a failed wait costs precisely its timeout in virtual
// time no matter how busy the fabric is — unrelated periodic events
// (beacons, expiry timers) cannot extend it the way they extend
// RunUntil's quiet window.
func (n *Network) WaitUntil(pred func() bool, timeout time.Duration) bool {
	deadline := n.Clock.Now().Add(timeout)
	for i := 0; i < 1<<22; i++ {
		if pred() {
			return true
		}
		if !n.step(deadline, true) {
			break
		}
	}
	if pred() {
		return true
	}
	n.Clock.advance(deadline)
	return pred()
}
