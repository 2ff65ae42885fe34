package netsim

import (
	"sync"
	"time"
)

// Frame is an Ethernet-style layer-2 frame. Payload holds an encoded
// layer-3 packet (ARP, IPv4 or IPv6).
//
// Payload ownership, one rule for every delivered frame: Transmit copies
// the payload into the fabric's arena, and receivers decode that copy in
// place — the packet and ndp decoders return views (Payload, Options,
// Body) that alias it rather than copies. Receivers never write through
// a delivered payload or any view of it; a flood hands one copy to every
// port (Shared), and a decoded view may already be in another
// component's hands. The payload and its views stay valid until the
// fabric recycles its arena (RecycleArena, run by ResetTo). A
// receiver that keeps bytes past that point copies them; one that wants
// to write takes a copy first (Own or Clone).
type Frame struct {
	Src       MAC
	Dst       MAC
	EtherType uint16
	Payload   []byte

	// Shared marks a payload delivered to multiple receivers at once (a
	// switch flood fan-out carries one copy for every port), so a write
	// through it would reach every co-receiver; Own copies exactly these.
	Shared bool
}

// EtherType values used by the simulator.
const (
	EtherTypeIPv4 uint16 = 0x0800
	EtherTypeARP  uint16 = 0x0806
	EtherTypeIPv6 uint16 = 0x86dd
)

// Clone returns a deep copy of the frame so receivers may mutate payloads.
func (f Frame) Clone() Frame {
	p := make([]byte, len(f.Payload))
	copy(p, f.Payload)
	f.Payload = p
	f.Shared = false
	return f
}

// Own returns a frame whose payload is safe to mutate: a shared
// (fan-out) payload is copied, a private one — this hop's copy, held by
// no other receiver — is returned as-is, to be written only once the
// receiver's own decoded views of it are no longer in use. This is the
// copy-on-write half of the shared-payload flood path — only
// receivers that actually write pay for a copy.
func (f Frame) Own() Frame {
	if !f.Shared {
		return f
	}
	return f.Clone()
}

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
// Pending work lives in three cooperating structures: the global event
// heap (eventQueue) holds one-off occurrences — callbacks, legacy
// per-frame deliveries, flood fan-outs and ring drain events; the
// hierarchical timer wheel (Clock) holds armed timers; and per-link
// frame rings (ring.go) hold in-flight pristine unicast frames, each
// ring represented in the heap by a single drain event keyed at its
// head frame's (when, seq). The scheduler (step) always executes the
// globally earliest occurrence across all three, with events winning
// ties against timers at equal timestamps and seq breaking ties between
// events, so delivery order is a total order independent of which
// structure the work sat in.
type Network struct {
	Clock *Clock
	macs  MACAllocator

	queue     eventQueue
	seq       uint64
	frames    uint64 // total frames delivered
	dropped   uint64 // frames with no peer
	queuePeak int

	// Fault-injection counters (see Impairment).
	impairLost        uint64
	impairDuplicated  uint64
	impairReordered   uint64
	impairFlapDropped uint64

	// stopped marks a fabric that has been shut down with Stop: pending
	// work is discarded and new scheduling becomes a no-op until ResetTo.
	stopped bool

	arena payloadArena

	// fanoutFree recycles destination-set slices between fan-out events,
	// so a flood costs no slice allocation once warmed up.
	fanoutFree [][]*NIC

	fanoutEvents     uint64 // fan-out events executed
	fanoutDeliveries uint64 // frames delivered through fan-out events

	// Unicast ring fast path (see ring.go). ringNICs tracks every NIC
	// that allocated a ring and was not since released (ReleaseNIC), so
	// Stop/ResetTo can clear them; ringsOff disables the fast path
	// (SetUnicastRings).
	ringsOff      bool
	ringNICs      []*NIC
	ringFrames    uint64 // frames delivered through ring drains
	ringBatches   uint64 // ring drain events executed
	ringOverflows uint64 // frames bounced to the legacy path by a full ring
}

// event is one pending occurrence on the fabric, ordered by (when, seq).
// Frame deliveries are stored inline (dst != nil) so the hot path never
// allocates a closure; everything else carries a callback in fn. A
// fan-out delivery (dsts != nil) carries one shared payload and the
// whole destination set of a flooded frame in a single event. A ring
// drain (ringNIC != nil) carries no frame at all: it stands in for
// every frame queued in that NIC's link ring, keyed at the head frame's
// (when, seq).
type event struct {
	when    time.Time
	seq     uint64
	fn      func()
	dst     *NIC
	dsts    []*NIC
	ringNIC *NIC
	frame   Frame
}

// eventQueue is a 4-ary min-heap over events keyed on (when, seq). A
// hand-rolled heap (rather than container/heap) avoids boxing every
// event in an interface on Push/Pop and lets the compare inline; the
// wider fan-out halves tree depth for the deep queues a large client
// population produces. The heap is no longer the only scheduler: armed
// timers live in the Clock's hierarchical timer wheel and in-flight
// pristine unicast frames live in per-link rings (ring.go), with step
// and drainRing interleaving all three sources into one global
// (when, seq) order — events before timers at equal instants.
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
	h[n-1] = event{} // release fn/payload references
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

// arenaChunkSize is the bump-allocation block the payload arena carves
// frame copies from. Oversized payloads bypass the arena.
const arenaChunkSize = 32 << 10

// arenaMaxPayload bounds what the arena serves; larger payloads get a
// dedicated allocation so one jumbo frame cannot burn a whole chunk.
const arenaMaxPayload = arenaChunkSize / 4

// arenaMaxRetired bounds how many exhausted chunks are kept for
// RecycleArena; beyond it, chunks are dropped for the GC to reclaim.
const arenaMaxRetired = 8

// payloadArena bump-allocates per-hop frame payload copies out of
// pooled chunks, so delivering a frame costs one chunk allocation per
// ~hundreds of hops instead of one per hop. Chunks are sourced from a
// sync.Pool; exhausted chunks are parked on a retired list and only
// returned to the pool by an explicit RecycleArena call (ResetTo
// makes one), because receivers decode payloads in place and may
// hold the views until then (see Frame).
type payloadArena struct {
	pool    sync.Pool
	cur     []byte
	curRef  *[]byte
	retired []*[]byte

	chunksNew    uint64
	chunksReused uint64
	served       uint64
	servedBytes  uint64
	oversized    uint64
}

func (a *payloadArena) alloc(n int) []byte {
	if n > arenaMaxPayload {
		a.oversized++
		return make([]byte, n)
	}
	if len(a.cur) < n {
		if a.curRef != nil && len(a.retired) < arenaMaxRetired {
			a.retired = append(a.retired, a.curRef)
		}
		if ref, ok := a.pool.Get().(*[]byte); ok {
			a.chunksReused++
			a.curRef = ref
		} else {
			a.chunksNew++
			b := make([]byte, arenaChunkSize)
			a.curRef = &b
		}
		a.cur = *a.curRef
	}
	p := a.cur[:n:n]
	a.cur = a.cur[n:]
	a.served++
	a.servedBytes += uint64(n)
	return p
}

func (a *payloadArena) recycle() {
	for _, ref := range a.retired {
		a.pool.Put(ref)
	}
	a.retired = a.retired[:0]
}

// RecycleArena returns exhausted payload chunks to the arena's pool for
// reuse. The caller asserts that no previously delivered frame payload,
// nor any decoded view of one, is still referenced — e.g. between iterations of a benchmark or
// scenario sweep after the fabric has gone quiescent. Without explicit
// recycling the arena stays safe: retired chunks are simply left to the
// garbage collector.
func (n *Network) RecycleArena() { n.arena.recycle() }

// Stats is a point-in-time snapshot of the fabric's hot-path counters,
// exposed for the benchmark harness.
type Stats struct {
	// QueueDepth is the number of events currently pending.
	QueueDepth int
	// QueuePeak is the deepest the event queue has ever been.
	QueuePeak int
	// FramesDelivered / FramesDropped mirror the accessor methods.
	FramesDelivered uint64
	FramesDropped   uint64
	// PayloadsServed counts per-hop payload copies served by the arena;
	// AllocsAvoided is how many of those did not hit the Go allocator.
	PayloadsServed uint64
	AllocsAvoided  uint64
	// PayloadBytes is the total bytes bump-allocated for payload copies.
	PayloadBytes uint64
	// FanoutEvents counts flood fan-out events (one per flooded frame);
	// FanoutDeliveries counts frames delivered through them. Their ratio
	// is the mean flood width served by a single shared payload.
	FanoutEvents     uint64
	FanoutDeliveries uint64
	// UnicastRingFrames counts frames delivered through per-link ring
	// drains; UnicastRingBatches counts the drain events that carried
	// them (their ratio is the mean batch width). UnicastRingOverflows
	// counts frames a full ring bounced onto the legacy per-event path.
	UnicastRingFrames    uint64
	UnicastRingBatches   uint64
	UnicastRingOverflows uint64
	// ArenaChunksAllocated / ArenaChunksReused count 32 KiB chunk
	// fetches that missed / hit the sync.Pool.
	ArenaChunksAllocated uint64
	ArenaChunksReused    uint64
	// OversizedPayloads counts payloads too large for the arena.
	OversizedPayloads uint64
	// FramesImpairLost / FramesImpairDuplicated / FramesImpairReordered
	// / FramesImpairFlapDropped count fault-injection outcomes on
	// impaired links (see Impairment).
	FramesImpairLost        uint64
	FramesImpairDuplicated  uint64
	FramesImpairReordered   uint64
	FramesImpairFlapDropped uint64
}

// Stats returns the current hot-path counters.
func (n *Network) Stats() Stats {
	allocs := n.arena.chunksNew + n.arena.oversized
	avoided := uint64(0)
	if n.arena.served > allocs {
		avoided = n.arena.served - allocs
	}
	return Stats{
		QueueDepth:           len(n.queue),
		QueuePeak:            n.queuePeak,
		FramesDelivered:      n.frames,
		FramesDropped:        n.dropped,
		PayloadsServed:       n.arena.served,
		AllocsAvoided:        avoided,
		PayloadBytes:         n.arena.servedBytes,
		FanoutEvents:         n.fanoutEvents,
		FanoutDeliveries:     n.fanoutDeliveries,
		UnicastRingFrames:    n.ringFrames,
		UnicastRingBatches:   n.ringBatches,
		UnicastRingOverflows: n.ringOverflows,
		ArenaChunksAllocated: n.arena.chunksNew,
		ArenaChunksReused:    n.arena.chunksReused,
		OversizedPayloads:    n.arena.oversized,

		FramesImpairLost:        n.impairLost,
		FramesImpairDuplicated:  n.impairDuplicated,
		FramesImpairReordered:   n.impairReordered,
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
func (n *Network) NewNIC(name string, handler FrameHandler) *NIC {
	return &NIC{net: n, name: name, mac: n.AllocMAC(), handler: handler}
}

// Connect wires two NICs with a point-to-point link.
func (n *Network) Connect(a, b *NIC) {
	a.peer, b.peer = b, a
}

// schedule enqueues fn to run at virtual time now+d.
func (n *Network) schedule(d time.Duration, fn func()) {
	if n.stopped {
		return
	}
	if d < 0 {
		d = 0
	}
	n.seq++
	n.queue.push(event{when: n.Clock.Now().Add(d), seq: n.seq, fn: fn})
	if len(n.queue) > n.queuePeak {
		n.queuePeak = len(n.queue)
	}
}

// scheduleFrame enqueues delivery of f to dst at virtual time now+d.
// The frame rides inside the event itself, so a delivery costs no
// closure allocation.
func (n *Network) scheduleFrame(d time.Duration, dst *NIC, f Frame) {
	if n.stopped {
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
// buffer immediately and delivers nothing.
func (n *Network) scheduleFanout(d time.Duration, dsts []*NIC, f Frame) {
	if n.stopped {
		n.releaseFanout(dsts)
		return
	}
	if d < 0 {
		d = 0
	}
	f.Shared = true
	n.seq++
	n.queue.push(event{when: n.Clock.Now().Add(d), seq: n.seq, dsts: dsts, frame: f})
	if len(n.queue) > n.queuePeak {
		n.queuePeak = len(n.queue)
	}
}

// FramesDelivered reports the total number of frames delivered so far.
func (n *Network) FramesDelivered() uint64 { return n.frames }

// FramesDropped reports frames transmitted on unconnected NICs.
func (n *Network) FramesDropped() uint64 { return n.dropped }

// run executes one popped event.
func (n *Network) run(ev event) {
	if ev.dst != nil {
		n.frames++
		ev.dst.rxFrames++
		ev.dst.rxBytes += uint64(len(ev.frame.Payload))
		if ev.dst.handler != nil {
			ev.dst.handler.HandleFrame(ev.dst, ev.frame)
		}
		return
	}
	if ev.dsts != nil {
		n.fanoutEvents++
		size := uint64(len(ev.frame.Payload))
		for _, dst := range ev.dsts {
			n.frames++
			n.fanoutDeliveries++
			dst.rxFrames++
			dst.rxBytes += size
			if dst.handler != nil {
				dst.handler.HandleFrame(dst, ev.frame)
			}
		}
		n.releaseFanout(ev.dsts)
		return
	}
	ev.fn()
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
