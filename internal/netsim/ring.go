package netsim

import (
	"slices"
	"time"
)

// This file is the unicast fast path: per-link frame rings with a
// single amortized drain event per link.
//
// The legacy path costs one heap push and one heap pop per frame — fine
// for control-plane chatter, ruinous for sustained flows where one TCP
// send bursts dozens of MSS-sized segments onto the same link at one
// virtual instant. A ring turns that into K ring writes plus a single
// scheduled event: frames bound for one NIC queue in transmit order in
// a fixed-capacity circular buffer, and one drain event — keyed at the
// head frame's exact (when, seq) — represents the whole ring in the
// global event heap.
//
// Determinism is preserved exactly, not approximately. Every frame
// keeps the (when, seq) it would have carried as its own heap event,
// and the drain only delivers consecutive ring frames while each is
// still the globally earliest pending occurrence (earlier than the
// heap top under the event comparator, no earlier timer, within the
// caller's deadline). The moment anything else is due first, the drain
// re-arms itself at the next frame's exact (when, seq) and yields. The
// observable delivery sequence is therefore bit-identical to the
// per-frame path — the property TestRingOverflowBackpressureOracle and
// TestUnicastRingMatchesLegacyOrder pin against a brute-force oracle.
//
// Impaired links never enter a ring: loss/jitter/reorder draws assign
// per-frame delays, which would break the ring's sorted-order invariant
// and, worse, change the PRNG draw order chaos runs are keyed on. They
// stay on the legacy scheduleFrame path (see NIC.Transmit), as does any
// frame arriving at a full ring — overflow is backpressure onto the
// global heap, not a drop.

// ringInitCapacity is the size a link's ring starts at: most links
// carry sparse control-plane chatter and never batch, so they should
// not pay for burst-sized storage (a large topology has hundreds of
// NICs). Rings grow geometrically up to ringMaxCapacity the first time
// a burst fills them; ringMaxCapacity comfortably holds the largest
// single-instant burst the stack produces (a 64 KiB TCP send segments
// into ~46 MSS frames), and anything beyond it overflows harmlessly
// onto the legacy per-event path. Both are powers of two — slot
// arithmetic masks with len(ring)-1.
const (
	ringInitCapacity = 8
	ringMaxCapacity  = 128
)

// inflight is one ring slot: a frame plus the (when, seq) key it would
// have carried as a standalone heap event.
type inflight struct {
	when  time.Time
	seq   uint64
	frame Frame
}

// SetUnicastRings enables or disables the per-link ring fast path
// (enabled by default). Disabling routes every future pristine unicast
// frame through the legacy one-event-per-frame scheduler — the knob the
// heavy-traffic benchmark uses to measure the ring win, and a debugging
// escape hatch. Frames already sitting in rings still drain normally;
// delivery order is identical either way.
func (n *Network) SetUnicastRings(enabled bool) { n.ringsOff = !enabled }

// UnicastRingsEnabled reports whether the ring fast path is active.
func (n *Network) UnicastRingsEnabled() bool { return !n.ringsOff }

// scheduleFrameRing enqueues delivery of f to dst after the standard
// link latency, riding the per-link ring when possible. The frame is
// assigned the same (when, seq) it would have received from the legacy
// scheduler, so the global delivery order is unchanged.
func (n *Network) scheduleFrameRing(dst *NIC, f Frame) {
	if n.stopped {
		n.arena.release(f.Payload)
		return
	}
	if n.ringsOff {
		n.scheduleFrame(DefaultLinkLatency, dst, f)
		return
	}
	if dst.ring == nil {
		dst.ring = make([]inflight, ringInitCapacity)
		n.ringNICs = append(n.ringNICs, dst)
	} else if dst.ringCount == len(dst.ring) {
		if len(dst.ring) == ringMaxCapacity {
			// Backpressure: the ring is full, so this frame becomes its
			// own heap event. Its seq is still allocated after every
			// ringed frame's, so ordering is unaffected.
			n.ringOverflows++
			n.scheduleFrame(DefaultLinkLatency, dst, f)
			return
		}
		dst.growRing()
	}
	n.seq++
	slot := (dst.ringHead + dst.ringCount) & (len(dst.ring) - 1)
	dst.ring[slot] = inflight{when: n.Clock.Now().Add(DefaultLinkLatency), seq: n.seq, frame: f}
	dst.ringCount++
	if dst.ringCount == 1 && !dst.ringDraining {
		// First frame on an idle link: arm the drain event at this
		// frame's exact key. Later frames share the event.
		n.queue.push(event{when: dst.ring[slot].when, seq: n.seq, ringNIC: dst})
		if len(n.queue) > n.queuePeak {
			n.queuePeak = len(n.queue)
		}
	}
}

// growRing doubles a full ring's capacity, unwrapping the queued frames
// into transmit order at the front of the new storage. Growth happens at
// most log2(ringMaxCapacity/ringInitCapacity) times per link, ever.
func (nc *NIC) growRing() {
	old := nc.ring
	grown := make([]inflight, 2*len(old))
	for i := 0; i < nc.ringCount; i++ {
		grown[i] = old[(nc.ringHead+i)&(len(old)-1)]
	}
	nc.ring = grown
	nc.ringHead = 0
}

// drainRing delivers ring frames for nc, starting with the head frame
// whose (when, seq) the just-popped drain event carried — that frame is
// globally minimal by construction. Subsequent frames deliver in the
// same batch only while they remain globally minimal; the first frame
// that is not (a heap event or timer is due first, or it lies beyond
// the caller's deadline) re-arms the drain at its exact key and the
// loop yields back to the main scheduler.
func (n *Network) drainRing(nc *NIC, deadline time.Time, useDeadline bool) {
	n.ringBatches++
	nc.ringDraining = true
	for {
		slot := &nc.ring[nc.ringHead]
		f := slot.frame
		when := slot.when
		slot.frame = Frame{} // the slot no longer owns the payload
		nc.ringHead = (nc.ringHead + 1) & (len(nc.ring) - 1)
		nc.ringCount--
		n.Clock.advance(when)
		n.ringFrames++
		n.deliver(nc, f.clipped())
		n.arena.release(f.Payload)
		if n.stopped {
			// Stop ran inside the handler: rings were cleared, nothing to
			// re-arm.
			nc.ringDraining = false
			return
		}
		if nc.ringCount == 0 {
			nc.ringDraining = false
			return
		}
		next := &nc.ring[nc.ringHead]
		if useDeadline && next.when.After(deadline) {
			break
		}
		if len(n.queue) > 0 {
			top := &n.queue[0]
			if top.when.Before(next.when) || (top.when.Equal(next.when) && top.seq < next.seq) {
				break
			}
		}
		// Events win ties against timers (see step), so only a strictly
		// earlier timer interrupts the batch.
		if tm := n.Clock.nextTimer(); tm != nil && tm.when.Before(next.when) {
			break
		}
	}
	nc.ringDraining = false
	head := &nc.ring[nc.ringHead]
	n.queue.push(event{when: head.when, seq: head.seq, ringNIC: nc})
	if len(n.queue) > n.queuePeak {
		n.queuePeak = len(n.queue)
	}
}

// clearRings empties every allocated link ring, returning the queued
// payloads to the arena. Called from Stop and Restore; the ring storage
// itself stays allocated so a reused fabric does not pay the warm-up
// again.
func (n *Network) clearRings() {
	for _, nc := range n.ringNICs {
		for i := range nc.ring {
			n.arena.release(nc.ring[i].frame.Payload)
			nc.ring[i] = inflight{}
		}
		nc.ringHead, nc.ringCount = 0, 0
		nc.ringDraining = false
	}
}

// ReleaseNIC drops nc from the ring bookkeeping once it will carry no
// more traffic (a parked fabric client's NIC). Without it the list
// keeps nc, and the Host its handler belongs to, reachable until the
// next Restore. A NIC with frames still queued stays registered; a
// released NIC that receives again allocates and registers a new ring.
func (n *Network) ReleaseNIC(nc *NIC) {
	if nc.ring == nil || nc.ringCount > 0 {
		return
	}
	for i := len(n.ringNICs) - 1; i >= 0; i-- {
		if n.ringNICs[i] == nc {
			n.ringNICs = slices.Delete(n.ringNICs, i, i+1)
			break
		}
	}
	nc.ring = nil
}
