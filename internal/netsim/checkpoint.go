package netsim

import (
	"maps"
	"slices"
)

// This file is the fabric half of the world-reuse lifecycle
// (testbed.Reset). Network, Clock, Switch and NIC each keep what a run
// changes in one state struct; Checkpoint saves a copy of it inside the
// component and Restore copies it back, so a pooled world replays
// client bring-up byte-identically to a freshly built one (every MAC,
// every flood decision and every same-instant ordering tie comes out
// the same). Pending events, timers and ring contents are not state:
// Restore drops them and re-arms the timers that were pending at the
// checkpoint, so device owners never re-arm their periodic timers.
//
// Every checkpointed component in the repository follows the same
// shape (DESIGN.md §3h). One copyInto method per state struct serves
// both directions: a plain struct assignment copies the value fields,
// then each map and slice is copied by hand into storage the
// destination already holds (RefillMap, or append onto a truncated
// slice). Restore therefore allocates nothing once a world has run one
// cycle, and no map or slice is ever shared between the live state and
// its saved copy.

// RefillMap makes dst hold exactly src's entries, reusing dst's
// storage, and returns it. It allocates only when dst is nil and src is
// not empty.
func RefillMap[M ~map[K]V, K comparable, V any](dst, src M) M {
	if dst == nil {
		if len(src) == 0 {
			return nil
		}
		return maps.Clone(src)
	}
	clear(dst)
	maps.Copy(dst, src)
	return dst
}

// refill makes dst hold a copy of src's elements in dst's storage and
// returns it. Elements past src's length are zeroed first, so the
// pointers they held do not stay reachable through dst's backing array.
func refill[S ~[]E, E any](dst, src S) S {
	if len(dst) > len(src) {
		clear(dst[len(src):])
	}
	return append(dst[:0], src...)
}

// Checkpoint saves the fabric's state at the current quiescent instant
// — clock position, sequence counters, statistics, the MAC allocation
// watermark and the ring-NIC list — and the timers pending then, for
// Restore.
func (n *Network) Checkpoint() {
	n.saved = new(netState)
	n.netState.copyInto(n.saved)
	n.Clock.checkpoint()
}

// Restore rewinds the fabric to its checkpoint: pending events, timers
// and ring contents are dropped, counters and sequence numbers restore,
// the MAC allocator rewinds so the next allocation repeats the first
// post-checkpoint one, the virtual clock lands on exactly the
// checkpoint instant, and the timers pending at the checkpoint are
// armed again. NICs registered for ring service since are forgotten
// (their owners are expected to be discarded by the caller); earlier
// rings keep their warmed-up storage.
func (n *Network) Restore() {
	n.dropPending()
	// A NIC that took a ring since the checkpoint drops out of the ring
	// list below, so it gives the ring up too: its next frame then
	// registers it again, and the next Restore clears it. Left holding
	// the ring unlisted, it would keep frames in flight at a Reset, and
	// every later frame would queue behind them, never delivered.
	for _, nc := range n.ringNICs {
		if !slices.Contains(n.saved.ringNICs, nc) {
			nc.ring = nil
		}
	}
	n.saved.copyInto(&n.netState)
	n.Clock.restore()
}

func (s *netState) copyInto(dst *netState) {
	live := *dst
	*dst = *s
	dst.ringNICs = refill(live.ringNICs, s.ringNICs)
}

// checkpoint saves the clock's position and sequence counter, and
// copies the heap of pending timers into armed.
func (c *Clock) checkpoint() {
	saved := c.clockState
	c.saved = &saved
	c.armed = refill(c.armed, c.timers)
}

// restore drops every pending timer, rewinds to the checkpoint and
// pushes the timers that were pending then (in a built world, the RA
// beacons) back onto the heap. They keep their deadline and arm
// sequence, so they fire in the same order against later timers as in
// a fresh world, and the clock's sequence counter needs no adjustment.
func (c *Clock) restore() {
	c.dropAll()
	c.clockState = *c.saved
	for _, t := range c.armed {
		t.stopped = false
		c.timers.push(t)
	}
}

// Checkpoint saves the switch's state: its port and filter tables, the
// learned MAC table, the snooped interest bitsets and group membership,
// the free-slot list and the counters.
func (s *Switch) Checkpoint() {
	s.saved = new(switchState)
	s.switchState.copyInto(s.saved)
}

// Restore rewinds the switch to its checkpoint. Ports attached since
// are uncabled and their slots dropped, and filters added since are
// removed. Slots that were detached (parked) at the checkpoint are
// uncabled again, even if a later tenant reused them.
func (s *Switch) Restore() {
	for i, port := range s.ports {
		if i >= len(s.saved.ports) || s.saved.detached.has(i) {
			port.unplug()
		}
	}
	s.saved.copyInto(&s.switchState)
}

func (s *switchState) copyInto(dst *switchState) {
	live := *dst
	*dst = *s
	dst.ports = refill(live.ports, s.ports)
	dst.table = RefillMap(live.table, s.table)
	dst.filters = refill(live.filters, s.filters)
	dst.restricted = append(live.restricted[:0], s.restricted...)
	dst.wantARP = append(live.wantARP[:0], s.wantARP...)
	dst.wantIPv4 = append(live.wantIPv4[:0], s.wantIPv4...)
	dst.wantIPv6 = append(live.wantIPv6[:0], s.wantIPv6...)
	dst.trunks = append(live.trunks[:0], s.trunks...)
	dst.freePorts = append(live.freePorts[:0], s.freePorts...)
	dst.detached = append(live.detached[:0], s.detached...)

	// Group port sets change in place, so each is copied into a set
	// dst owns, reusing dst's set for the same group.
	groups := live.groups
	if groups == nil && len(s.groups) > 0 {
		groups = make(map[MAC]*portSet, len(s.groups))
	}
	for g := range groups {
		if s.groups[g] == nil {
			delete(groups, g)
		}
	}
	for g, ps := range s.groups {
		d := groups[g]
		if d == nil {
			d = new(portSet)
			groups[g] = d
		}
		*d = append((*d)[:0], *ps...)
	}
	dst.groups = groups
}

// unplug uncables a port NIC from whatever it is cabled to.
func (nc *NIC) unplug() {
	if nc.peer != nil {
		nc.peer.peer = nil
		nc.peer = nil
	}
}

// Checkpoint saves the NIC's flood-interest declarations and frame
// counters. The device that owns the NIC calls it from its own
// Checkpoint.
func (nc *NIC) Checkpoint() {
	nc.saved = new(nicState)
	nc.nicState.copyInto(nc.saved)
}

// Restore rewinds the NIC's flood-interest declarations and frame
// counters to its checkpoint. The switch it is cabled to restores its
// snooped copy of the same declarations, so both sides agree again.
func (nc *NIC) Restore() {
	nc.saved.copyInto(&nc.nicState)
}

func (s *nicState) copyInto(dst *nicState) {
	live := *dst
	*dst = *s
	dst.groups = RefillMap(live.groups, s.groups)
}
