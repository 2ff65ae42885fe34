package hoststack

import "repro/internal/netsim"

// Checkpoint saves the host's state — addressing, neighbor and ARP
// caches, DHCP client state, socket tables, identifier sequences,
// counters and the event journal — and its NIC's flood-interest state
// for Restore. It is part of the testbed world-reuse lifecycle, and the
// host must be quiescent: no DHCP timer armed, no connection open, no
// resolution or ping in flight, which holds for infrastructure hosts
// with static configuration.
func (h *Host) Checkpoint() {
	h.saved = new(hostState)
	h.hostState.copyInto(h.saved)
	h.NIC.Checkpoint()
}

// Restore rewinds the host and its NIC to their checkpoint. Timers the
// run left armed must already be gone (the netsim clock restore drops
// them); connections, resolution queues and pings opened since are
// discarded.
func (h *Host) Restore() {
	h.saved.copyInto(&h.hostState)
	h.NIC.Restore()
}

func (s *hostState) copyInto(dst *hostState) {
	live := *dst
	*dst = *s
	dst.v6Addrs = append(live.v6Addrs[:0], s.v6Addrs...)
	dst.routers = append(live.routers[:0], s.routers...)
	dst.rdnss = append(live.rdnss[:0], s.rdnss...)
	dst.ndCache = netsim.RefillMap(live.ndCache, s.ndCache)
	dst.ndPending = netsim.RefillMap(live.ndPending, s.ndPending)
	dst.v4Aliases = append(live.v4Aliases[:0], s.v4Aliases...)
	dst.v4DNS = append(live.v4DNS[:0], s.v4DNS...)
	dst.arpCache = netsim.RefillMap(live.arpCache, s.arpCache)
	dst.arpPending = netsim.RefillMap(live.arpPending, s.arpPending)
	dst.clatPorts = netsim.RefillMap(live.clatPorts, s.clatPorts)
	dst.udpBind = netsim.RefillMap(live.udpBind, s.udpBind)
	dst.tcpConns = netsim.RefillMap(live.tcpConns, s.tcpConns)
	dst.listens = netsim.RefillMap(live.listens, s.listens)
	dst.accepts = netsim.RefillMap(live.accepts, s.accepts)
	dst.pings = netsim.RefillMap(live.pings, s.pings)
	dst.pmtu = netsim.RefillMap(live.pmtu, s.pmtu)
	dst.DNSOverride = append(live.DNSOverride[:0], s.DNSOverride...)
	dst.journal = append(live.journal[:0], s.journal...)
}
