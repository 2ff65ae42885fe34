package gateway5g

import "repro/internal/netsim"

// Checkpoint saves the gateway's state — reboot history, neighbor
// caches, RA lifetime overrides and counters — together with that of
// its NICs, its built-in DHCP server and both translators. It is part
// of the testbed world-reuse lifecycle. The pending RA beacon is the
// network clock's to save and re-arm, and the raDown pathology gate is
// configuration wired at install time: gates are pure functions of the
// virtual clock, so restoring the clock restores their phase.
func (g *Gateway) Checkpoint() {
	g.saved = new(gatewayState)
	g.gatewayState.copyInto(g.saved)
	g.lan.Checkpoint()
	g.wan.Checkpoint()
	g.DHCP.Checkpoint()
	g.NAT44.Checkpoint()
	g.NAT64.Checkpoint()
}

// Restore rewinds the gateway to its checkpoint.
func (g *Gateway) Restore() {
	g.saved.copyInto(&g.gatewayState)
	g.lan.Restore()
	g.wan.Restore()
	g.DHCP.Restore()
	g.NAT44.Restore()
	g.NAT64.Restore()
}

func (s *gatewayState) copyInto(dst *gatewayState) {
	live := *dst
	*dst = *s
	dst.arp = netsim.RefillMap(live.arp, s.arp)
	dst.nd = netsim.RefillMap(live.nd, s.nd)
}
