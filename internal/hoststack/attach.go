package hoststack

import (
	"net/netip"

	"repro/internal/dhcp4"
	"repro/internal/dns"
	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/packet"
)

// AttachDNSServer binds a DNS resolver to UDP port 53 on the host (over
// both IPv4 and IPv6, whichever the host has addresses for).
func AttachDNSServer(h *Host, r dns.Resolver) {
	h.BindUDP(53, func(src netip.Addr, srcPort uint16, dst netip.Addr, payload []byte) {
		req, err := dnswire.Parse(payload)
		if err != nil || req.Response {
			return
		}
		resp := dns.RespondOrDrop(r, req)
		if resp == nil {
			// dns.ErrDrop: interference ate the query; stay silent so the
			// client times out instead of seeing SERVFAIL.
			return
		}
		wire, err := resp.Marshal()
		if err != nil {
			return
		}
		u := &packet.UDP{SrcPort: 53, DstPort: srcPort, Payload: wire}
		if src.Is4() {
			p := &packet.IPv4{Protocol: packet.ProtoUDP, TTL: 64, Src: dst, Dst: src, Payload: u.Marshal(dst, src)}
			_ = h.SendIPv4(p)
		} else {
			p := &packet.IPv6{NextHeader: packet.ProtoUDP, HopLimit: 64, Src: dst, Dst: src, Payload: u.Marshal(dst, src)}
			_ = h.SendIPv6(p)
		}
	})
}

// AttachDHCPServer binds a DHCPv4 server to UDP port 67 on the host.
// Replies are sent as link-layer unicast to the client's hardware
// address (broadcast when the client requested it), with the IP
// destination 255.255.255.255 since the client has no address yet.
func AttachDHCPServer(h *Host, srv *dhcp4.Server) {
	h.BindUDP(dhcp4.ServerPort, func(src netip.Addr, srcPort uint16, dst netip.Addr, payload []byte) {
		msg, err := dhcp4.Parse(payload)
		if err != nil {
			return
		}
		resp := srv.Handle(msg)
		if resp == nil {
			return
		}
		u := &packet.UDP{SrcPort: dhcp4.ServerPort, DstPort: dhcp4.ClientPort, Payload: resp.Marshal()}
		p := &packet.IPv4{
			Protocol: packet.ProtoUDP, TTL: 64, Src: h.v4Addr, Dst: v4LimitedBroadcast,
			Payload: u.Marshal(h.v4Addr, v4LimitedBroadcast),
		}
		dstMAC := netsim.MAC(resp.CHAddr)
		if resp.Broadcast {
			dstMAC = netsim.Broadcast
		}
		h.NIC.Transmit(netsim.Frame{Dst: dstMAC, EtherType: netsim.EtherTypeIPv4, Payload: p.Marshal()})
	})
}
