package hoststack

import (
	"bytes"
	"net/netip"

	"repro/internal/netsim"
	"repro/internal/packet"
)

// v4LimitedBroadcast is 255.255.255.255, hoisted out of the per-frame
// delivery path.
var v4LimitedBroadcast = netip.AddrFrom4([4]byte{255, 255, 255, 255})

func (h *Host) handleARP(f netsim.Frame) {
	var a packet.ARP
	if a.Decode(f.Payload) != nil {
		return
	}
	// Learn the sender opportunistically.
	if a.SenderIP.IsValid() && a.SenderIP != (netip.AddrFrom4([4]byte{})) {
		h.arpCache[a.SenderIP] = netsim.MAC(a.SenderMAC)
		h.flushARPPending(a.SenderIP)
	}
	if a.Op == packet.ARPRequest && h.ownsV4(a.TargetIP) {
		reply := &packet.ARP{
			Op:        packet.ARPReply,
			SenderMAC: h.NIC.MAC(),
			SenderIP:  a.TargetIP,
			TargetMAC: a.SenderMAC,
			TargetIP:  a.SenderIP,
		}
		h.NIC.Transmit(netsim.Frame{
			Dst: netsim.MAC(a.SenderMAC), EtherType: netsim.EtherTypeARP, Payload: reply.Marshal(),
		})
	}
}

func (h *Host) sendARPRequest(target netip.Addr) {
	req := &packet.ARP{
		Op:        packet.ARPRequest,
		SenderMAC: h.NIC.MAC(),
		SenderIP:  h.v4Addr,
		TargetIP:  target,
	}
	h.NIC.Transmit(netsim.Frame{Dst: netsim.Broadcast, EtherType: netsim.EtherTypeARP, Payload: req.Marshal()})
}

func (h *Host) flushARPPending(addr netip.Addr) {
	mac, ok := h.arpCache[addr]
	if !ok {
		return
	}
	for _, b := range h.arpPending[addr] {
		h.NIC.Transmit(netsim.Frame{Dst: mac, EtherType: netsim.EtherTypeIPv4, Payload: b})
	}
	delete(h.arpPending, addr)
}

// SendIPv4 routes and transmits an IPv4 packet, resolving the next hop
// via ARP (queueing the packet while resolution is in flight). When the
// host runs IPv6-only with a CLAT, the packet is translated to IPv6 and
// sent through the NAT64 instead. The packet is encoded into the host's
// send scratch, so p.Payload must not alias it.
func (h *Host) SendIPv4(p *packet.IPv4) error {
	if h.clat != nil && !h.v4Addr.IsValid() {
		var v6 packet.IPv6
		if err := h.clat.TranslateV4ToV6(p, &v6); err != nil {
			return err
		}
		return h.SendIPv6(&v6)
	}
	if !h.v4Addr.IsValid() {
		return errNoIPv4
	}
	nextHop := p.Dst
	if !h.v4Prefix.Contains(p.Dst) {
		if !h.v4Router.IsValid() {
			return errNoV4Route
		}
		nextHop = h.v4Router
	}
	if h.ownsV4(p.Dst) {
		// Loopback delivery. The payload usually sits in the send
		// scratch, which the receiving handler's own sends reuse while it
		// may still hold its payload, so it is delivered from a copy.
		lo := *p
		lo.Payload = bytes.Clone(p.Payload)
		h.deliverIPv4(&lo)
		return nil
	}
	h.l3Scratch = p.AppendTo(h.l3Scratch[:0])
	if mac, ok := h.arpCache[nextHop]; ok {
		h.NIC.Transmit(netsim.Frame{Dst: mac, EtherType: netsim.EtherTypeIPv4, Payload: h.l3Scratch})
		return nil
	}
	// The queued packet outlives this send, so it leaves the scratch.
	h.arpPending[nextHop] = append(h.arpPending[nextHop], bytes.Clone(h.l3Scratch))
	h.sendARPRequest(nextHop)
	return nil
}

func (h *Host) handleIPv4Frame(f netsim.Frame) {
	var p packet.IPv4
	if p.Decode(f.Payload) != nil {
		return
	}
	if !h.ownsV4(p.Dst) && p.Dst != v4LimitedBroadcast {
		return
	}
	h.deliverIPv4(&p)
}

func (h *Host) deliverIPv4(p *packet.IPv4) {
	switch p.Protocol {
	case packet.ProtoUDP:
		var u packet.UDP
		if u.Decode(p.Payload, p.Src, p.Dst) != nil {
			return
		}
		if handler, ok := h.udpBind[u.DstPort]; ok {
			handler(p.Src, u.SrcPort, p.Dst, u.Payload)
		}
	case packet.ProtoTCP:
		var tc packet.TCP
		if tc.Decode(p.Payload, p.Src, p.Dst) != nil {
			return
		}
		h.handleTCP(p.Src, p.Dst, &tc)
	case packet.ProtoICMP:
		h.handleICMPv4(p)
	}
}

func (h *Host) handleICMPv4(p *packet.IPv4) {
	var ic packet.ICMP
	if ic.DecodeV4(p.Payload) != nil {
		return
	}
	switch ic.Type {
	case packet.ICMPv4Echo:
		src := p.Dst
		if !h.ownsV4(src) {
			src = h.v4Addr
		}
		reply := &packet.IPv4{
			Protocol: packet.ProtoICMP, Src: src, Dst: p.Src,
			Payload: (&packet.ICMP{Type: packet.ICMPv4EchoReply, Body: ic.Body}).MarshalV4(),
		}
		_ = h.SendIPv4(reply)
	case packet.ICMPv4EchoReply:
		id, seq, data, err := packet.EchoFields(ic.Body)
		if err == nil {
			h.pongReceived(p.Src, id, seq, data)
		}
	}
}
