package hoststack

import (
	"net/netip"

	"repro/internal/packet"
)

// handleDestUnreachable processes an ICMPv6 Destination Unreachable
// error — a NAT64 out of ports (RFC 6146 §3.5.1.1), a router with no
// route — by matching the embedded original packet to an in-handshake
// TCP connection and failing it immediately, so DialTCP returns
// ErrUnreachable at error arrival instead of riding out the full SYN
// timeout. Only connections still in syn-sent are torn down: an error
// for an established flow may be transient (a flapping translator) and
// TCP's retransmission already covers it. Legacy sockets behind the
// CLAT key their connections by the IPv4 remote, so the v6-embedded
// lookup misses and they keep the slow timeout path — matching how
// 464XLAT hosts really experience exhaustion.
func (h *Host) handleDestUnreachable(ic *packet.ICMP) {
	if len(ic.Body) < 4+packet.IPv6HeaderLen+8 {
		return
	}
	// The embedded packet is ours; it may be truncated, so read header
	// fields directly instead of the strict parser.
	emb := ic.Body[4:]
	if emb[0]>>4 != 6 {
		return
	}
	dst := netip.AddrFrom16([16]byte(emb[24:40]))
	if emb[6] != packet.ProtoTCP || len(emb) < packet.IPv6HeaderLen+4 {
		return
	}
	tcpHdr := emb[packet.IPv6HeaderLen:]
	srcPort := uint16(tcpHdr[0])<<8 | uint16(tcpHdr[1])
	dstPort := uint16(tcpHdr[2])<<8 | uint16(tcpHdr[3])
	key := tcpKey{remote: dst, remotePort: dstPort, localPort: srcPort}
	c, ok := h.tcpConns[key]
	if !ok || c.state != tcpSynSent {
		return
	}
	c.refused = true
	c.state = tcpClosed
	h.UnreachRcvd++
	h.record(evTCPUnreachable, dst, dstPort, ic.Code)
}
