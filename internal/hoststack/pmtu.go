package hoststack

import (
	"net/netip"

	"repro/internal/packet"
)

// Path MTU discovery (RFC 8201): hosts start from the link MTU and
// shrink per-destination when ICMPv6 Packet Too Big arrives, then
// retransmit the affected TCP segments re-split to the new size.

// defaultLinkMTU is the assumed on-link MTU.
const defaultLinkMTU = 1500

// minIPv6MTU is the protocol minimum (RFC 8200 §5).
const minIPv6MTU = 1280

// PathMTU returns the cached path MTU toward dst.
func (h *Host) PathMTU(dst netip.Addr) int {
	if m, ok := h.pmtu[dst]; ok {
		return m
	}
	return defaultLinkMTU
}

// tcpMaxPayload derives the usable TCP payload size toward dst.
func (h *Host) tcpMaxPayload(dst netip.Addr) int {
	ipHdr := packet.IPv6HeaderLen
	if dst.Is4() {
		ipHdr = packet.IPv4MinHeaderLen
	}
	return h.PathMTU(dst) - ipHdr - packet.TCPMinHeaderLen
}

// handlePacketTooBig processes an ICMPv6 PTB: shrink the cached PMTU and
// retransmit affected TCP segments.
func (h *Host) handlePacketTooBig(ic *packet.ICMP) {
	if len(ic.Body) < 4+packet.IPv6HeaderLen {
		return
	}
	mtu := int(uint32(ic.Body[0])<<24 | uint32(ic.Body[1])<<16 | uint32(ic.Body[2])<<8 | uint32(ic.Body[3]))
	if mtu < minIPv6MTU {
		mtu = minIPv6MTU
	}
	// The embedded packet is ours: header fields are enough (payload may
	// be truncated, so avoid the strict parser).
	emb := ic.Body[4:]
	if emb[0]>>4 != 6 {
		return
	}
	dst := netip.AddrFrom16([16]byte(emb[24:40]))
	if cur := h.PathMTU(dst); mtu >= cur {
		return // stale or non-shrinking PTB: ignore (loop guard)
	}
	h.pmtu[dst] = mtu
	h.record(evPMTU, dst, mtu)

	if emb[6] != packet.ProtoTCP || len(emb) < packet.IPv6HeaderLen+8 {
		return
	}
	tcpHdr := emb[packet.IPv6HeaderLen:]
	srcPort := uint16(tcpHdr[0])<<8 | uint16(tcpHdr[1])
	dstPort := uint16(tcpHdr[2])<<8 | uint16(tcpHdr[3])
	seq := uint32(tcpHdr[4])<<24 | uint32(tcpHdr[5])<<16 | uint32(tcpHdr[6])<<8 | uint32(tcpHdr[7])
	key := tcpKey{remote: dst, remotePort: dstPort, localPort: srcPort}
	if c, ok := h.tcpConns[key]; ok {
		c.resendFrom(seq)
	}
}
