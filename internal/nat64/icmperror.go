package nat64

import (
	"fmt"
	"net/netip"

	"repro/internal/dns64"
	"repro/internal/packet"
)

// translateICMPv4Error converts an inbound ICMPv4 error message (e.g.
// destination unreachable, time exceeded) into the equivalent ICMPv6
// error per RFC 7915 §4.2, rebuilding the embedded original packet in
// its IPv6 form so the client's stack can match it to a socket. The
// result is written into out, whose Payload lives in the same scratch
// as TranslateV4ToV6's other results.
func (t *Translator) translateICMPv4Error(p *packet.IPv4, ic *packet.ICMP, out *packet.IPv6) error {
	// The body carries 4 unused/METADATA bytes then the embedded IPv4
	// header + ≥8 bytes of its payload.
	if len(ic.Body) < 4+packet.IPv4MinHeaderLen+8 {
		return fmt.Errorf("%w: short ICMPv4 error body", ErrUnsupported)
	}
	meta := ic.Body[:4]
	embedded := ic.Body[4:]
	inner, innerPayload, err := parseEmbeddedIPv4(embedded)
	if err != nil {
		return err
	}
	// The embedded packet is the one WE sent: src = our public address.
	if inner.Src != t.public {
		return ErrNoSession
	}
	extPort, dstPort, proto, err := embeddedPorts(inner, innerPayload)
	if err != nil {
		return err
	}
	s := t.table.Inbound(proto, extPort)
	if s == nil {
		t.DroppedNoSess++
		return ErrNoSession
	}

	// Rebuild the embedded packet as the client's original IPv6 packet.
	innerDstV6, err := dns64.Synthesize(t.prefix, inner.Dst)
	if err != nil {
		return err
	}
	innerV6 := &packet.IPv6{
		HopLimit: inner.TTL, Src: s.Src, Dst: innerDstV6,
	}
	switch proto {
	case packet.ProtoUDP:
		innerV6.NextHeader = packet.ProtoUDP
		innerV6.Payload = (&packet.UDP{SrcPort: s.SrcPort, DstPort: dstPort}).Marshal(innerV6.Src, innerV6.Dst)
	case packet.ProtoTCP:
		innerV6.NextHeader = packet.ProtoTCP
		innerV6.Payload = (&packet.TCP{SrcPort: s.SrcPort, DstPort: dstPort, Flags: packet.TCPSyn}).Marshal(innerV6.Src, innerV6.Dst)
	case packet.ProtoICMP:
		innerV6.NextHeader = packet.ProtoICMPv6
		innerV6.Payload = (&packet.ICMP{Type: packet.ICMPv6EchoRequest,
			Body: packet.EchoBody(s.SrcPort, 0, nil)}).MarshalV6(innerV6.Src, innerV6.Dst)
	}

	v6Type, v6Code, newMeta, ok := mapICMPErrorV4ToV6(ic.Type, ic.Code, meta)
	if !ok {
		return fmt.Errorf("%w: ICMPv4 error type %d code %d", ErrUnsupported, ic.Type, ic.Code)
	}
	srcV6, err := dns64.Synthesize(t.prefix, p.Src)
	if err != nil {
		return err
	}
	body := append(newMeta, innerV6.Marshal()...)
	*out = packet.IPv6{
		NextHeader: packet.ProtoICMPv6, HopLimit: p.TTL - 1,
		Src: srcV6, Dst: s.Src,
	}
	t.out46 = (&packet.ICMP{Type: v6Type, Code: v6Code, Body: body}).AppendToV6(t.out46[:0], out.Src, out.Dst)
	out.Payload = t.out46
	t.TranslatedIn++
	return nil
}

// ExhaustionUnreachable builds the ICMPv6 Destination Unreachable
// (code 3, address unreachable) a NAT64 emits toward the client when it
// cannot allocate a port for a new flow (RFC 6146 §3.5.1.1), embedding
// as much of the refused packet as fits so the sender's stack can match
// the error to its socket. src is the router address the error is
// sourced from (the gateway's LAN link-local).
func ExhaustionUnreachable(src netip.Addr, p *packet.IPv6) *packet.IPv6 {
	orig := p.Marshal()
	if len(orig) > 1200 {
		orig = orig[:1200]
	}
	body := append([]byte{0, 0, 0, 0}, orig...)
	out := &packet.IPv6{
		NextHeader: packet.ProtoICMPv6, HopLimit: 255,
		Src: src, Dst: p.Src,
	}
	out.Payload = (&packet.ICMP{
		Type: packet.ICMPv6DestUnreachable, Code: packet.ICMPv6CodeAddrUnreachable, Body: body,
	}).MarshalV6(out.Src, out.Dst)
	return out
}

// parseEmbeddedIPv4 decodes the truncated original datagram carried in
// an ICMP error (it may lack a full payload and a valid total length,
// and its transport checksum cannot be verified).
func parseEmbeddedIPv4(b []byte) (*packet.IPv4, []byte, error) {
	if len(b) < packet.IPv4MinHeaderLen {
		return nil, nil, fmt.Errorf("%w: embedded header", ErrUnsupported)
	}
	hlen := int(b[0]&0x0f) * 4
	if b[0]>>4 != 4 || hlen < packet.IPv4MinHeaderLen || len(b) < hlen {
		return nil, nil, fmt.Errorf("%w: embedded header", ErrUnsupported)
	}
	p := &packet.IPv4{
		TTL:      b[8],
		Protocol: b[9],
		Src:      netip.AddrFrom4([4]byte(b[12:16])),
		Dst:      netip.AddrFrom4([4]byte(b[16:20])),
	}
	return p, b[hlen:], nil
}

// embeddedPorts extracts (srcPort, dstPort, proto) from the truncated
// transport header of the embedded packet.
func embeddedPorts(inner *packet.IPv4, payload []byte) (uint16, uint16, uint8, error) {
	if len(payload) < 8 {
		return 0, 0, 0, fmt.Errorf("%w: embedded transport", ErrUnsupported)
	}
	switch inner.Protocol {
	case packet.ProtoUDP, packet.ProtoTCP:
		sp := uint16(payload[0])<<8 | uint16(payload[1])
		dp := uint16(payload[2])<<8 | uint16(payload[3])
		return sp, dp, inner.Protocol, nil
	case packet.ProtoICMP:
		// Echo: identifier at bytes 4-5 of the ICMP header.
		id := uint16(payload[4])<<8 | uint16(payload[5])
		return id, id, packet.ProtoICMP, nil
	default:
		return 0, 0, 0, fmt.Errorf("%w: embedded protocol %d", ErrUnsupported, inner.Protocol)
	}
}

// mapICMPErrorV4ToV6 maps (type, code) per RFC 7915 §4.2. meta is the
// 4-byte field after the checksum (the MTU for frag-needed).
func mapICMPErrorV4ToV6(typ, code uint8, meta []byte) (uint8, uint8, []byte, bool) {
	newMeta := []byte{0, 0, 0, 0}
	switch typ {
	case packet.ICMPv4DestUnreachable:
		switch code {
		case 0, 1, 5, 6, 7, 8, 11, 12:
			return packet.ICMPv6DestUnreachable, packet.ICMPv6CodeNoRoute, newMeta, true
		case 3:
			return packet.ICMPv6DestUnreachable, packet.ICMPv6CodePortUnreachable, newMeta, true
		case 4: // fragmentation needed -> Packet Too Big
			mtu := uint32(meta[2])<<8 | uint32(meta[3])
			if mtu < 1280 {
				mtu = 1280
			}
			newMeta = []byte{byte(mtu >> 24), byte(mtu >> 16), byte(mtu >> 8), byte(mtu)}
			return packet.ICMPv6PacketTooBig, 0, newMeta, true
		case 9, 10, 13:
			return packet.ICMPv6DestUnreachable, packet.ICMPv6CodeAdminProhibited, newMeta, true
		}
	case packet.ICMPv4TimeExceeded:
		return packet.ICMPv6TimeExceeded, code, newMeta, true
	}
	return 0, 0, nil, false
}
