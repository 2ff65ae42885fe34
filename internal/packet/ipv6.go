package packet

import (
	"fmt"
	"net/netip"
)

// IPv6 header constants.
const (
	IPv6HeaderLen       = 40
	IPv6DefaultHopLimit = 64
)

// IPv6 is a parsed IPv6 packet (RFC 8200). Extension headers are not
// modelled; NextHeader carries the upper-layer protocol directly, which
// matches every flow the testbed generates.
type IPv6 struct {
	TrafficClass uint8
	FlowLabel    uint32
	NextHeader   uint8
	HopLimit     uint8
	Src          netip.Addr
	Dst          netip.Addr
	Payload      []byte
}

// Marshal encodes the packet with the payload length computed.
func (p *IPv6) Marshal() []byte {
	b := make([]byte, IPv6HeaderLen+len(p.Payload))
	b[0] = 0x60 | p.TrafficClass>>4
	b[1] = p.TrafficClass<<4 | uint8(p.FlowLabel>>16&0x0f)
	b[2] = byte(p.FlowLabel >> 8)
	b[3] = byte(p.FlowLabel)
	put16(b[4:], uint16(len(p.Payload)))
	b[6] = p.NextHeader
	hl := p.HopLimit
	if hl == 0 {
		hl = IPv6DefaultHopLimit
	}
	b[7] = hl
	src, dst := p.Src.As16(), p.Dst.As16()
	copy(b[8:24], src[:])
	copy(b[24:40], dst[:])
	copy(b[40:], p.Payload)
	return b
}

// Decode decodes an IPv6 packet from b into p, verifying version and
// payload length. Payload aliases b (see the package doc); bytes past
// the payload length are ignored. On error p is left in an unspecified
// state.
func (p *IPv6) Decode(b []byte) error {
	if len(b) < IPv6HeaderLen {
		return fmt.Errorf("ipv6 header: %w", ErrTruncated)
	}
	if b[0]>>4 != 6 {
		return ErrBadVersion
	}
	end := IPv6HeaderLen + int(be16(b[4:]))
	if end > len(b) {
		return fmt.Errorf("ipv6 payload length %d: %w", end-IPv6HeaderLen, ErrTruncated)
	}
	*p = IPv6{
		TrafficClass: b[0]<<4 | b[1]>>4,
		FlowLabel:    uint32(b[1]&0x0f)<<16 | uint32(b[2])<<8 | uint32(b[3]),
		NextHeader:   b[6],
		HopLimit:     b[7],
		Src:          netip.AddrFrom16([16]byte(b[8:24])),
		Dst:          netip.AddrFrom16([16]byte(b[24:40])),
		Payload:      b[IPv6HeaderLen:end:end],
	}
	return nil
}

// SolicitedNodeMulticast returns the solicited-node multicast address
// ff02::1:ffXX:XXXX for a unicast IPv6 address (RFC 4291 §2.7.1).
func SolicitedNodeMulticast(a netip.Addr) netip.Addr {
	b := a.As16()
	var m [16]byte
	m[0], m[1] = 0xff, 0x02
	m[11], m[12] = 0x01, 0xff
	m[13], m[14], m[15] = b[13], b[14], b[15]
	return netip.AddrFrom16(m)
}

// MulticastMAC maps an IPv6 multicast address to its 33:33:xx MAC
// (RFC 2464 §7).
func MulticastMAC(a netip.Addr) [6]byte {
	b := a.As16()
	return [6]byte{0x33, 0x33, b[12], b[13], b[14], b[15]}
}
