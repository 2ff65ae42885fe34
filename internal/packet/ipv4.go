package packet

import (
	"errors"
	"fmt"
	"net/netip"
)

// IP protocol numbers used across the testbed.
const (
	ProtoICMP   uint8 = 1
	ProtoTCP    uint8 = 6
	ProtoUDP    uint8 = 17
	ProtoICMPv6 uint8 = 58
)

// IPv4 header constants.
const (
	IPv4MinHeaderLen = 20
	IPv4DefaultTTL   = 64
)

var (
	// ErrTruncated reports a buffer too short for the claimed structure.
	ErrTruncated = errors.New("packet: truncated")
	// ErrBadVersion reports an IP version mismatch.
	ErrBadVersion = errors.New("packet: bad IP version")
	// ErrBadChecksum reports a failed checksum verification.
	ErrBadChecksum = errors.New("packet: bad checksum")
)

// IPv4 is a parsed IPv4 packet (RFC 791). Options are preserved opaquely.
type IPv4 struct {
	TOS      uint8
	ID       uint16
	DontFrag bool
	MoreFrag bool
	FragOff  uint16 // in 8-byte units
	TTL      uint8
	Protocol uint8
	Src      netip.Addr
	Dst      netip.Addr
	Options  []byte
	Payload  []byte
}

// Marshal encodes the packet, computing total length and header checksum.
func (p *IPv4) Marshal() []byte {
	optLen := (len(p.Options) + 3) &^ 3
	hlen := IPv4MinHeaderLen + optLen
	total := hlen + len(p.Payload)
	b := make([]byte, total)
	b[0] = 0x40 | uint8(hlen/4)
	b[1] = p.TOS
	put16(b[2:], uint16(total))
	put16(b[4:], p.ID)
	flags := p.FragOff & 0x1fff
	if p.DontFrag {
		flags |= 0x4000
	}
	if p.MoreFrag {
		flags |= 0x2000
	}
	put16(b[6:], flags)
	ttl := p.TTL
	if ttl == 0 {
		ttl = IPv4DefaultTTL
	}
	b[8] = ttl
	b[9] = p.Protocol
	src, dst := p.Src.As4(), p.Dst.As4()
	copy(b[12:16], src[:])
	copy(b[16:20], dst[:])
	copy(b[20:hlen], p.Options)
	put16(b[10:], Checksum(b[:hlen]))
	copy(b[hlen:], p.Payload)
	return b
}

// Decode decodes an IPv4 packet from b into p, verifying version,
// lengths and the header checksum. Options and Payload alias b (see the
// package doc); bytes past the total length are ignored. On error p is
// left in an unspecified state.
func (p *IPv4) Decode(b []byte) error {
	if len(b) < IPv4MinHeaderLen {
		return fmt.Errorf("ipv4 header: %w", ErrTruncated)
	}
	if b[0]>>4 != 4 {
		return ErrBadVersion
	}
	hlen := int(b[0]&0x0f) * 4
	if hlen < IPv4MinHeaderLen || len(b) < hlen {
		return fmt.Errorf("ipv4 header length %d: %w", hlen, ErrTruncated)
	}
	total := int(be16(b[2:]))
	if total < hlen || total > len(b) {
		return fmt.Errorf("ipv4 total length %d: %w", total, ErrTruncated)
	}
	if Checksum(b[:hlen]) != 0 {
		return fmt.Errorf("ipv4: %w", ErrBadChecksum)
	}
	flags := be16(b[6:])
	*p = IPv4{
		TOS:      b[1],
		ID:       be16(b[4:]),
		DontFrag: flags&0x4000 != 0,
		MoreFrag: flags&0x2000 != 0,
		FragOff:  flags & 0x1fff,
		TTL:      b[8],
		Protocol: b[9],
		Src:      netip.AddrFrom4([4]byte(b[12:16])),
		Dst:      netip.AddrFrom4([4]byte(b[16:20])),
		Payload:  b[hlen:total:total],
	}
	if hlen > IPv4MinHeaderLen {
		p.Options = b[IPv4MinHeaderLen:hlen:hlen]
	}
	return nil
}
