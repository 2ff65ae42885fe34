package packet

import (
	"fmt"
	"net/netip"
)

// UDPHeaderLen is the fixed UDP header size.
const UDPHeaderLen = 8

// UDP is a parsed UDP datagram (RFC 768).
type UDP struct {
	SrcPort uint16
	DstPort uint16
	Payload []byte
}

// Marshal encodes the datagram into a fresh buffer; see AppendTo.
func (u *UDP) Marshal(src, dst netip.Addr) []byte { return u.AppendTo(nil, src, dst) }

// AppendTo appends the encoded datagram to buf, with the checksum
// computed over the pseudo-header for src/dst, and returns the extended
// buffer. Payload must not alias buf's spare capacity.
func (u *UDP) AppendTo(buf []byte, src, dst netip.Addr) []byte {
	start := len(buf)
	buf = extend(buf, UDPHeaderLen, len(u.Payload))
	buf = append(buf, u.Payload...)
	b := buf[start:]
	put16(b[0:], u.SrcPort)
	put16(b[2:], u.DstPort)
	put16(b[4:], uint16(len(b)))
	ck := PseudoHeaderChecksum(ProtoUDP, src, dst, b)
	if ck == 0 {
		ck = 0xffff // RFC 768: zero checksum transmitted as all ones
	}
	put16(b[6:], ck)
	return buf
}

// Decode decodes a UDP datagram from b into u and verifies its checksum
// against the pseudo-header for src/dst (unless the checksum field is
// zero, which IPv4 permits). Payload aliases b (see the package doc);
// bytes past the UDP length are ignored. On error u is left in an
// unspecified state.
func (u *UDP) Decode(b []byte, src, dst netip.Addr) error {
	if len(b) < UDPHeaderLen {
		return fmt.Errorf("udp header: %w", ErrTruncated)
	}
	ulen := int(be16(b[4:]))
	if ulen < UDPHeaderLen || ulen > len(b) {
		return fmt.Errorf("udp length %d: %w", ulen, ErrTruncated)
	}
	if be16(b[6:]) != 0 {
		if PseudoHeaderChecksum(ProtoUDP, src, dst, b[:ulen]) != 0 {
			return fmt.Errorf("udp: %w", ErrBadChecksum)
		}
	} else if src.Is6() {
		return fmt.Errorf("udp over ipv6 requires checksum: %w", ErrBadChecksum)
	}
	*u = UDP{
		SrcPort: be16(b[0:]),
		DstPort: be16(b[2:]),
		Payload: b[UDPHeaderLen:ulen:ulen],
	}
	return nil
}
