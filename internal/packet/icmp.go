package packet

import (
	"fmt"
	"net/netip"
)

// ICMPv4 message types used by the testbed.
const (
	ICMPv4EchoReply       uint8 = 0
	ICMPv4DestUnreachable uint8 = 3
	ICMPv4Echo            uint8 = 8
	ICMPv4TimeExceeded    uint8 = 11
)

// ICMPv4 destination-unreachable codes.
const (
	ICMPv4CodeNetUnreachable  uint8 = 0
	ICMPv4CodeHostUnreachable uint8 = 1
	ICMPv4CodePortUnreachable uint8 = 3
	ICMPv4CodeAdminProhibited uint8 = 13
)

// ICMPv6 message types (RFC 4443, RFC 4861).
const (
	ICMPv6DestUnreachable uint8 = 1
	ICMPv6PacketTooBig    uint8 = 2
	ICMPv6TimeExceeded    uint8 = 3
	ICMPv6EchoRequest     uint8 = 128
	ICMPv6EchoReply       uint8 = 129
	ICMPv6RouterSolicit   uint8 = 133
	ICMPv6RouterAdvert    uint8 = 134
	ICMPv6NeighborSolicit uint8 = 135
	ICMPv6NeighborAdvert  uint8 = 136
)

// ICMPv6 destination-unreachable codes.
const (
	ICMPv6CodeNoRoute         uint8 = 0
	ICMPv6CodeAdminProhibited uint8 = 1
	ICMPv6CodeAddrUnreachable uint8 = 3
	ICMPv6CodePortUnreachable uint8 = 4
)

// ICMP is a generic ICMPv4 or ICMPv6 message. For echo messages, the
// identifier and sequence live in the first four body bytes; helpers
// below pack and unpack them.
type ICMP struct {
	Type uint8
	Code uint8
	Body []byte // everything after the 4-byte type/code/checksum header
}

// MarshalV4 encodes an ICMPv4 message into a fresh buffer; see
// AppendToV4.
func (m *ICMP) MarshalV4() []byte { return m.AppendToV4(nil) }

// MarshalV6 encodes an ICMPv6 message into a fresh buffer; see
// AppendToV6.
func (m *ICMP) MarshalV6(src, dst netip.Addr) []byte { return m.AppendToV6(nil, src, dst) }

// AppendToV4 appends the encoded ICMPv4 message to buf (checksum over
// the message only) and returns the extended buffer. Body must not
// alias buf's spare capacity.
func (m *ICMP) AppendToV4(buf []byte) []byte {
	start := len(buf)
	buf = m.appendUnsummed(buf)
	put16(buf[start+2:], Checksum(buf[start:]))
	return buf
}

// AppendToV6 appends the encoded ICMPv6 message to buf, with the
// checksum including the IPv6 pseudo-header for src/dst (RFC 4443
// §2.3), and returns the extended buffer. Body must not alias buf's
// spare capacity.
func (m *ICMP) AppendToV6(buf []byte, src, dst netip.Addr) []byte {
	start := len(buf)
	buf = m.appendUnsummed(buf)
	put16(buf[start+2:], PseudoHeaderChecksum(ProtoICMPv6, src, dst, buf[start:]))
	return buf
}

// appendUnsummed appends the message with a zero checksum field, the
// state both checksums are summed over.
func (m *ICMP) appendUnsummed(buf []byte) []byte {
	start := len(buf)
	buf = extend(buf, 4, len(m.Body))
	buf[start], buf[start+1] = m.Type, m.Code
	return append(buf, m.Body...)
}

// DecodeV4 decodes and checksum-verifies an ICMPv4 message from b into
// m. Body aliases b (see the package doc). On error m is left in an
// unspecified state.
func (m *ICMP) DecodeV4(b []byte) error {
	if len(b) < 4 {
		return fmt.Errorf("icmpv4: %w", ErrTruncated)
	}
	if Checksum(b) != 0 {
		return fmt.Errorf("icmpv4: %w", ErrBadChecksum)
	}
	*m = ICMP{Type: b[0], Code: b[1], Body: b[4:len(b):len(b)]}
	return nil
}

// DecodeV6 decodes and checksum-verifies an ICMPv6 message from b into
// m, with the pseudo-header for src/dst. Body aliases b (see the package
// doc). On error m is left in an unspecified state.
func (m *ICMP) DecodeV6(b []byte, src, dst netip.Addr) error {
	if len(b) < 4 {
		return fmt.Errorf("icmpv6: %w", ErrTruncated)
	}
	if PseudoHeaderChecksum(ProtoICMPv6, src, dst, b) != 0 {
		return fmt.Errorf("icmpv6: %w", ErrBadChecksum)
	}
	*m = ICMP{Type: b[0], Code: b[1], Body: b[4:len(b):len(b)]}
	return nil
}

// EchoBody packs an echo identifier, sequence number and data payload.
func EchoBody(id, seq uint16, data []byte) []byte {
	b := make([]byte, 4+len(data))
	put16(b[0:], id)
	put16(b[2:], seq)
	copy(b[4:], data)
	return b
}

// EchoFields unpacks identifier and sequence from an echo body.
func EchoFields(body []byte) (id, seq uint16, data []byte, err error) {
	if len(body) < 4 {
		return 0, 0, nil, fmt.Errorf("echo body: %w", ErrTruncated)
	}
	return be16(body[0:]), be16(body[2:]), body[4:], nil
}

// IsICMPv4Error reports whether an ICMPv4 type carries an embedded
// original packet (error messages).
func IsICMPv4Error(typ uint8) bool {
	return typ == ICMPv4DestUnreachable || typ == ICMPv4TimeExceeded || typ == 4 || typ == 5 || typ == 12
}
