// Package packet implements wire-format encoding and decoding for the
// layer-3 and layer-4 protocols the testbed exchanges over the simulated
// fabric: IPv4, IPv6, UDP, TCP, ICMPv4, ICMPv6 and ARP. Every header is
// encoded byte-for-byte per its RFC so translation components (NAT64,
// CLAT, NAT44) can operate exactly as the specifications describe.
//
// Each header has exactly one encoder body, an append-style AppendTo
// (AppendToV4 and AppendToV6 for ICMP) that appends the encoding to a
// caller's buffer and returns the extended buffer, so a sender that
// reuses one scratch buffer per device encodes every packet without
// allocating. It zeroes the header, padding and checksum field it
// appends before summing, whatever the buffer's spare capacity held,
// and the fields it copies in (Options, Payload, Body) must not alias
// that spare capacity. Marshal (MarshalV4, MarshalV6) is AppendTo into
// a nil buffer: a freshly allocated encoding the caller owns, for
// control-plane paths and tests.
//
// Each header has exactly one decoder, a Decode method (DecodeV4 and
// DecodeV6 for ICMP) that fills a caller-owned value and neither copies
// nor allocates. The variable-length fields it sets (Options, Payload,
// Body) are sub-slices of the input with their capacity clipped to
// their length, so an append to one reallocates instead of running over
// the bytes that follow. A decoded view therefore aliases its input, and
// on the simulated fabric that input is a netsim.Frame payload, so the
// frame's ownership rule applies to the view: receivers never write
// through it, and it is valid only until the frame handler that received
// the payload returns, when the fabric takes the buffer back for a later
// frame. A receiver that needs the bytes for longer copies them. Receive
// paths keep decoded headers in stack variables, so a frame costs no
// heap allocation to parse.
package packet

import (
	"encoding/binary"
	"net/netip"
	"slices"
)

// Checksum computes the RFC 1071 internet checksum over data.
func Checksum(data []byte) uint16 {
	return finishChecksum(sumBytes(0, data))
}

// sumBytes adds the 16-bit big-endian words of data into sum, one's
// complement style, and returns a value that folds (finishChecksum) to
// the same checksum as adding the words one by one. It reads eight bytes
// per step into a 64-bit accumulator, adding the two 32-bit halves so
// the carries collect in the high bits; since 2^16 ≡ 1 (mod 0xffff), a
// 32-bit word adds the same as its two 16-bit halves. The result is
// folded to 16 bits, and is zero only when sum and data are all zero,
// so callers can keep adding to it.
func sumBytes(sum uint32, data []byte) uint32 {
	acc := uint64(sum)
	for len(data) >= 8 {
		v := binary.BigEndian.Uint64(data)
		acc += v>>32 + v&0xffffffff
		data = data[8:]
	}
	if len(data) >= 4 {
		acc += uint64(binary.BigEndian.Uint32(data))
		data = data[4:]
	}
	if len(data) >= 2 {
		acc += uint64(binary.BigEndian.Uint16(data))
		data = data[2:]
	}
	if len(data) == 1 {
		acc += uint64(data[0]) << 8
	}
	for acc>>16 != 0 {
		acc = acc&0xffff + acc>>16
	}
	return uint32(acc)
}

func finishChecksum(sum uint32) uint16 {
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + sum>>16
	}
	return ^uint16(sum)
}

// PseudoHeaderChecksum computes the transport checksum for proto over
// payload using the IPv4 or IPv6 pseudo-header for src/dst. Both
// addresses must be the same family.
func PseudoHeaderChecksum(proto uint8, src, dst netip.Addr, payload []byte) uint16 {
	var sum uint32
	if src.Is4() {
		s, d := src.As4(), dst.As4()
		sum = sumBytes(sum, s[:])
		sum = sumBytes(sum, d[:])
		sum += uint32(proto)
		sum += uint32(len(payload))
	} else {
		s, d := src.As16(), dst.As16()
		sum = sumBytes(sum, s[:])
		sum = sumBytes(sum, d[:])
		sum += uint32(len(payload)) // upper-layer packet length
		sum += uint32(proto)
	}
	sum = sumBytes(sum, payload)
	return finishChecksum(sum)
}

// extend appends n zero bytes to buf, first reserving room for extra
// more, so an encoder's header is zeroed whatever buf's spare capacity
// held and the payload appended after it does not reallocate.
func extend(buf []byte, n, extra int) []byte {
	buf = slices.Grow(buf, n+extra)
	buf = buf[:len(buf)+n]
	clear(buf[len(buf)-n:])
	return buf
}

func be16(b []byte) uint16 { return uint16(b[0])<<8 | uint16(b[1]) }
func be32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}
func put16(b []byte, v uint16) { b[0] = byte(v >> 8); b[1] = byte(v) }
func put32(b []byte, v uint32) {
	b[0] = byte(v >> 24)
	b[1] = byte(v >> 16)
	b[2] = byte(v >> 8)
	b[3] = byte(v)
}
