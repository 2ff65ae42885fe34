package packet

import (
	"fmt"
	"net/netip"
)

// TCPMinHeaderLen is the option-free TCP header size.
const TCPMinHeaderLen = 20

// TCP flag bits.
const (
	TCPFin uint8 = 1 << 0
	TCPSyn uint8 = 1 << 1
	TCPRst uint8 = 1 << 2
	TCPPsh uint8 = 1 << 3
	TCPAck uint8 = 1 << 4
)

// TCP is a parsed TCP segment (RFC 9293). Options are preserved opaquely.
type TCP struct {
	SrcPort uint16
	DstPort uint16
	Seq     uint32
	Ack     uint32
	Flags   uint8
	Window  uint16
	Options []byte
	Payload []byte
}

// Marshal encodes the segment with the checksum computed over the
// pseudo-header for src/dst.
func (t *TCP) Marshal(src, dst netip.Addr) []byte {
	optLen := (len(t.Options) + 3) &^ 3
	hlen := TCPMinHeaderLen + optLen
	b := make([]byte, hlen+len(t.Payload))
	put16(b[0:], t.SrcPort)
	put16(b[2:], t.DstPort)
	put32(b[4:], t.Seq)
	put32(b[8:], t.Ack)
	b[12] = uint8(hlen/4) << 4
	b[13] = t.Flags
	win := t.Window
	if win == 0 {
		win = 65535
	}
	put16(b[14:], win)
	copy(b[TCPMinHeaderLen:hlen], t.Options)
	copy(b[hlen:], t.Payload)
	put16(b[16:], PseudoHeaderChecksum(ProtoTCP, src, dst, b))
	return b
}

// Decode decodes a TCP segment from b into t and verifies its checksum.
// The segment runs to the end of b. Options and Payload alias b (see the
// package doc). On error t is left in an unspecified state.
func (t *TCP) Decode(b []byte, src, dst netip.Addr) error {
	if len(b) < TCPMinHeaderLen {
		return fmt.Errorf("tcp header: %w", ErrTruncated)
	}
	hlen := int(b[12]>>4) * 4
	if hlen < TCPMinHeaderLen || hlen > len(b) {
		return fmt.Errorf("tcp data offset %d: %w", hlen, ErrTruncated)
	}
	if PseudoHeaderChecksum(ProtoTCP, src, dst, b) != 0 {
		return fmt.Errorf("tcp: %w", ErrBadChecksum)
	}
	*t = TCP{
		SrcPort: be16(b[0:]),
		DstPort: be16(b[2:]),
		Seq:     be32(b[4:]),
		Ack:     be32(b[8:]),
		Flags:   b[13],
		Window:  be16(b[14:]),
		Payload: b[hlen:len(b):len(b)],
	}
	if hlen > TCPMinHeaderLen {
		t.Options = b[TCPMinHeaderLen:hlen:hlen]
	}
	return nil
}

// HasFlags reports whether every flag in mask is set.
func (t *TCP) HasFlags(mask uint8) bool { return t.Flags&mask == mask }
