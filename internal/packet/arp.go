package packet

import (
	"fmt"
	"net/netip"
)

// ARP operation codes.
const (
	ARPRequest uint16 = 1
	ARPReply   uint16 = 2
)

// arpPacketLen is the size of an Ethernet/IPv4 ARP packet.
const arpPacketLen = 28

// ARP is an Ethernet/IPv4 ARP packet (RFC 826).
type ARP struct {
	Op        uint16
	SenderMAC [6]byte
	SenderIP  netip.Addr
	TargetMAC [6]byte
	TargetIP  netip.Addr
}

// Marshal encodes the ARP packet.
func (a *ARP) Marshal() []byte {
	b := make([]byte, arpPacketLen)
	put16(b[0:], 1)      // hardware type: Ethernet
	put16(b[2:], 0x0800) // protocol type: IPv4
	b[4] = 6             // hardware size
	b[5] = 4             // protocol size
	put16(b[6:], a.Op)
	copy(b[8:14], a.SenderMAC[:])
	if a.SenderIP.Is4() {
		sip := a.SenderIP.As4()
		copy(b[14:18], sip[:])
	}
	copy(b[18:24], a.TargetMAC[:])
	if a.TargetIP.Is4() {
		tip := a.TargetIP.As4()
		copy(b[24:28], tip[:])
	}
	return b
}

// Decode decodes an Ethernet/IPv4 ARP packet from b into a. Every ARP
// field is fixed-size, so a retains nothing of b. On error a is left in
// an unspecified state.
func (a *ARP) Decode(b []byte) error {
	if len(b) < arpPacketLen {
		return fmt.Errorf("arp: %w", ErrTruncated)
	}
	if be16(b[0:]) != 1 || be16(b[2:]) != 0x0800 || b[4] != 6 || b[5] != 4 {
		return fmt.Errorf("arp: unsupported hardware/protocol combination")
	}
	*a = ARP{
		Op:        be16(b[6:]),
		SenderMAC: [6]byte(b[8:14]),
		SenderIP:  netip.AddrFrom4([4]byte(b[14:18])),
		TargetMAC: [6]byte(b[18:24]),
		TargetIP:  netip.AddrFrom4([4]byte(b[24:28])),
	}
	return nil
}
