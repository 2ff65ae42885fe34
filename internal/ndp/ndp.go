// Package ndp implements IPv6 Neighbor Discovery (RFC 4861) message
// bodies: Router Advertisements with prefix information, RDNSS
// (RFC 8106) and router-preference (RFC 4191) options, Router
// Solicitations, and Neighbor Solicitation/Advertisement for address
// resolution. It also provides SLAAC address formation (RFC 4862 via
// EUI-64). The testbed's 5G gateway, managed switch and every host
// stack build their ND traffic with this package.
package ndp

import (
	"errors"
	"fmt"
	"net/netip"
	"time"
)

// Option types (RFC 4861 §4.6, RFC 8106).
const (
	optSourceLinkAddr uint8 = 1
	optTargetLinkAddr uint8 = 2
	optPrefixInfo     uint8 = 3
	optMTU            uint8 = 5
	optRDNSS          uint8 = 25
	optPREF64         uint8 = 38 // RFC 8781
)

// RouterPreference is the RFC 4191 default router preference.
type RouterPreference int8

// Router preference values.
const (
	PrefMedium RouterPreference = 0
	PrefHigh   RouterPreference = 1
	PrefLow    RouterPreference = -1
)

// String names the preference.
func (p RouterPreference) String() string {
	switch p {
	case PrefHigh:
		return "high"
	case PrefLow:
		return "low"
	default:
		return "medium"
	}
}

// ErrBadNDP reports a malformed neighbor-discovery body.
var ErrBadNDP = errors.New("ndp: malformed message")

// PrefixInfo is an RA prefix-information option.
type PrefixInfo struct {
	Prefix            netip.Prefix
	OnLink            bool
	Autonomous        bool // the SLAAC "A" flag
	ValidLifetime     time.Duration
	PreferredLifetime time.Duration
}

// RouterAdvert is a parsed/buildable RA (ICMPv6 type 134 body).
type RouterAdvert struct {
	CurHopLimit    uint8
	Managed        bool // M flag
	OtherConfig    bool // O flag
	Preference     RouterPreference
	RouterLifetime time.Duration // 0 = not a default router
	SourceLinkAddr [6]byte
	HasSourceLink  bool
	MTU            uint32
	Prefixes       []PrefixInfo
	RDNSS          []netip.Addr
	RDNSSLifetime  time.Duration

	// PREF64 advertises the NAT64 translation prefix (RFC 8781) so CLAT
	// clients need no RFC 7050 DNS probing. Zero value = absent.
	PREF64         netip.Prefix
	PREF64Lifetime time.Duration
}

// Marshal encodes the RA body (everything after the ICMPv6 type/code/
// checksum header).
func (ra *RouterAdvert) Marshal() []byte {
	b := make([]byte, 12)
	b[0] = ra.CurHopLimit
	var flags uint8
	if ra.Managed {
		flags |= 0x80
	}
	if ra.OtherConfig {
		flags |= 0x40
	}
	switch ra.Preference {
	case PrefHigh:
		flags |= 0x08
	case PrefLow:
		flags |= 0x18
	}
	b[1] = flags
	put16(b[2:], uint16(ra.RouterLifetime/time.Second))
	// reachable/retrans timers left zero (unspecified)

	if ra.HasSourceLink {
		b = append(b, optSourceLinkAddr, 1)
		b = append(b, ra.SourceLinkAddr[:]...)
	}
	if ra.MTU != 0 {
		b = append(b, optMTU, 1, 0, 0,
			byte(ra.MTU>>24), byte(ra.MTU>>16), byte(ra.MTU>>8), byte(ra.MTU))
	}
	for _, pi := range ra.Prefixes {
		opt := make([]byte, 32)
		opt[0], opt[1] = optPrefixInfo, 4
		opt[2] = uint8(pi.Prefix.Bits())
		if pi.OnLink {
			opt[3] |= 0x80
		}
		if pi.Autonomous {
			opt[3] |= 0x40
		}
		put32(opt[4:], uint32(pi.ValidLifetime/time.Second))
		put32(opt[8:], uint32(pi.PreferredLifetime/time.Second))
		addr := pi.Prefix.Addr().As16()
		copy(opt[16:], addr[:])
		b = append(b, opt...)
	}
	// One RDNSS option holds at most 127 addresses (its length byte
	// counts 8-byte units); longer lists continue in further options.
	for rest := ra.RDNSS; len(rest) > 0; {
		n := min(len(rest), 127)
		opt := make([]byte, 8+16*n)
		opt[0] = optRDNSS
		opt[1] = uint8(1 + 2*n)
		put32(opt[4:], uint32(ra.RDNSSLifetime/time.Second))
		for i, a := range rest[:n] {
			v := a.As16()
			copy(opt[8+16*i:], v[:])
		}
		b = append(b, opt...)
		rest = rest[n:]
	}
	if ra.PREF64.IsValid() {
		// RFC 8781 §4: 13-bit scaled lifetime (units of 8s) + 3-bit PLC,
		// then the high 96 bits of the prefix.
		opt := make([]byte, 16)
		opt[0], opt[1] = optPREF64, 2
		plc, ok := plcFor(ra.PREF64.Bits())
		if ok {
			scaled := uint16(ra.PREF64Lifetime/(8*time.Second)) & 0x1fff
			put16(opt[2:], scaled<<3|uint16(plc))
			addr := ra.PREF64.Addr().As16()
			copy(opt[4:16], addr[:12])
			b = append(b, opt...)
		}
	}
	return b
}

// plcFor maps a prefix length to the RFC 8781 prefix length code.
func plcFor(bits int) (uint8, bool) {
	switch bits {
	case 96:
		return 0, true
	case 64:
		return 1, true
	case 56:
		return 2, true
	case 48:
		return 3, true
	case 40:
		return 4, true
	case 32:
		return 5, true
	}
	return 0, false
}

// bitsForPLC is the inverse of plcFor.
func bitsForPLC(plc uint8) (int, bool) {
	switch plc {
	case 0:
		return 96, true
	case 1:
		return 64, true
	case 2:
		return 56, true
	case 3:
		return 48, true
	case 4:
		return 40, true
	case 5:
		return 32, true
	}
	return 0, false
}

// Decode decodes an RA body from b into ra. Prefixes and RDNSS are
// rebuilt in the storage ra already holds, so a receiver that decodes
// every RA into one long-lived value stops allocating once those slices
// have grown to the largest RA it has seen; the next Decode into ra
// overwrites them. Every other field is a fixed-size value, so ra
// retains nothing of b. On error ra is left in an unspecified state.
func (ra *RouterAdvert) Decode(b []byte) error {
	if len(b) < 12 {
		return fmt.Errorf("%w: RA body %d bytes", ErrBadNDP, len(b))
	}
	*ra = RouterAdvert{
		CurHopLimit:    b[0],
		Managed:        b[1]&0x80 != 0,
		OtherConfig:    b[1]&0x40 != 0,
		RouterLifetime: time.Duration(be16(b[2:])) * time.Second,
		Prefixes:       ra.Prefixes[:0],
		RDNSS:          ra.RDNSS[:0],
	}
	switch b[1] >> 3 & 0x3 {
	case 0x1:
		ra.Preference = PrefHigh
	case 0x3:
		ra.Preference = PrefLow
	default:
		ra.Preference = PrefMedium
	}
	for opts := b[12:]; len(opts) > 0; {
		typ, body, rest, err := nextOption(opts)
		if err != nil {
			return err
		}
		opts = rest
		switch typ {
		case optSourceLinkAddr:
			ra.SourceLinkAddr = [6]byte(body[:6])
			ra.HasSourceLink = true
		case optMTU:
			ra.MTU = be32(body[2:])
		case optPrefixInfo:
			if len(body) < 30 {
				return fmt.Errorf("%w: prefix info %d bytes", ErrBadNDP, len(body))
			}
			addr := netip.AddrFrom16([16]byte(body[14:30]))
			ra.Prefixes = append(ra.Prefixes, PrefixInfo{
				Prefix:            netip.PrefixFrom(addr, int(body[0])),
				OnLink:            body[1]&0x80 != 0,
				Autonomous:        body[1]&0x40 != 0,
				ValidLifetime:     time.Duration(be32(body[2:])) * time.Second,
				PreferredLifetime: time.Duration(be32(body[6:])) * time.Second,
			})
		case optRDNSS:
			ra.RDNSSLifetime = time.Duration(be32(body[2:])) * time.Second
			for i := 6; i+16 <= len(body); i += 16 {
				ra.RDNSS = append(ra.RDNSS, netip.AddrFrom16([16]byte(body[i:i+16])))
			}
		case optPREF64:
			if len(body) < 14 {
				return fmt.Errorf("%w: PREF64 %d bytes", ErrBadNDP, len(body))
			}
			sl := be16(body[0:])
			bits, ok := bitsForPLC(uint8(sl & 0x7))
			if !ok {
				continue // unknown PLC: ignore the option (RFC 8781 §5.1)
			}
			var addr [16]byte
			copy(addr[:12], body[2:14])
			ra.PREF64 = netip.PrefixFrom(netip.AddrFrom16(addr), bits)
			ra.PREF64Lifetime = time.Duration(sl>>3) * 8 * time.Second
		}
	}
	return nil
}

// RouterSolicit is an RS (ICMPv6 type 133 body).
type RouterSolicit struct {
	SourceLinkAddr [6]byte
	HasSourceLink  bool
}

// Marshal encodes the RS body.
func (rs *RouterSolicit) Marshal() []byte {
	b := make([]byte, 4)
	if rs.HasSourceLink {
		b = append(b, optSourceLinkAddr, 1)
		b = append(b, rs.SourceLinkAddr[:]...)
	}
	return b
}

// Decode decodes an RS body from b into rs. On error rs is left in an
// unspecified state.
func (rs *RouterSolicit) Decode(b []byte) error {
	if len(b) < 4 {
		return fmt.Errorf("%w: RS body %d bytes", ErrBadNDP, len(b))
	}
	mac, ok, err := linkAddrOption(b[4:], optSourceLinkAddr)
	*rs = RouterSolicit{SourceLinkAddr: mac, HasSourceLink: ok}
	return err
}

// NeighborSolicit is an NS (ICMPv6 type 135 body).
type NeighborSolicit struct {
	Target         netip.Addr
	SourceLinkAddr [6]byte
	HasSourceLink  bool
}

// Marshal encodes the NS body.
func (ns *NeighborSolicit) Marshal() []byte {
	b := make([]byte, 20)
	t := ns.Target.As16()
	copy(b[4:], t[:])
	if ns.HasSourceLink {
		b = append(b, optSourceLinkAddr, 1)
		b = append(b, ns.SourceLinkAddr[:]...)
	}
	return b
}

// Decode decodes an NS body from b into ns. On error ns is left in an
// unspecified state.
func (ns *NeighborSolicit) Decode(b []byte) error {
	if len(b) < 20 {
		return fmt.Errorf("%w: NS body %d bytes", ErrBadNDP, len(b))
	}
	mac, ok, err := linkAddrOption(b[20:], optSourceLinkAddr)
	*ns = NeighborSolicit{
		Target:         netip.AddrFrom16([16]byte(b[4:20])),
		SourceLinkAddr: mac,
		HasSourceLink:  ok,
	}
	return err
}

// NeighborAdvert is an NA (ICMPv6 type 136 body).
type NeighborAdvert struct {
	Router         bool
	Solicited      bool
	Override       bool
	Target         netip.Addr
	TargetLinkAddr [6]byte
	HasTargetLink  bool
}

// Marshal encodes the NA body.
func (na *NeighborAdvert) Marshal() []byte {
	b := make([]byte, 20)
	if na.Router {
		b[0] |= 0x80
	}
	if na.Solicited {
		b[0] |= 0x40
	}
	if na.Override {
		b[0] |= 0x20
	}
	t := na.Target.As16()
	copy(b[4:], t[:])
	if na.HasTargetLink {
		b = append(b, optTargetLinkAddr, 1)
		b = append(b, na.TargetLinkAddr[:]...)
	}
	return b
}

// Decode decodes an NA body from b into na. On error na is left in an
// unspecified state.
func (na *NeighborAdvert) Decode(b []byte) error {
	if len(b) < 20 {
		return fmt.Errorf("%w: NA body %d bytes", ErrBadNDP, len(b))
	}
	mac, ok, err := linkAddrOption(b[20:], optTargetLinkAddr)
	*na = NeighborAdvert{
		Router:         b[0]&0x80 != 0,
		Solicited:      b[0]&0x40 != 0,
		Override:       b[0]&0x20 != 0,
		Target:         netip.AddrFrom16([16]byte(b[4:20])),
		TargetLinkAddr: mac,
		HasTargetLink:  ok,
	}
	return err
}

// nextOption splits the first option off an 8-byte-unit TLV option
// stream: its type, its body (after the type and length bytes, so at
// least 6 bytes long) and the rest of the stream.
func nextOption(b []byte) (typ uint8, body, rest []byte, err error) {
	if len(b) < 2 {
		return 0, nil, nil, fmt.Errorf("%w: dangling option byte", ErrBadNDP)
	}
	l := int(b[1]) * 8
	if l == 0 || l > len(b) {
		return 0, nil, nil, fmt.Errorf("%w: option length %d", ErrBadNDP, l)
	}
	return b[0], b[2:l], b[l:], nil
}

// linkAddrOption walks an option stream and returns the link-layer
// address carried by the last option of type typ.
func linkAddrOption(opts []byte, typ uint8) (mac [6]byte, ok bool, err error) {
	for len(opts) > 0 {
		var t uint8
		var body []byte
		if t, body, opts, err = nextOption(opts); err != nil {
			return mac, ok, err
		}
		if t == typ {
			mac, ok = [6]byte(body[:6]), true
		}
	}
	return mac, ok, nil
}

// EUI64 derives the RFC 4291 modified EUI-64 interface identifier
// address for mac within prefix (which must be a /64).
func EUI64(prefix netip.Prefix, mac [6]byte) (netip.Addr, error) {
	if prefix.Bits() != 64 {
		return netip.Addr{}, fmt.Errorf("ndp: SLAAC requires a /64, got %v", prefix)
	}
	b := prefix.Addr().As16()
	b[8] = mac[0] ^ 0x02 // flip universal/local bit
	b[9] = mac[1]
	b[10] = mac[2]
	b[11] = 0xff
	b[12] = 0xfe
	b[13] = mac[3]
	b[14] = mac[4]
	b[15] = mac[5]
	return netip.AddrFrom16(b), nil
}

// LinkLocal derives the fe80::/64 EUI-64 address for mac.
func LinkLocal(mac [6]byte) netip.Addr {
	a, _ := EUI64(netip.MustParsePrefix("fe80::/64"), mac)
	return a
}

// AllNodes and AllRouters are the well-known link-scope multicast groups.
var (
	AllNodes   = netip.MustParseAddr("ff02::1")
	AllRouters = netip.MustParseAddr("ff02::2")
)

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
