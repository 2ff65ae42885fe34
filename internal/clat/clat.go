// Package clat implements a customer-side translator (CLAT, RFC 6877):
// the on-host stateless NAT46 component of 464XLAT. When a host accepts
// DHCPv4 option 108 it tears down its IPv4 stack and starts a CLAT so
// legacy IPv4-literal applications (the paper's Echolink example) keep
// working across the NAT64.
package clat

import (
	"errors"
	"fmt"
	"net/netip"

	"repro/internal/dns64"
	"repro/internal/packet"
)

// HostV4 is the well-known IPv4 address assigned to the CLAT-side
// interface when no dedicated IPv4 prefix exists (RFC 7335: 192.0.0.0/29;
// .1 is conventional for the host).
var HostV4 = netip.MustParseAddr("192.0.0.1")

// Errors reported by the translator.
var (
	ErrNotForHost = errors.New("clat: inbound packet not addressed to this host")
	ErrNoV6Source = errors.New("clat: no IPv6 source configured")
)

// Translator is a stateless NAT46 bound to one host.
type Translator struct {
	// Prefix is the NAT64 prefix used to embed IPv4 destinations.
	Prefix netip.Prefix
	// SrcV6 is the host's IPv6 address used for translated traffic.
	SrcV6 netip.Addr

	// Translated46 and Translated64 count packets in each direction.
	Translated46 uint64
	Translated64 uint64
}

// New builds a CLAT using the NAT64 well-known prefix.
func New(srcV6 netip.Addr) *Translator {
	return &Translator{Prefix: dns64.WellKnownPrefix, SrcV6: srcV6}
}

// TranslateV4ToV6 converts an application's outbound IPv4 packet into
// an IPv6 packet destined into the NAT64 prefix.
func (t *Translator) TranslateV4ToV6(p *packet.IPv4) (*packet.IPv6, error) {
	if !t.SrcV6.IsValid() || !t.SrcV6.Is6() {
		return nil, ErrNoV6Source
	}
	dst, err := dns64.Synthesize(t.Prefix, p.Dst)
	if err != nil {
		return nil, err
	}
	out := &packet.IPv6{HopLimit: p.TTL, Src: t.SrcV6, Dst: dst}
	switch p.Protocol {
	case packet.ProtoUDP:
		var u packet.UDP
		if err := u.Decode(p.Payload, p.Src, p.Dst); err != nil {
			return nil, err
		}
		out.NextHeader = packet.ProtoUDP
		out.Payload = u.Marshal(out.Src, out.Dst)
	case packet.ProtoTCP:
		var tc packet.TCP
		if err := tc.Decode(p.Payload, p.Src, p.Dst); err != nil {
			return nil, err
		}
		out.NextHeader = packet.ProtoTCP
		out.Payload = tc.Marshal(out.Src, out.Dst)
	case packet.ProtoICMP:
		var ic packet.ICMP
		if err := ic.DecodeV4(p.Payload); err != nil {
			return nil, err
		}
		if ic.Type != packet.ICMPv4Echo {
			return nil, fmt.Errorf("clat: unsupported ICMPv4 type %d", ic.Type)
		}
		out.NextHeader = packet.ProtoICMPv6
		out.Payload = (&packet.ICMP{Type: packet.ICMPv6EchoRequest, Body: ic.Body}).MarshalV6(out.Src, out.Dst)
	default:
		return nil, fmt.Errorf("clat: unsupported protocol %d", p.Protocol)
	}
	t.Translated46++
	return out, nil
}

// TranslateV6ToV4 converts an inbound IPv6 packet (sourced inside the
// NAT64 prefix, addressed to this host) back to IPv4 for the legacy
// application.
func (t *Translator) TranslateV6ToV4(p *packet.IPv6) (*packet.IPv4, error) {
	if p.Dst != t.SrcV6 {
		return nil, ErrNotForHost
	}
	srcV4, ok := dns64.Extract(t.Prefix, p.Src)
	if !ok {
		return nil, fmt.Errorf("clat: source %v outside prefix %v", p.Src, t.Prefix)
	}
	out := &packet.IPv4{TTL: p.HopLimit, Src: srcV4, Dst: HostV4}
	switch p.NextHeader {
	case packet.ProtoUDP:
		var u packet.UDP
		if err := u.Decode(p.Payload, p.Src, p.Dst); err != nil {
			return nil, err
		}
		out.Protocol = packet.ProtoUDP
		out.Payload = u.Marshal(out.Src, out.Dst)
	case packet.ProtoTCP:
		var tc packet.TCP
		if err := tc.Decode(p.Payload, p.Src, p.Dst); err != nil {
			return nil, err
		}
		out.Protocol = packet.ProtoTCP
		out.Payload = tc.Marshal(out.Src, out.Dst)
	case packet.ProtoICMPv6:
		var ic packet.ICMP
		if err := ic.DecodeV6(p.Payload, p.Src, p.Dst); err != nil {
			return nil, err
		}
		if ic.Type != packet.ICMPv6EchoReply {
			return nil, fmt.Errorf("clat: unsupported ICMPv6 type %d", ic.Type)
		}
		out.Protocol = packet.ProtoICMP
		out.Payload = (&packet.ICMP{Type: packet.ICMPv4EchoReply, Body: ic.Body}).MarshalV4()
	default:
		return nil, fmt.Errorf("clat: unsupported next header %d", p.NextHeader)
	}
	t.Translated64++
	return out, nil
}
