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

	// out46 and out64 hold the transport message of the latest result
	// in each direction (see the Translate methods for its lifetime).
	out46 []byte
	out64 []byte
}

// New builds a CLAT using the NAT64 well-known prefix.
func New(srcV6 netip.Addr) *Translator {
	return &Translator{Prefix: dns64.WellKnownPrefix, SrcV6: srcV6}
}

// TranslateV4ToV6 converts an application's outbound IPv4 packet into
// an IPv6 packet destined into the NAT64 prefix, written into out.
// out.Payload lives in the translator's scratch for this direction: it
// is valid until the next TranslateV4ToV6 call, so a caller that keeps
// it longer copies it. On error out is left in an unspecified state.
func (t *Translator) TranslateV4ToV6(p *packet.IPv4, out *packet.IPv6) error {
	if !t.SrcV6.IsValid() || !t.SrcV6.Is6() {
		return ErrNoV6Source
	}
	dst, err := dns64.Synthesize(t.Prefix, p.Dst)
	if err != nil {
		return err
	}
	*out = packet.IPv6{HopLimit: p.TTL, Src: t.SrcV6, Dst: dst}
	switch p.Protocol {
	case packet.ProtoUDP:
		var u packet.UDP
		if err := u.Decode(p.Payload, p.Src, p.Dst); err != nil {
			return err
		}
		out.NextHeader = packet.ProtoUDP
		t.out46 = u.AppendTo(t.out46[:0], out.Src, out.Dst)
	case packet.ProtoTCP:
		var tc packet.TCP
		if err := tc.Decode(p.Payload, p.Src, p.Dst); err != nil {
			return err
		}
		out.NextHeader = packet.ProtoTCP
		t.out46 = tc.AppendTo(t.out46[:0], out.Src, out.Dst)
	case packet.ProtoICMP:
		var ic packet.ICMP
		if err := ic.DecodeV4(p.Payload); err != nil {
			return err
		}
		if ic.Type != packet.ICMPv4Echo {
			return fmt.Errorf("clat: unsupported ICMPv4 type %d", ic.Type)
		}
		out.NextHeader = packet.ProtoICMPv6
		t.out46 = (&packet.ICMP{Type: packet.ICMPv6EchoRequest, Body: ic.Body}).AppendToV6(t.out46[:0], out.Src, out.Dst)
	default:
		return fmt.Errorf("clat: unsupported protocol %d", p.Protocol)
	}
	out.Payload = t.out46
	t.Translated46++
	return nil
}

// TranslateV6ToV4 converts an inbound IPv6 packet (sourced inside the
// NAT64 prefix, addressed to this host) back to IPv4 for the legacy
// application, written into out. out.Payload lives in the translator's
// scratch for this direction: it is valid until the next
// TranslateV6ToV4 call, so a caller that keeps it longer copies it. On
// error out is left in an unspecified state.
func (t *Translator) TranslateV6ToV4(p *packet.IPv6, out *packet.IPv4) error {
	if p.Dst != t.SrcV6 {
		return ErrNotForHost
	}
	srcV4, ok := dns64.Extract(t.Prefix, p.Src)
	if !ok {
		return fmt.Errorf("clat: source %v outside prefix %v", p.Src, t.Prefix)
	}
	*out = packet.IPv4{TTL: p.HopLimit, Src: srcV4, Dst: HostV4}
	switch p.NextHeader {
	case packet.ProtoUDP:
		var u packet.UDP
		if err := u.Decode(p.Payload, p.Src, p.Dst); err != nil {
			return err
		}
		out.Protocol = packet.ProtoUDP
		t.out64 = u.AppendTo(t.out64[:0], out.Src, out.Dst)
	case packet.ProtoTCP:
		var tc packet.TCP
		if err := tc.Decode(p.Payload, p.Src, p.Dst); err != nil {
			return err
		}
		out.Protocol = packet.ProtoTCP
		t.out64 = tc.AppendTo(t.out64[:0], out.Src, out.Dst)
	case packet.ProtoICMPv6:
		var ic packet.ICMP
		if err := ic.DecodeV6(p.Payload, p.Src, p.Dst); err != nil {
			return err
		}
		if ic.Type != packet.ICMPv6EchoReply {
			return fmt.Errorf("clat: unsupported ICMPv6 type %d", ic.Type)
		}
		out.Protocol = packet.ProtoICMP
		t.out64 = (&packet.ICMP{Type: packet.ICMPv4EchoReply, Body: ic.Body}).AppendToV4(t.out64[:0])
	default:
		return fmt.Errorf("clat: unsupported next header %d", p.NextHeader)
	}
	out.Payload = t.out64
	t.Translated64++
	return nil
}
