package hoststack

import (
	"bytes"
	"errors"
	"net/netip"
	"testing"
	"time"

	"repro/internal/nat64"
	"repro/internal/netsim"
	"repro/internal/packet"
)

// TestDestUnreachableFastFail pins the exhaustion fast path: a client
// whose SYN draws an ICMPv6 Destination Unreachable (the NAT64's
// RFC 6146 §3.5.1.1 refusal) fails the dial at error arrival — virtual
// seconds before the SYN timeout would have fired — and counts it.
func TestDestUnreachableFastFail(t *testing.T) {
	net := netsim.NewNetwork()
	c := New(net, "c", Behavior{Name: "c", IPv6Enabled: true})
	gwLL := netip.MustParseAddr("fe80::1")
	dst := netip.MustParseAddr("64:ff9b::c633:6401")

	// A silent peer stands in for the gateway: it swallows the SYN and
	// answers it 50 ms later with the translator's refusal.
	var peer *netsim.NIC
	peer = net.NewNIC(netsim.FrameHandlerFunc(func(_ *netsim.NIC, f netsim.Frame) {
		if f.EtherType != netsim.EtherTypeIPv6 {
			return
		}
		// The reply quotes the SYN after this call returns, so decode
		// a copy: the delivered payload is only valid during the call.
		var p packet.IPv6
		if p.Decode(bytes.Clone(f.Payload)) != nil || p.NextHeader != packet.ProtoTCP {
			return
		}
		src := f.Src
		net.Clock.AfterFunc(50*time.Millisecond, func() {
			reply := nat64.ExhaustionUnreachable(gwLL, &p)
			peer.Transmit(netsim.Frame{Dst: src, EtherType: netsim.EtherTypeIPv6, Payload: reply.Marshal()})
		})
	}))
	net.Connect(c.NIC, peer)
	c.AddIPv6Static(netip.MustParseAddr("2001:db8::10"), netip.MustParsePrefix("2001:db8::/64"))
	c.AddStaticRouteV6(gwLL, peer.MAC())
	c.PreloadNeighbor(gwLL, peer.MAC())

	start := net.Clock.Now()
	_, err := c.DialTCP(dst, 80, 10*time.Second)
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("DialTCP = %v, want ErrUnreachable", err)
	}
	if took := net.Clock.Now().Sub(start); took > time.Second {
		t.Errorf("dial failed after %v, want fast failure at error arrival", took)
	}
	if c.UnreachRcvd != 1 {
		t.Errorf("UnreachRcvd = %d, want 1", c.UnreachRcvd)
	}
}

// TestDestUnreachableIgnoredWithoutHandshake pins the guard: an
// unreachable error with no matching in-handshake connection (stale or
// forged) mutates nothing.
func TestDestUnreachableIgnoredWithoutHandshake(t *testing.T) {
	net := netsim.NewNetwork()
	c := New(net, "c", Behavior{Name: "c", IPv6Enabled: true})
	orig := &packet.IPv6{
		NextHeader: packet.ProtoTCP, HopLimit: 64,
		Src:     netip.MustParseAddr("2001:db8::10"),
		Dst:     netip.MustParseAddr("64:ff9b::c633:6401"),
		Payload: []byte{0x13, 0x88, 0x00, 0x50, 0, 0, 0, 0, 0, 0, 0, 0, 0x50, 0x02, 0, 0, 0, 0, 0, 0},
	}
	ic := &packet.ICMP{Type: packet.ICMPv6DestUnreachable, Code: 3, Body: append([]byte{0, 0, 0, 0}, orig.Marshal()...)}
	c.handleDestUnreachable(ic)
	if c.UnreachRcvd != 0 {
		t.Errorf("UnreachRcvd = %d, want 0 (no matching syn-sent connection)", c.UnreachRcvd)
	}
}

// TestUseTimeAddressExpiry pins RFC 4862 §5.5.4 enforcement at use
// time: with no further RAs arriving, an address past its preferred
// lifetime is offered deprecated, and past its valid lifetime it is
// withdrawn entirely — the decay the gateway-ra-outage pathology rides.
func TestUseTimeAddressExpiry(t *testing.T) {
	net := netsim.NewNetwork()
	h := New(net, "c", Behavior{Name: "c", IPv6Enabled: true})
	addr := netip.MustParseAddr("2001:db8::10")
	now := net.Clock.Now()
	h.v6Addrs = append(h.v6Addrs, V6Addr{
		Addr:           addr,
		Prefix:         netip.MustParsePrefix("2001:db8::/64"),
		PreferredUntil: now.Add(10 * time.Second),
		ValidUntil:     now.Add(20 * time.Second),
	})

	find := func() (deprecated, present bool) {
		for _, s := range h.candidateSources() {
			if s.Addr == addr {
				return s.Deprecated, true
			}
		}
		return false, false
	}
	if dep, ok := find(); !ok || dep {
		t.Fatalf("fresh address: present=%v deprecated=%v, want present and preferred", ok, dep)
	}
	net.RunFor(12 * time.Second)
	if dep, ok := find(); !ok || !dep {
		t.Fatalf("past preferred lifetime: present=%v deprecated=%v, want present and deprecated", ok, dep)
	}
	net.RunFor(10 * time.Second)
	if _, ok := find(); ok {
		t.Fatalf("past valid lifetime: address still offered")
	}
}
