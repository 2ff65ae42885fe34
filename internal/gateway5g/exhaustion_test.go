package gateway5g

import (
	"bytes"
	"net/netip"
	"testing"
	"time"

	"repro/internal/dns64"
	"repro/internal/netsim"
	"repro/internal/packet"
)

// TestExhaustionSignaledToLAN pins the gateway's refusal path: when the
// NAT64 rejects a flow for lack of ports, the LAN sender receives an
// ICMPv6 Destination Unreachable (address unreachable, RFC 6146
// §3.5.1.1) sourced from the gateway, and both the translator's and the
// gateway's counters record it.
func TestExhaustionSignaledToLAN(t *testing.T) {
	net := netsim.NewNetwork()
	gw, err := New(net, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var replies []*packet.IPv6
	var tap *netsim.NIC
	tap = net.NewNIC(netsim.FrameHandlerFunc(func(_ *netsim.NIC, f netsim.Frame) {
		if f.EtherType != netsim.EtherTypeIPv6 {
			return
		}
		// The tap also hears RA beacons and NS probes; keep only errors,
		// decoded from a copy because the payload is only valid during
		// this call.
		p := new(packet.IPv6)
		if p.Decode(bytes.Clone(f.Payload)) == nil && p.NextHeader == packet.ProtoICMPv6 {
			var ic packet.ICMP
			if ic.DecodeV6(p.Payload, p.Src, p.Dst) == nil && ic.Type == packet.ICMPv6DestUnreachable {
				replies = append(replies, p)
			}
		}
	}))
	net.Connect(gw.LANNIC(), tap)
	wan := net.NewNIC(netsim.FrameHandlerFunc(func(*netsim.NIC, netsim.Frame) {}))
	gw.ConnectWAN(wan)
	gw.Start()
	gw.NAT64.MaxSessionsPerSource = 1

	src := netip.MustParseAddr("2607:fb90:9bda:a425::50")
	dst, err := dns64.Synthesize(dns64.WellKnownPrefix, netip.MustParseAddr("198.51.100.9"))
	if err != nil {
		t.Fatal(err)
	}
	send := func(sport uint16) {
		u := &packet.UDP{SrcPort: sport, DstPort: 53, Payload: []byte("q")}
		p := &packet.IPv6{NextHeader: packet.ProtoUDP, HopLimit: 64, Src: src, Dst: dst,
			Payload: u.Marshal(src, dst)}
		tap.Transmit(netsim.Frame{Dst: gw.LANNIC().MAC(), EtherType: netsim.EtherTypeIPv6, Payload: p.Marshal()})
		net.RunFor(10 * time.Millisecond)
	}
	send(5000) // binds the source's whole one-port block
	send(5001) // refused

	if gw.NAT64.PortsExhausted != 1 {
		t.Fatalf("NAT64.PortsExhausted = %d, want 1", gw.NAT64.PortsExhausted)
	}
	if gw.ExhaustionSignaled != 1 {
		t.Fatalf("ExhaustionSignaled = %d, want 1", gw.ExhaustionSignaled)
	}
	if gw.TrafficStats().NAT64PortsExhausted != 1 {
		t.Fatalf("TrafficStats().NAT64PortsExhausted = %d, want 1", gw.TrafficStats().NAT64PortsExhausted)
	}
	if len(replies) != 1 {
		t.Fatalf("LAN replies = %d, want exactly the refusal", len(replies))
	}
	r := replies[0]
	if r.Dst != src {
		t.Errorf("refusal sent to %v, want the offending source %v", r.Dst, src)
	}
	var ic packet.ICMP
	err = ic.DecodeV6(r.Payload, r.Src, r.Dst)
	if err != nil {
		t.Fatal(err)
	}
	if ic.Type != packet.ICMPv6DestUnreachable || ic.Code != packet.ICMPv6CodeAddrUnreachable {
		t.Errorf("refusal type/code = %d/%d, want DestUnreachable/AddrUnreachable", ic.Type, ic.Code)
	}
}
