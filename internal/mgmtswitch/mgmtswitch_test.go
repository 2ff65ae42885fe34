package mgmtswitch

import (
	"bytes"
	"net/netip"
	"testing"
	"time"

	"repro/internal/hoststack"
	"repro/internal/ndp"
	"repro/internal/netsim"
	"repro/internal/packet"
)

var ula = netip.MustParsePrefix("fd00:976a::/64")

func newTestSwitch(net *netsim.Network, cfg Config) *Switch {
	return New(net, cfg)
}

func TestULARAGivesClientsSLAAC(t *testing.T) {
	net := netsim.NewNetwork()
	sw := newTestSwitch(net, Config{ULAPrefix: ula, AdvertiseULA: true})
	c := hoststack.New(net, "c", hoststack.Behavior{Name: "c", IPv6Enabled: true, SupportsRDNSS: true})
	sw.AttachPort(c.NIC)

	sw.Start()
	c.Start()
	net.RunFor(time.Second)

	addrs := c.IPv6GlobalAddrs()
	if len(addrs) != 1 || !ula.Contains(addrs[0]) {
		t.Errorf("addrs = %v", addrs)
	}
	if sw.RAsSent == 0 {
		t.Error("no RAs sent")
	}
}

func TestRSTriggersImmediateRA(t *testing.T) {
	net := netsim.NewNetwork()
	sw := newTestSwitch(net, Config{ULAPrefix: ula, AdvertiseULA: true})
	c := hoststack.New(net, "c", hoststack.Behavior{Name: "c", IPv6Enabled: true, SupportsRDNSS: true})
	sw.AttachPort(c.NIC)

	// No Start(): no beacon for an hour. The client's RS must provoke one.
	c.Start()
	net.RunFor(time.Second)
	if len(c.IPv6GlobalAddrs()) != 1 {
		t.Errorf("RS did not provoke an RA: %v", c.IPv6GlobalAddrs())
	}
}

func TestSwitchRAIsLowPreference(t *testing.T) {
	net := netsim.NewNetwork()
	sw := newTestSwitch(net, Config{ULAPrefix: ula, AdvertiseULA: true})
	var captured []netsim.Frame
	sink := net.NewNIC(netsim.FrameHandlerFunc(func(_ *netsim.NIC, f netsim.Frame) {
		f.Payload = bytes.Clone(f.Payload) // valid only during this call
		captured = append(captured, f)
	}))
	sw.AttachPort(sink)
	sw.Start()
	// The beacon re-arms itself, so run one interval, not to quiescence.
	net.RunFor(ndp.RAInterval)

	if len(captured) == 0 {
		t.Fatal("no RA captured")
	}
	var p packet.IPv6
	err := p.Decode(captured[0].Payload)
	if err != nil {
		t.Fatal(err)
	}
	var ic packet.ICMP
	err = ic.DecodeV6(p.Payload, p.Src, p.Dst)
	if err != nil || ic.Type != packet.ICMPv6RouterAdvert {
		t.Fatalf("not an RA: %v %d", err, ic.Type)
	}
	// Preference bits 01x in byte1: low preference = 0b11 in bits 3-4.
	if ic.Body[1]>>3&0x3 != 0x3 {
		t.Errorf("RA flags %#02x: not low preference", ic.Body[1])
	}
}

// dhcpOfferFrame fabricates a DHCP server->client frame.
func dhcpOfferFrame(srcMAC netsim.MAC) netsim.Frame {
	src := netip.MustParseAddr("192.168.12.1")
	dst := netip.MustParseAddr("255.255.255.255")
	u := &packet.UDP{SrcPort: 67, DstPort: 68, Payload: make([]byte, 300)}
	p := &packet.IPv4{Protocol: packet.ProtoUDP, TTL: 64, Src: src, Dst: dst, Payload: u.Marshal(src, dst)}
	return netsim.Frame{Src: srcMAC, Dst: netsim.Broadcast, EtherType: netsim.EtherTypeIPv4, Payload: p.Marshal()}
}

func TestSnoopingBlocksUntrustedPortOnly(t *testing.T) {
	net := netsim.NewNetwork()
	sw := newTestSwitch(net, Config{ULAPrefix: ula, SnoopDHCP: true})

	var got []netsim.Frame
	rogueNIC := net.NewNIC(nil)
	trustedNIC := net.NewNIC(nil)
	clientNIC := net.NewNIC(netsim.FrameHandlerFunc(func(_ *netsim.NIC, f netsim.Frame) {
		got = append(got, f)
	}))
	roguePort := sw.AttachPort(rogueNIC)
	sw.AttachPort(trustedNIC)
	sw.AttachPort(clientNIC)
	sw.BlockDHCPFrom(roguePort)

	rogueNIC.Transmit(dhcpOfferFrame(rogueNIC.MAC()))
	net.Run(0)
	if len(got) != 0 {
		t.Fatalf("snooped frame delivered: %d", len(got))
	}
	if sw.SnoopedDrops != 1 {
		t.Errorf("SnoopedDrops = %d", sw.SnoopedDrops)
	}

	trustedNIC.Transmit(dhcpOfferFrame(trustedNIC.MAC()))
	net.Run(0)
	if len(got) != 1 {
		t.Errorf("trusted DHCP blocked: got %d frames", len(got))
	}
}

func TestSnoopingPassesClientRequests(t *testing.T) {
	net := netsim.NewNetwork()
	sw := newTestSwitch(net, Config{ULAPrefix: ula, SnoopDHCP: true})
	var got []netsim.Frame
	gwNIC := net.NewNIC(netsim.FrameHandlerFunc(func(_ *netsim.NIC, f netsim.Frame) {
		got = append(got, f)
	}))
	clientNIC := net.NewNIC(nil)
	gwPort := sw.AttachPort(gwNIC)
	sw.AttachPort(clientNIC)
	sw.BlockDHCPFrom(gwPort)

	// Client DISCOVER (src port 68) must flow even toward the blocked port.
	src := netip.AddrFrom4([4]byte{})
	dst := netip.MustParseAddr("255.255.255.255")
	u := &packet.UDP{SrcPort: 68, DstPort: 67, Payload: make([]byte, 300)}
	p := &packet.IPv4{Protocol: packet.ProtoUDP, TTL: 64, Src: src, Dst: dst, Payload: u.Marshal(src, dst)}
	clientNIC.Transmit(netsim.Frame{Dst: netsim.Broadcast, EtherType: netsim.EtherTypeIPv4, Payload: p.Marshal()})
	net.Run(0)
	if len(got) != 1 {
		t.Errorf("client DHCP request dropped (got %d)", len(got))
	}
}
