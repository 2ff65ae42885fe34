package gateway5g

import (
	"net/netip"
	"testing"
	"time"

	"repro/internal/dns"
	"repro/internal/dnswire"
	"repro/internal/hoststack"
	"repro/internal/ndp"
	"repro/internal/netsim"
	"repro/internal/packet"
)

func carrierDNS() dns.Resolver {
	return dns.NewStatic(dnswire.RR{
		Name: "carrier.example", Type: dnswire.TypeA, TTL: 60,
		Addr: netip.MustParseAddr("198.51.100.9"),
	})
}

func testConfig() Config {
	return Config{
		LANv4:       netip.MustParseAddr("192.168.12.1"),
		LANv4Prefix: netip.MustParsePrefix("192.168.12.0/24"),
		PoolStart:   netip.MustParseAddr("192.168.12.50"),
		PoolEnd:     netip.MustParseAddr("192.168.12.99"),
		GUAPrefixes: []netip.Prefix{
			netip.MustParsePrefix("2607:fb90:9bda:a425::/64"),
			netip.MustParsePrefix("2607:fb90:1111:2222::/64"),
		},
		ULARDNSS:   []netip.Addr{netip.MustParseAddr("fd00:976a::9"), netip.MustParseAddr("fd00:976a::10")},
		WANv4:      netip.MustParseAddr("203.0.113.1"),
		WANv4NAT44: netip.MustParseAddr("203.0.113.2"),
		CarrierDNS: carrierDNS(),
	}
}

// lanClient builds a client cabled directly to the gateway's LAN port.
func lanClient(t *testing.T, net *netsim.Network, b hoststack.Behavior) (*Gateway, *hoststack.Host) {
	t.Helper()
	gw, err := New(net, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	c := hoststack.New(net, "client", b)
	net.Connect(gw.LANNIC(), c.NIC)
	return gw, c
}

func TestRAAdvertisesDeadULARDNSS(t *testing.T) {
	net := netsim.NewNetwork()
	gw, c := lanClient(t, net, hoststack.Behavior{Name: "c", IPv6Enabled: true, SupportsRDNSS: true})
	gw.Start()
	c.Start()
	net.RunFor(time.Second)

	// The client SLAACs the GUA and learns the (dead) ULA RDNSS.
	if len(c.IPv6GlobalAddrs()) != 1 || !gw.CurrentGUAPrefix().Contains(c.IPv6GlobalAddrs()[0]) {
		t.Errorf("addrs = %v", c.IPv6GlobalAddrs())
	}
	rd := c.RDNSS()
	if len(rd) != 2 || rd[0] != netip.MustParseAddr("fd00:976a::9") {
		t.Errorf("rdnss = %v", rd)
	}
	if gw.RAsSent == 0 {
		t.Error("no RAs sent")
	}
}

func TestBuiltInDHCPHasNoOption108(t *testing.T) {
	net := netsim.NewNetwork()
	gw, c := lanClient(t, net, hoststack.Behavior{
		Name: "c", IPv4Enabled: true, IPv6Enabled: true,
		SupportsRFC8925: true, HasCLAT: true, SupportsRDNSS: true,
	})
	gw.Start()
	c.Start()
	net.RunFor(time.Second)

	// Even an RFC 8925-capable client gets plain IPv4 from the gateway's
	// DHCP (option 108 cannot be configured on it).
	if !c.IPv4Addr().IsValid() {
		t.Fatal("client got no IPv4 from the built-in DHCP")
	}
	if c.IPv6OnlyActive() {
		t.Error("option 108 accepted from a server that cannot send it")
	}
	// The gateway hands out itself as the DNS server.
	if dnsList := c.V4DNS(); len(dnsList) != 1 || dnsList[0] != netip.MustParseAddr("192.168.12.1") {
		t.Errorf("dns = %v", dnsList)
	}
}

func TestDNSProxyAnswersOverV4(t *testing.T) {
	net := netsim.NewNetwork()
	gw, c := lanClient(t, net, hoststack.Behavior{Name: "c", IPv4Enabled: true})
	gw.Start()
	c.Start()
	net.RunFor(time.Second)

	resp, err := c.QueryDNS(netip.MustParseAddr("192.168.12.1"), "carrier.example", dnswire.TypeA)
	if err != nil {
		t.Fatalf("dns proxy: %v", err)
	}
	if len(resp.Answers) != 1 || resp.Answers[0].Addr != netip.MustParseAddr("198.51.100.9") {
		t.Errorf("answers = %+v", resp.Answers)
	}
}

func TestGatewayPingable(t *testing.T) {
	net := netsim.NewNetwork()
	gw, c := lanClient(t, net, hoststack.Behavior{Name: "c", IPv4Enabled: true})
	gw.Start()
	c.Start()
	net.RunFor(time.Second)

	res, err := c.Ping(netip.MustParseAddr("192.168.12.1"), time.Second)
	if err != nil {
		t.Fatalf("ping gateway: %v", err)
	}
	if res.From != netip.MustParseAddr("192.168.12.1") {
		t.Errorf("from %v", res.From)
	}
}

func TestRebootRotatesPrefixAndFlushesSessions(t *testing.T) {
	net := netsim.NewNetwork()
	gw, err := New(net, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	first := gw.CurrentGUAPrefix()
	gw.Reboot()
	if gw.CurrentGUAPrefix() == first {
		t.Error("prefix did not rotate")
	}
	gw.Reboot()
	if gw.CurrentGUAPrefix() != first {
		t.Error("prefix rotation should cycle")
	}
	if gw.NAT64.SessionCount() != 0 || gw.NAT44.SessionCount() != 0 {
		t.Error("translator state survived reboot")
	}
}

func TestRebootDropsLeasesAndDeprecatesOldPrefix(t *testing.T) {
	net := netsim.NewNetwork()
	gw, c := lanClient(t, net, hoststack.Behavior{Name: "c", IPv4Enabled: true})
	gw.Start()
	c.Start()
	net.RunFor(time.Second)
	if gw.DHCP.LeaseCount() != 1 {
		t.Fatalf("lease count = %d before reboot", gw.DHCP.LeaseCount())
	}

	// Snoop the LAN for the post-reboot RA.
	var ras []*ndp.RouterAdvert
	c.NIC.SetHandler(netsim.FrameHandlerFunc(func(_ *netsim.NIC, f netsim.Frame) {
		if f.EtherType != netsim.EtherTypeIPv6 {
			return
		}
		var p packet.IPv6
		if p.Decode(f.Payload) != nil || p.NextHeader != packet.ProtoICMPv6 {
			return
		}
		var ic packet.ICMP
		if ic.DecodeV6(p.Payload, p.Src, p.Dst) != nil || ic.Type != packet.ICMPv6RouterAdvert {
			return
		}
		if ra := new(ndp.RouterAdvert); ra.Decode(ic.Body) == nil {
			ras = append(ras, ra)
		}
	}))

	old := gw.CurrentGUAPrefix()
	gw.Reboot()
	net.RunFor(time.Second)

	if gw.RebootCount() != 1 {
		t.Errorf("RebootCount = %d", gw.RebootCount())
	}
	if gw.DHCP.LeaseCount() != 0 {
		t.Errorf("built-in DHCP kept %d leases across the reboot", gw.DHCP.LeaseCount())
	}
	if len(ras) == 0 {
		t.Fatal("no RA after reboot")
	}
	ra := ras[0]
	var sawNew, sawDeprecated bool
	for _, pi := range ra.Prefixes {
		switch pi.Prefix {
		case gw.CurrentGUAPrefix():
			sawNew = pi.PreferredLifetime > 0
		case old:
			sawDeprecated = pi.PreferredLifetime == 0 && pi.ValidLifetime > 0
		}
	}
	if !sawNew || !sawDeprecated {
		t.Errorf("post-reboot RA prefixes = %+v (new preferred: %v, old deprecated: %v)",
			ra.Prefixes, sawNew, sawDeprecated)
	}
}

func TestULASourceDroppedTowardsWAN(t *testing.T) {
	// A client with only a ULA source cannot use NAT64 or native v6 —
	// the carrier path drops it (why the testbed needs GUA SLAAC).
	net := netsim.NewNetwork()
	gw, c := lanClient(t, net, hoststack.Behavior{Name: "c", IPv6Enabled: true, SupportsRDNSS: true})
	// No gw.Start(): deny the GUA RA; configure only a static ULA.
	c.AddIPv6Static(netip.MustParseAddr("fd00:976a::77"), netip.MustParsePrefix("fd00:976a::/64"))
	c.PreloadNeighbor(netip.MustParseAddr("fe80::1"), gw.LANNIC().MAC())
	c.AddStaticRouteV6(netip.MustParseAddr("fe80::1"), gw.LANNIC().MAC())

	_, err := c.Ping(netip.MustParseAddr("64:ff9b::c633:6409"), 500*time.Millisecond)
	if err == nil {
		t.Error("ULA-sourced NAT64 traffic should be dropped")
	}
	if gw.DroppedULASrc == 0 {
		t.Error("drop counter untouched")
	}
}

func TestAdvertisePREF64(t *testing.T) {
	net := netsim.NewNetwork()
	cfg := testConfig()
	cfg.AdvertisePREF64 = true
	gw, err := New(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := hoststack.New(net, "c", hoststack.Behavior{Name: "c", IPv6Enabled: true, SupportsRDNSS: true})
	net.Connect(gw.LANNIC(), c.NIC)
	gw.Start()
	c.Start()
	net.RunFor(time.Second)

	want := netip.MustParsePrefix("64:ff9b::/96")
	if c.NAT64Prefix() != want {
		t.Errorf("client learned %v, want %v via PREF64", c.NAT64Prefix(), want)
	}
	// RFC 7050 discovery short-circuits without a DNS query.
	p, err := c.DiscoverNAT64Prefix()
	if err != nil || p != want {
		t.Errorf("discover = %v/%v", p, err)
	}
}

func TestOversizedLANPacketGetsPTB(t *testing.T) {
	net := netsim.NewNetwork()
	cfg := testConfig()
	cfg.WANMTU = 1480
	gw, err := New(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := hoststack.New(net, "c", hoststack.Behavior{Name: "c", IPv6Enabled: true, SupportsRDNSS: true})
	net.Connect(gw.LANNIC(), c.NIC)
	// Fake a WAN so forwarding is attempted.
	sink := net.NewNIC(nil)
	gw.ConnectWAN(sink)
	gw.Start()
	c.Start()
	net.RunFor(time.Second)

	gua := c.IPv6GlobalAddrs()
	if len(gua) == 0 {
		t.Fatal("no GUA")
	}
	dst := netip.MustParseAddr("2001:db8::1")
	payload := make([]byte, 1600) // a raw oversized UDP datagram suffices
	if _, err := c.SendUDP(dst, 9, payload, nil); err != nil {
		t.Fatal(err)
	}
	net.RunFor(time.Second)
	if gw.PTBSent != 1 {
		t.Errorf("PTBSent = %d, want 1", gw.PTBSent)
	}
	if got := c.PathMTU(dst); got != 1480 {
		t.Errorf("client PMTU = %d, want 1480", got)
	}
}

func TestConfigValidation(t *testing.T) {
	net := netsim.NewNetwork()
	bad := testConfig()
	bad.GUAPrefixes = nil
	if _, err := New(net, bad); err == nil {
		t.Error("missing GUA prefixes accepted")
	}
}

func TestNAT44DefaultsToSuccessorAddress(t *testing.T) {
	net := netsim.NewNetwork()
	cfg := testConfig()
	cfg.WANv4NAT44 = netip.Addr{}
	gw, err := New(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if gw.NAT44.Public() != netip.MustParseAddr("203.0.113.2") {
		t.Errorf("NAT44 egress = %v", gw.NAT44.Public())
	}
	if gw.NAT64Public() != netip.MustParseAddr("203.0.113.1") {
		t.Errorf("NAT64 egress = %v", gw.NAT64Public())
	}
}
