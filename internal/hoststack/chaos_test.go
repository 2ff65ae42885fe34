package hoststack

import (
	"net/netip"
	"testing"
	"time"

	"repro/internal/dhcp4"
	"repro/internal/dns"
	"repro/internal/dnswire"
	"repro/internal/ndp"
	"repro/internal/netsim"
	"repro/internal/packet"
)

// flakyDNSHost runs a resolver that silently drops the first `drop`
// queries and answers normally afterwards — a transiently lossy server.
// It returns the host and a pointer to the received-query counter.
func flakyDNSHost(net *netsim.Network, r dns.Resolver, drop int) (*Host, *int) {
	h := New(net, "flakydns", serverBehavior())
	seen := new(int)
	h.BindUDP(53, func(src netip.Addr, srcPort uint16, dst netip.Addr, payload []byte) {
		req, err := dnswire.Parse(payload)
		if err != nil || req.Response {
			return
		}
		*seen++
		if *seen <= drop {
			return // swallow: the client sees a timeout
		}
		resp := dns.Respond(r, req)
		wire, err := resp.Marshal()
		if err != nil {
			return
		}
		u := &packet.UDP{SrcPort: 53, DstPort: srcPort, Payload: wire}
		p := &packet.IPv6{NextHeader: packet.ProtoUDP, HopLimit: 64, Src: dst, Dst: src, Payload: u.Marshal(dst, src)}
		_ = h.SendIPv6(p)
	})
	return h, seen
}

func TestLookupRetriesAfterTransientTimeout(t *testing.T) {
	// One resolver that loses the first datagram. A single res_send-style
	// walk would surface the timeout as a permanent failure; the retry
	// round must re-ask and succeed.
	net := netsim.NewNetwork()
	client := New(net, "c", serverBehavior())
	zone := dns.NewZone("example")
	zone.MustAdd(dnswire.RR{Name: "x", Type: dnswire.TypeAAAA, TTL: 60, Addr: netip.MustParseAddr("2001:db8::1")})
	server, seen := flakyDNSHost(net, zone, 1)
	lanWith(net, client, server)
	client.AddIPv6Static(netip.MustParseAddr("fd00:976a::1"), ulaPrefix)
	server.AddIPv6Static(netip.MustParseAddr("fd00:976a::9"), ulaPrefix)
	client.DNSOverride = []netip.Addr{netip.MustParseAddr("fd00:976a::9")}

	res, err := client.Lookup("x.example")
	if err != nil {
		t.Fatalf("lookup did not survive one lost datagram: %v", err)
	}
	if got, _ := res.BestAddr(); got != netip.MustParseAddr("2001:db8::1") {
		t.Errorf("addr = %v", got)
	}
	if *seen != 2 {
		t.Errorf("server saw %d queries, want 2 (dropped + retried)", *seen)
	}
}

func TestLookupDoesNotRetryTerminalAnswer(t *testing.T) {
	// A clean NXDOMAIN is final: retry rounds must not re-ask, so healthy
	// worlds stay byte-identical to the pre-retry behaviour.
	net := netsim.NewNetwork()
	client := New(net, "c", serverBehavior())
	zone := dns.NewZone("example") // empty: every name is NXDOMAIN
	server, seen := flakyDNSHost(net, zone, 0)
	lanWith(net, client, server)
	client.AddIPv6Static(netip.MustParseAddr("fd00:976a::1"), ulaPrefix)
	server.AddIPv6Static(netip.MustParseAddr("fd00:976a::9"), ulaPrefix)
	client.DNSOverride = []netip.Addr{netip.MustParseAddr("fd00:976a::9")}

	if _, err := client.Lookup("missing.example"); err == nil {
		t.Fatal("lookup of missing name succeeded")
	}
	if *seen != 1 {
		t.Errorf("server saw %d queries, want 1 (no retry on NXDOMAIN)", *seen)
	}
}

func TestDHCPRetransmitBindsAfterLateServer(t *testing.T) {
	// The server appears 6 s after the client's first DISCOVER. Without
	// RFC 2131 retransmission the client would wedge forever; with it the
	// 12 s retry (4+8) finds the server and completes DORA.
	net := netsim.NewNetwork()
	client := New(net, "pc", Behavior{Name: "pc", IPv4Enabled: true})
	sw := lanWith(net, client)
	client.Start()
	net.RunFor(6 * time.Second)
	if client.IPv4Addr().IsValid() {
		t.Fatal("bound with no server on the wire")
	}

	serverHost, _ := dhcpServerHost(net, t, dhcp4.ServerConfig{
		ServerID:   netip.MustParseAddr("192.168.12.250"),
		PoolStart:  netip.MustParseAddr("192.168.12.100"),
		PoolEnd:    netip.MustParseAddr("192.168.12.199"),
		SubnetMask: netip.MustParseAddr("255.255.255.0"),
	})
	sw.AttachPort(serverHost.NIC)
	net.RunFor(10 * time.Second)

	if !client.IPv4Addr().IsValid() {
		t.Fatal("client never bound despite retransmission")
	}
	if countEvents(client, "retransmit #") == 0 {
		t.Error("bind succeeded without counting any retransmit")
	}
}

func TestDHCPBindsThroughLossyLink(t *testing.T) {
	// Heavy but deterministic loss on the client's link: retransmission
	// must eventually push a full DORA exchange through.
	net := netsim.NewNetwork()
	client := New(net, "pc", Behavior{Name: "pc", IPv4Enabled: true})
	serverHost, _ := dhcpServerHost(net, t, dhcp4.ServerConfig{
		ServerID:   netip.MustParseAddr("192.168.12.250"),
		PoolStart:  netip.MustParseAddr("192.168.12.100"),
		PoolEnd:    netip.MustParseAddr("192.168.12.199"),
		SubnetMask: netip.MustParseAddr("255.255.255.0"),
	})
	lanWith(net, client, serverHost)
	client.NIC.SetImpairment(netsim.Impairment{Loss: 0.5}, 7)

	client.Start()
	net.RunFor(2 * time.Minute)

	if !client.IPv4Addr().IsValid() {
		t.Fatal("client never bound through the lossy link")
	}
	if countEvents(client, "retransmit #") == 0 {
		t.Error("no retransmits recorded on a 50%-loss link")
	}
}

func TestRenumberingDeprecatesOldPrefix(t *testing.T) {
	// A gateway reboot renumbers the LAN: the next RA advertises a fresh
	// prefix and deprecates the old one (preferred lifetime 0). The host
	// must keep the old address (valid lifetime > 0) but flag it
	// deprecated so RFC 6724 rule 3 steers new flows to the new GUA.
	net := netsim.NewNetwork()
	client := New(net, "client", Behavior{Name: "c", IPv6Enabled: true, SupportsRDNSS: true})
	oldPfx := netip.MustParsePrefix("2607:fb90:9bda:a425::/64")
	newPfx := netip.MustParsePrefix("2607:fb90:1111:2222::/64")
	router := newRARouter(net, "gw", &ndp.RouterAdvert{
		RouterLifetime: 30 * time.Minute,
		Prefixes: []ndp.PrefixInfo{{
			Prefix: oldPfx, OnLink: true, Autonomous: true,
			ValidLifetime: 2 * time.Hour, PreferredLifetime: time.Hour,
		}},
	})
	lanWith(net, client, router.host)
	router.advertise()
	net.RunFor(time.Second)
	if got := client.IPv6GlobalAddrs(); len(got) != 1 || !oldPfx.Contains(got[0]) {
		t.Fatalf("pre-reboot addrs = %v", got)
	}

	// The post-reboot RA: new prefix preferred, old prefix deprecated.
	router.ra.Prefixes = []ndp.PrefixInfo{
		{Prefix: newPfx, OnLink: true, Autonomous: true,
			ValidLifetime: 2 * time.Hour, PreferredLifetime: time.Hour},
		{Prefix: oldPfx, OnLink: true, Autonomous: true,
			ValidLifetime: 2 * time.Hour, PreferredLifetime: 0},
	}
	router.advertise()
	net.RunFor(time.Second)

	var sawOld, sawNew bool
	for _, a := range client.V6Addresses() {
		switch {
		case oldPfx.Contains(a.Addr):
			sawOld = true
			if !a.Deprecated {
				t.Errorf("old addr %v not deprecated", a.Addr)
			}
		case newPfx.Contains(a.Addr):
			sawNew = true
			if a.Deprecated {
				t.Errorf("new addr %v deprecated", a.Addr)
			}
		}
	}
	if !sawOld || !sawNew {
		t.Fatalf("addrs = %+v (old present: %v, new present: %v)", client.V6Addresses(), sawOld, sawNew)
	}
}

func TestPreferredLifetimeExpiryDeprecates(t *testing.T) {
	// Lifetimes age lazily, evaluated when router information next
	// arrives: a short preferred lifetime that lapses before the next RA
	// deprecates the address without removing it.
	net := netsim.NewNetwork()
	client := New(net, "client", Behavior{Name: "c", IPv6Enabled: true, SupportsRDNSS: true})
	oldPfx := netip.MustParsePrefix("2607:fb90:9bda:a425::/64")
	newPfx := netip.MustParsePrefix("2607:fb90:1111:2222::/64")
	router := newRARouter(net, "gw", &ndp.RouterAdvert{
		RouterLifetime: 30 * time.Minute,
		Prefixes: []ndp.PrefixInfo{{
			Prefix: oldPfx, OnLink: true, Autonomous: true,
			ValidLifetime: time.Hour, PreferredLifetime: 2 * time.Second,
		}},
	})
	lanWith(net, client, router.host)
	router.advertise()
	net.RunFor(3 * time.Second) // past the preferred deadline

	// A later RA that no longer mentions the old prefix triggers aging.
	router.ra.Prefixes = []ndp.PrefixInfo{{
		Prefix: newPfx, OnLink: true, Autonomous: true,
		ValidLifetime: 2 * time.Hour, PreferredLifetime: time.Hour,
	}}
	router.advertise()
	net.RunFor(time.Second)

	var old *V6Addr
	for _, a := range client.V6Addresses() {
		if oldPfx.Contains(a.Addr) {
			b := a
			old = &b
		}
	}
	if old == nil {
		t.Fatal("old addr removed while still valid")
	}
	if !old.Deprecated {
		t.Errorf("old addr %v survived past its preferred lifetime undeprecated", old.Addr)
	}
}
