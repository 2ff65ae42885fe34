package hoststack

import (
	"net/netip"
	"testing"
	"time"

	"repro/internal/dns"
	"repro/internal/dnswire"
	"repro/internal/ndp"
	"repro/internal/netsim"
)

// newTestNet returns a fresh fabric (shared helper for the extra tests).
func newTestNet() *netsim.Network { return netsim.NewNetwork() }

func TestNSLookupSuffixFirstThenPlain(t *testing.T) {
	net := newTestNet()
	client := New(net, "c", Behavior{Name: "c", IPv4Enabled: true, UseSuffixSearch: true})
	zone := dns.NewZone("example")
	zone.MustAdd(dnswire.RR{Name: "real", Type: dnswire.TypeA, TTL: 60, Addr: netip.MustParseAddr("198.51.100.5")})
	server := New(net, "dns", Behavior{Name: "dns", IPv4Enabled: true})
	AttachDNSServer(server, zone)
	lanWith(net, client, server)
	client.SetIPv4Static(netip.MustParseAddr("192.168.12.10"), lanPrefix, netip.Addr{})
	server.SetIPv4Static(netip.MustParseAddr("192.168.12.53"), lanPrefix, netip.Addr{})
	client.v4DNS = []netip.Addr{netip.MustParseAddr("192.168.12.53")}
	client.v4Domain = "example"

	// "real" is unqualified; nslookup tries real.example first and wins.
	ns, err := client.NSLookup("real", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if ns.Name != "real.example." || len(ns.Addrs) != 1 {
		t.Errorf("nslookup = %+v", ns)
	}
}

func TestNSLookupQualifiedNameSkipsSuffix(t *testing.T) {
	net := newTestNet()
	client := New(net, "c", Behavior{Name: "c", IPv4Enabled: true, UseSuffixSearch: true})
	zone := dns.NewZone("example")
	zone.MustAdd(dnswire.RR{Name: "real", Type: dnswire.TypeA, TTL: 60, Addr: netip.MustParseAddr("198.51.100.5")})
	server := New(net, "dns", Behavior{Name: "dns", IPv4Enabled: true})
	AttachDNSServer(server, zone)
	lanWith(net, client, server)
	client.SetIPv4Static(netip.MustParseAddr("192.168.12.10"), lanPrefix, netip.Addr{})
	server.SetIPv4Static(netip.MustParseAddr("192.168.12.53"), lanPrefix, netip.Addr{})
	client.v4DNS = []netip.Addr{netip.MustParseAddr("192.168.12.53")}
	client.v4Domain = "example"

	// Trailing dot: fully qualified, no suffix attempt.
	ns, err := client.NSLookup("real.example.", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if ns.Name != "real.example." || len(ns.Addrs) != 1 {
		t.Errorf("nslookup = %+v", ns)
	}
}

func TestPingUnreachableFamilies(t *testing.T) {
	net := newTestNet()
	v6only := New(net, "v6", Behavior{Name: "v6", IPv6Enabled: true, SupportsRDNSS: true})
	lanWith(net, v6only)
	v6only.AddIPv6Static(netip.MustParseAddr("fd00:976a::1"), ulaPrefix)

	if _, err := v6only.Ping(netip.MustParseAddr("192.0.2.1"), 100*time.Millisecond); err != ErrUnreachable {
		t.Errorf("v4 ping from v6-only host: err = %v, want ErrUnreachable", err)
	}

	v4only := New(net, "v4", Behavior{Name: "v4", IPv4Enabled: true})
	lanWith(net, v4only)
	v4only.SetIPv4Static(netip.MustParseAddr("192.168.12.10"), lanPrefix, netip.Addr{})
	if _, err := v4only.Ping(netip.MustParseAddr("2001:db8::1"), 100*time.Millisecond); err != ErrUnreachable {
		t.Errorf("v6 ping from v4-only host: err = %v, want ErrUnreachable", err)
	}
}

func TestPingTimeoutWhenNoAnswer(t *testing.T) {
	net := newTestNet()
	a := New(net, "a", serverBehavior())
	b := New(net, "b", serverBehavior())
	lanWith(net, a, b)
	a.AddIPv6Static(netip.MustParseAddr("fd00:976a::1"), ulaPrefix)
	b.AddIPv6Static(netip.MustParseAddr("fd00:976a::2"), ulaPrefix)

	// fd00:976a::99 is on-link but unowned: ND fails, ping times out.
	if _, err := a.Ping(netip.MustParseAddr("fd00:976a::99"), 200*time.Millisecond); err != ErrTimeout {
		t.Errorf("err = %v, want ErrTimeout", err)
	}
}

func TestResolversOrderPerBehavior(t *testing.T) {
	net := newTestNet()
	h := New(net, "c", Behavior{Name: "c", IPv4Enabled: true, IPv6Enabled: true, SupportsRDNSS: true})
	h.rdnss = []netip.Addr{netip.MustParseAddr("fd00:976a::9")}
	h.v4DNS = []netip.Addr{netip.MustParseAddr("192.168.12.253")}

	rs := h.Resolvers()
	if len(rs) != 2 || !rs[0].Is6() {
		t.Errorf("default order = %v, want RDNSS first", rs)
	}

	h.B.PreferIPv4DNS = true
	rs = h.Resolvers()
	if len(rs) != 2 || !rs[0].Is4() {
		t.Errorf("PreferIPv4DNS order = %v, want v4 first", rs)
	}

	h.DNSOverride = []netip.Addr{netip.MustParseAddr("9.9.9.9")}
	rs = h.Resolvers()
	if len(rs) != 1 || rs[0] != netip.MustParseAddr("9.9.9.9") {
		t.Errorf("override = %v", rs)
	}
}

func TestRouterExpiryRemovesDefaultRoute(t *testing.T) {
	net := newTestNet()
	client := New(net, "c", Behavior{Name: "c", IPv6Enabled: true, SupportsRDNSS: true})
	router := newRARouter(net, "gw", &ndp.RouterAdvert{
		RouterLifetime: 10 * time.Second,
		Prefixes: []ndp.PrefixInfo{{
			Prefix: netip.MustParsePrefix("2607:fb90:9bda:a425::/64"),
			OnLink: true, Autonomous: true,
			ValidLifetime: time.Hour, PreferredLifetime: time.Hour,
		}},
	})
	lanWith(net, client, router.host)
	router.advertise()
	net.RunFor(time.Second)

	if _, ok := client.bestRouter(); !ok {
		t.Fatal("router not learned")
	}
	net.RunFor(15 * time.Second) // past the 10s lifetime, no refresh
	if _, ok := client.bestRouter(); ok {
		t.Error("expired router still used as default")
	}
}

func TestLoopbackDelivery(t *testing.T) {
	net := newTestNet()
	h := New(net, "h", Behavior{Name: "h", IPv4Enabled: true, IPv6Enabled: true, SupportsRDNSS: true})
	lanWith(net, h)
	h.SetIPv4Static(netip.MustParseAddr("192.168.12.10"), lanPrefix, netip.Addr{})
	h.AddIPv6Static(netip.MustParseAddr("fd00:976a::1"), ulaPrefix)

	if res, err := h.Ping(netip.MustParseAddr("192.168.12.10"), time.Second); err != nil || !res.From.Is4() {
		t.Errorf("v4 self-ping: %v %v", res, err)
	}
	if res, err := h.Ping(netip.MustParseAddr("fd00:976a::1"), time.Second); err != nil || !res.From.Is6() {
		t.Errorf("v6 self-ping: %v %v", res, err)
	}
}

func TestQueryDNSIDMismatchRejected(t *testing.T) {
	net := newTestNet()
	client := New(net, "c", serverBehavior())
	evil := New(net, "evil", serverBehavior())
	lanWith(net, client, evil)
	client.AddIPv6Static(netip.MustParseAddr("fd00:976a::1"), ulaPrefix)
	evil.AddIPv6Static(netip.MustParseAddr("fd00:976a::66"), ulaPrefix)

	// A server that answers with the wrong transaction ID.
	evil.BindUDP(53, func(src netip.Addr, sport uint16, dst netip.Addr, payload []byte) {
		req, err := dnswire.Parse(payload)
		if err != nil {
			return
		}
		resp := dnswire.ReplyTo(req)
		resp.ID = req.ID + 1
		wire, _ := resp.Marshal()
		_ = evil.ReplyUDP(dst, src, 53, sport, wire)
	})

	if _, err := client.QueryDNS(netip.MustParseAddr("fd00:976a::66"), "x.test", dnswire.TypeA); err == nil {
		t.Error("mismatched DNS transaction ID accepted")
	}
}

func TestHostEventsTraceBringup(t *testing.T) {
	net := newTestNet()
	client := New(net, "c", Behavior{Name: "c", IPv6Enabled: true, SupportsRDNSS: true})
	router := newRARouter(net, "gw", &ndp.RouterAdvert{
		RouterLifetime: time.Hour,
		Prefixes: []ndp.PrefixInfo{{
			Prefix: netip.MustParsePrefix("2607:fb90:9bda:a425::/64"),
			OnLink: true, Autonomous: true, ValidLifetime: time.Hour, PreferredLifetime: time.Hour,
		}},
	})
	lanWith(net, client, router.host)
	router.advertise()
	net.RunFor(time.Second)

	var sawSLAAC, sawRouter bool
	for _, e := range client.Events() {
		if len(e) >= 5 && e[:5] == "slaac" {
			sawSLAAC = true
		}
		if len(e) >= 14 && e[:14] == "default router" {
			sawRouter = true
		}
	}
	if !sawSLAAC || !sawRouter {
		t.Errorf("trace missing events: %v", client.Events())
	}
}
