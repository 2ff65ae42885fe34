package testbed

import (
	"fmt"
	"net/netip"
	"strconv"
	"strings"
	"time"

	"repro/internal/dhcp4"
	"repro/internal/dns"
	"repro/internal/dns64"
	"repro/internal/dnspoison"
	"repro/internal/dnswire"
	"repro/internal/gateway5g"
	"repro/internal/hoststack"
	"repro/internal/httpsim"
	"repro/internal/inet"
	"repro/internal/mgmtswitch"
	"repro/internal/netsim"
	"repro/internal/portal"
)

// Topology is the declarative description of a Fig. 4 world: LAN
// addressing, the 5G gateway, the managed switch, the three Raspberry
// Pi roles, the public internet sites and any clients to bring up after
// settle. Build assembles a spec into a running Testbed; zero-valued
// fields take the paper's deployment values, so Build(Topology{Opt:
// opt}) is exactly the classic New(opt) world. Specs are plain data —
// copy one, tweak a field, and Build again to get an independent world.
type Topology struct {
	Opt Options

	// LANPrefix is the IPv4 LAN subnet; GatewayLANv4 the gateway's
	// address inside it (DHCP router option, DNS proxy).
	LANPrefix    netip.Prefix
	GatewayLANv4 netip.Addr

	Gateway GatewaySpec
	Switch  SwitchSpec
	Pis     PiSpec

	// Sites are the generic public IPv4/IPv6 HTTP sites. The structural
	// endpoints the experiments depend on (the test-ipv6 mirror, ip6.me,
	// ipv4only.arpa, the Echolink UDP service) are always present.
	Sites []SiteSpec

	// Clients are brought up in order after the infrastructure settles,
	// exactly as successive AddClient calls would.
	Clients []ClientSpec

	// SettleTime is how long beacons and server bring-up are given
	// before Build returns (default one second).
	SettleTime time.Duration

	// Impair, when any knob is set, is applied to every client NIC at
	// attach time. Each client's PRNG streams are seeded from ChaosSeed
	// and the client's name (chaosSeed), so an impaired population
	// produces identical per-client draws across serial and sharded runs.
	// Infrastructure links (gateway, switch, Pis) stay pristine: the
	// chaos model degrades the access edge, not the testbed's spine.
	Impair netsim.Impairment
	// ChaosSeed is the base seed for per-client impairment streams.
	ChaosSeed uint64

	// Fabric, when populated, grows the world into a two-tier routed
	// fabric: access switches trunked into the managed switch, flood
	// scoping per access domain, per-domain DHCP sub-pools, and a lazy
	// struct-of-arrays client table (see fabric.go). Zero value = the
	// classic flat world, bit-identical to pre-fabric builds.
	Fabric FabricSpec
}

// GatewaySpec parameterizes the 5G mobile internet gateway.
type GatewaySpec struct {
	// WANv4 is the NAT64 egress; WANv4NAT44 the legacy NAT44 egress.
	WANv4, WANv4NAT44 netip.Addr
	// GUAPrefixes is the carrier /64 rotation advertised in RAs.
	GUAPrefixes []netip.Prefix
	// PoolStart/PoolEnd bound the gateway's built-in DHCPv4 pool (the
	// one the managed switch snoops away under Options.SnoopDHCP).
	PoolStart, PoolEnd netip.Addr
	// WANMTU is the 5G link MTU: 0 means the deployment's 1480,
	// negative disables the limit entirely.
	WANMTU int
	// RAInterval overrides the unsolicited RA beacon period (default 10s).
	RAInterval time.Duration
	// DHCPLeaseTime overrides the built-in server's one-hour lease.
	DHCPLeaseTime time.Duration
	// NAT64*Timeout override the translator session lifetimes (zero =
	// RFC 6146 defaults). ScaleTopology stretches these so live-session
	// counts become position-independent across shards.
	NAT64UDPTimeout      time.Duration
	NAT64TCPTimeout      time.Duration
	NAT64TCPTransTimeout time.Duration
	NAT64ICMPTimeout     time.Duration
}

// SwitchSpec parameterizes the managed access switch.
type SwitchSpec struct {
	Name string
	// ULAPrefix is the switch's low-priority RA prefix (intervention #2).
	ULAPrefix netip.Prefix
}

// PiSpec places the three Raspberry Pi servers.
type PiSpec struct {
	// The healthy BIND9 DNS64 server's addresses.
	HealthyV6, HealthyV6B, HealthyV4 netip.Addr
	// The poisoned dnsmasq server's IPv4 address.
	PoisonV4 netip.Addr
	// The DHCP Pi's address and its pool/lease/option configuration.
	DHCPV4             netip.Addr
	PoolStart, PoolEnd netip.Addr
	LeaseTime          time.Duration
	// V6OnlyWait is the option 108 value offered when Options.Option108
	// is set (default 30 minutes, the paper's deployment).
	V6OnlyWait time.Duration
	DomainName string
}

// SiteSpec is one public HTTP site: a name, its addresses (either
// family may be absent) and a static page body served on every request.
type SiteSpec struct {
	Name   string
	V4, V6 netip.Addr
	Body   string
}

// ClientSpec declares a client to attach during Build.
type ClientSpec struct {
	Name     string
	Behavior hoststack.Behavior
}

// DefaultSites returns the paper's three generic sites: the SC24
// homepage, the enterprise VPN gateway and the IPv4-only VTC provider.
func DefaultSites() []SiteSpec {
	return []SiteSpec{
		{Name: "sc24.supercomputing.org", V4: SC24V4, Body: "SC24 | The International Conference for HPC\n"},
		{Name: "vpn.anl.gov", V4: VPNGwV4, Body: "Argonne VPN gateway\n"},
		{Name: "vtc.example.com", V4: VTCV4, Body: "VTC provider (IPv4-only)\n"},
	}
}

// DefaultTopology returns the spec Build turns into the classic New(opt)
// world: every field carries the SC24 deployment's value.
func DefaultTopology(opt Options) Topology {
	if !opt.RedirectV4.IsValid() {
		opt.RedirectV4 = IP6MeV4
	}
	return Topology{
		Opt:          opt,
		LANPrefix:    LANPrefix,
		GatewayLANv4: GatewayLANv4,
		Gateway: GatewaySpec{
			WANv4:       GatewayWANv4,
			WANv4NAT44:  GatewayNAT44v4,
			GUAPrefixes: []netip.Prefix{GUAPrefixA, GUAPrefixB},
			PoolStart:   netip.MustParseAddr("192.168.12.50"),
			PoolEnd:     netip.MustParseAddr("192.168.12.99"),
			WANMTU:      1480, // the 5G link's encapsulation overhead
		},
		Switch: SwitchSpec{Name: "mgmt-switch", ULAPrefix: ULAPrefix},
		Pis: PiSpec{
			HealthyV6:  HealthyV6,
			HealthyV6B: HealthyV6B,
			HealthyV4:  HealthyV4,
			PoisonV4:   PoisonV4,
			DHCPV4:     DHCPPiV4,
			PoolStart:  netip.MustParseAddr("192.168.12.100"),
			PoolEnd:    netip.MustParseAddr("192.168.12.199"),
			LeaseTime:  time.Hour,
			V6OnlyWait: 30 * time.Minute,
			DomainName: "rfc8925.com",
		},
		Sites:      DefaultSites(),
		SettleTime: time.Second,
	}
}

// ScaleTopology provisions a world for populations of n clients: the
// LAN widens to a /16, both DHCP pools move to roomy disjoint ranges
// sized for n, and leases plus NAT64 session lifetimes stretch far past
// any run's virtual duration. With no pool exhaustion and no mid-run
// expiry, every device's outcome is independent of its position in the
// run order — the precondition under which a sharded run's merged
// report equals the serial report field for field.
func ScaleTopology(opt Options, n int) Topology {
	t := DefaultTopology(opt)
	t.LANPrefix = netip.MustParsePrefix("192.168.0.0/16")

	// The Pi pool starts at 192.168.16.1 and is sized for the whole
	// population with headroom; the gateway pool sits above it. Both
	// stay clear of the 192.168.12.x infrastructure addresses.
	capacity := 2 * n
	if capacity < 256 {
		capacity = 256
	}
	if capacity > 12000 {
		capacity = 12000
	}
	t.Pis.PoolStart = netip.MustParseAddr("192.168.16.1")
	t.Pis.PoolEnd = addrPlus(t.Pis.PoolStart, capacity)
	t.Pis.LeaseTime = 240 * time.Hour
	t.Gateway.PoolStart = netip.MustParseAddr("192.168.128.1")
	t.Gateway.PoolEnd = addrPlus(t.Gateway.PoolStart, capacity)
	t.Gateway.DHCPLeaseTime = 240 * time.Hour

	const never = 10 * 365 * 24 * time.Hour
	t.Gateway.NAT64UDPTimeout = never
	t.Gateway.NAT64TCPTimeout = never
	t.Gateway.NAT64TCPTransTimeout = never
	t.Gateway.NAT64ICMPTimeout = never
	return t
}

// addrPlus returns the IPv4 address n steps after a.
func addrPlus(a netip.Addr, n int) netip.Addr {
	b := a.As4()
	v := uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
	v += uint32(n)
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

// maskFor renders a prefix length as a dotted-quad subnet mask.
func maskFor(p netip.Prefix) netip.Addr {
	var m uint32
	if p.Bits() > 0 {
		m = ^uint32(0) << (32 - p.Bits())
	}
	return netip.AddrFrom4([4]byte{byte(m >> 24), byte(m >> 16), byte(m >> 8), byte(m)})
}

// withDefaults fills zero-valued fields from DefaultTopology, so sparse
// specs (Topology{Opt: opt}) behave like the classic constructor.
func (spec Topology) withDefaults() Topology {
	def := DefaultTopology(spec.Opt)
	spec.Opt = def.Opt // applies the RedirectV4 default
	if !spec.LANPrefix.IsValid() {
		spec.LANPrefix = def.LANPrefix
	}
	if !spec.GatewayLANv4.IsValid() {
		spec.GatewayLANv4 = def.GatewayLANv4
	}
	g, dg := &spec.Gateway, def.Gateway
	if !g.WANv4.IsValid() {
		g.WANv4 = dg.WANv4
	}
	if !g.WANv4NAT44.IsValid() {
		g.WANv4NAT44 = dg.WANv4NAT44
	}
	if len(g.GUAPrefixes) == 0 {
		g.GUAPrefixes = dg.GUAPrefixes
	}
	if !g.PoolStart.IsValid() {
		g.PoolStart = dg.PoolStart
	}
	if !g.PoolEnd.IsValid() {
		g.PoolEnd = dg.PoolEnd
	}
	if g.WANMTU == 0 {
		g.WANMTU = dg.WANMTU
	}
	if spec.Switch.Name == "" {
		spec.Switch.Name = def.Switch.Name
	}
	if !spec.Switch.ULAPrefix.IsValid() {
		spec.Switch.ULAPrefix = def.Switch.ULAPrefix
	}
	p, dp := &spec.Pis, def.Pis
	if !p.HealthyV6.IsValid() {
		p.HealthyV6 = dp.HealthyV6
	}
	if !p.HealthyV6B.IsValid() {
		p.HealthyV6B = dp.HealthyV6B
	}
	if !p.HealthyV4.IsValid() {
		p.HealthyV4 = dp.HealthyV4
	}
	if !p.PoisonV4.IsValid() {
		p.PoisonV4 = dp.PoisonV4
	}
	if !p.DHCPV4.IsValid() {
		p.DHCPV4 = dp.DHCPV4
	}
	if !p.PoolStart.IsValid() {
		p.PoolStart = dp.PoolStart
	}
	if !p.PoolEnd.IsValid() {
		p.PoolEnd = dp.PoolEnd
	}
	if p.LeaseTime == 0 {
		p.LeaseTime = dp.LeaseTime
	}
	if p.V6OnlyWait == 0 {
		p.V6OnlyWait = dp.V6OnlyWait
	}
	if p.DomainName == "" {
		p.DomainName = dp.DomainName
	}
	if spec.Sites == nil {
		spec.Sites = def.Sites
	}
	if spec.SettleTime == 0 {
		spec.SettleTime = def.SettleTime
	}
	if spec.Fabric.Enabled() && spec.Fabric.DomainStride == 0 {
		spec.Fabric.DomainStride = 1024
	}
	return spec
}

// validate rejects specs Build cannot assemble into a coherent world.
func (spec Topology) validate() error {
	if !spec.LANPrefix.Addr().Is4() {
		return fmt.Errorf("testbed: LAN prefix %v must be IPv4", spec.LANPrefix)
	}
	if !spec.LANPrefix.Contains(spec.GatewayLANv4) {
		return fmt.Errorf("testbed: gateway %v outside LAN %v", spec.GatewayLANv4, spec.LANPrefix)
	}
	for _, a := range []struct {
		name string
		addr netip.Addr
	}{
		{"healthy Pi v4", spec.Pis.HealthyV4},
		{"poisoned Pi v4", spec.Pis.PoisonV4},
		{"DHCP Pi v4", spec.Pis.DHCPV4},
	} {
		if !spec.LANPrefix.Contains(a.addr) {
			return fmt.Errorf("testbed: %s address %v outside LAN %v", a.name, a.addr, spec.LANPrefix)
		}
	}
	for _, pool := range []struct {
		name       string
		start, end netip.Addr
	}{
		{"gateway DHCP", spec.Gateway.PoolStart, spec.Gateway.PoolEnd},
		{"Pi DHCP", spec.Pis.PoolStart, spec.Pis.PoolEnd},
	} {
		if pool.start.Compare(pool.end) > 0 {
			return fmt.Errorf("testbed: %s pool %v..%v inverted", pool.name, pool.start, pool.end)
		}
		if !spec.LANPrefix.Contains(pool.start) || !spec.LANPrefix.Contains(pool.end) {
			return fmt.Errorf("testbed: %s pool %v..%v outside LAN %v", pool.name, pool.start, pool.end, spec.LANPrefix)
		}
	}
	for _, s := range spec.Sites {
		if s.Name == "" {
			return fmt.Errorf("testbed: site with empty name")
		}
		if !s.V4.IsValid() && !s.V6.IsValid() {
			return fmt.Errorf("testbed: site %s has no address", s.Name)
		}
	}
	return spec.validateFabric()
}

// Build assembles a spec into a running, settled world. Unlike the
// panicking New, every construction failure comes back as an error and
// nothing is half-started: the caller either gets a working Testbed or
// nil. The returned world is independent of every other Build result —
// its fabric, clock and MAC space are private — so worlds can be
// simulated on separate goroutines without synchronization.
func Build(spec Topology) (*Testbed, error) {
	spec = spec.withDefaults()
	if err := spec.validate(); err != nil {
		return nil, err
	}
	tb := &Testbed{Opt: spec.Opt, Spec: spec, Net: netsim.NewNetwork()}

	// The internet and its sites.
	tb.Internet = inet.New(tb.Net)
	tb.Mirror = portal.MirrorConfig{
		Name: "test-ipv6.com",
		V4:   MirrorV4, V6: MirrorV6,
		V4Only: MirrorV4Only, V6Only: MirrorV6Only,
		NAT64PublicV4: spec.Gateway.WANv4,
	}
	mh := portal.MirrorHandler(tb.Mirror)
	mirrorSite := tb.Internet.AddSite(tb.Mirror.Name, MirrorV4, MirrorV6, mh)
	tb.Internet.AddSubdomain(mirrorSite, "ipv4", MirrorV4Only, netip.Addr{}, mh)
	tb.Internet.AddSubdomain(mirrorSite, "ipv6", netip.Addr{}, MirrorV6Only, mh)
	tb.Internet.AddSubdomain(mirrorSite, "ds", MirrorV4, MirrorV6, nil)
	tb.Internet.AddSubdomain(mirrorSite, "mtu6", netip.Addr{}, MirrorV6Only, nil)
	tb.Internet.AddSubdomain(mirrorSite, "ns6", netip.Addr{}, MirrorV6Only, nil)

	// RFC 7050: the well-known ipv4only.arpa records let CLAT clients
	// discover the NAT64 prefix from the DNS64's synthesized answer.
	arpaSite := tb.Internet.AddSite("ipv4only.arpa", netip.MustParseAddr("192.0.0.170"), netip.Addr{}, nil)
	arpaSite.Zone.MustAdd(dnswire.RR{Name: "@", Type: dnswire.TypeA, TTL: 300, Addr: netip.MustParseAddr("192.0.0.171")})

	tb.Internet.AddSite("ip6.me", IP6MeV4, IP6MeV6, portal.IP6MeHandler())
	// The IPv4-only streaming CDN. Flow geometry rides in the path as
	// /flow/<total-bytes>/<chunk-bytes>/<pace-ms>, so one site serves
	// every traffic shape a scenario asks for.
	tb.Internet.AddSite(StreamCDNName, StreamCDNV4, netip.Addr{}, streamCDNSite())
	for _, s := range spec.Sites {
		var h httpsim.Handler
		if s.Body != "" {
			h = staticSite(s.Body)
		}
		tb.Internet.AddSite(s.Name, s.V4, s.V6, h)
	}
	tb.Internet.BindUDPService(EcholinkV4, EcholinkPort,
		func(src netip.Addr, srcPort uint16, dst netip.Addr, payload []byte) {
			reply := append([]byte("echolink:"), payload...)
			_ = tb.Internet.Host.ReplyUDP(dst, src, EcholinkPort, srcPort, reply)
		})

	// The 5G gateway.
	wanMTU := spec.Gateway.WANMTU
	if wanMTU < 0 {
		wanMTU = 0 // spec sentinel: no MTU limit
	}
	gw, err := gateway5g.New(tb.Net, gateway5g.Config{
		LANv4:                spec.GatewayLANv4,
		LANv4Prefix:          spec.LANPrefix,
		PoolStart:            spec.Gateway.PoolStart,
		PoolEnd:              spec.Gateway.PoolEnd,
		GUAPrefixes:          spec.Gateway.GUAPrefixes,
		ULARDNSS:             []netip.Addr{spec.Pis.HealthyV6, spec.Pis.HealthyV6B},
		WANv4:                spec.Gateway.WANv4,
		WANv4NAT44:           spec.Gateway.WANv4NAT44,
		CarrierDNS:           tb.Internet.Resolver(),
		RAInterval:           spec.Gateway.RAInterval,
		WANMTU:               wanMTU,
		DHCPLeaseTime:        spec.Gateway.DHCPLeaseTime,
		NAT64UDPTimeout:      spec.Gateway.NAT64UDPTimeout,
		NAT64TCPTimeout:      spec.Gateway.NAT64TCPTimeout,
		NAT64TCPTransTimeout: spec.Gateway.NAT64TCPTransTimeout,
		NAT64ICMPTimeout:     spec.Gateway.NAT64ICMPTimeout,
		ScopedRA:             spec.Fabric.Enabled(),
	})
	if err != nil {
		return nil, fmt.Errorf("testbed: gateway: %w", err)
	}
	tb.Gateway = gw
	tb.Internet.ConnectBehind(gw)

	// The managed switch with its interventions.
	tb.Switch = mgmtswitch.New(tb.Net, spec.Switch.Name, mgmtswitch.Config{
		ULAPrefix:    spec.Switch.ULAPrefix,
		AdvertiseULA: spec.Opt.SwitchULARA,
		SnoopDHCP:    spec.Opt.SnoopDHCP,
		ScopedRS:     spec.Fabric.Enabled(),
	})
	gwPort := tb.Switch.AttachPort(gw.LANNIC())
	if spec.Opt.SnoopDHCP {
		tb.Switch.BlockDHCPFrom(gwPort)
	}

	tb.buildHealthyPi(spec)
	tb.buildPoisonPi(spec)
	if err := tb.buildDHCPPi(spec); err != nil {
		return nil, err
	}
	if spec.Fabric.Enabled() {
		if err := tb.buildFabric(spec); err != nil {
			return nil, err
		}
	}

	if spec.Opt.RestrictIPv4 {
		gw.BlockNAT44()
	}
	gw.Start()
	tb.Switch.Start()
	// Let beacons and server bring-up settle.
	tb.Net.RunFor(spec.SettleTime)

	for _, c := range spec.Clients {
		tb.AddClient(c.Name, c.Behavior)
	}
	return tb, nil
}

// staticSite serves one fixed page body for every request.
func staticSite(body string) httpsim.Handler {
	return httpsim.HandlerFunc(func(req *httpsim.Request) *httpsim.Response {
		return &httpsim.Response{Status: 200, Body: []byte(body)}
	})
}

// streamCDNSite serves paced streaming bodies whose geometry is encoded
// in the request path: /flow/<total-bytes>/<chunk-bytes>/<pace-ms>.
// Omitted or malformed segments fall back to a 64 KiB burst, so any
// request yields a valid flow.
func streamCDNSite() httpsim.Handler {
	return httpsim.HandlerFunc(func(req *httpsim.Request) *httpsim.Response {
		spec := &httpsim.StreamSpec{TotalBytes: 64 << 10}
		if rest, ok := strings.CutPrefix(req.Path, "/flow/"); ok {
			parts := strings.Split(rest, "/")
			if len(parts) >= 1 {
				if n, err := strconv.Atoi(parts[0]); err == nil && n >= 0 {
					spec.TotalBytes = n
				}
			}
			if len(parts) >= 2 {
				if n, err := strconv.Atoi(parts[1]); err == nil && n > 0 {
					spec.Chunk = n
				}
			}
			if len(parts) >= 3 {
				if ms, err := strconv.Atoi(parts[2]); err == nil && ms >= 0 {
					spec.Pace = time.Duration(ms) * time.Millisecond
				}
			}
		}
		return &httpsim.Response{Status: 200, Stream: spec}
	})
}

// buildHealthyPi stands up the Raspberry Pi BIND9 DNS64 server (the
// paper's fd00:976a::9/::10 + 192.168.12.251 under default addressing).
func (tb *Testbed) buildHealthyPi(spec Topology) {
	pi := hoststack.New(tb.Net, "pi-dns64", hoststack.Behavior{
		Name: "pi-dns64", IPv6Enabled: true, IPv4Enabled: true, SupportsRDNSS: true,
	})
	tb.Switch.AttachPort(pi.NIC)
	pi.AddIPv6Static(spec.Pis.HealthyV6, spec.Switch.ULAPrefix)
	pi.AddIPv6Static(spec.Pis.HealthyV6B, spec.Switch.ULAPrefix)
	pi.SetIPv4Static(spec.Pis.HealthyV4, spec.LANPrefix, spec.GatewayLANv4)

	tb.Healthy64 = dns64.New(tb.Internet.Resolver())
	tb.HealthyLog = &dns.QueryLog{Inner: tb.Healthy64}
	tb.HealthyCache = dns.NewCache(tb.HealthyLog, tb.Net.Clock.Now)
	hoststack.AttachDNSServer(pi, tb.HealthyCache)
	tb.HealthyPi = pi
}

// buildPoisonPi stands up the dnsmasq-style poisoned IPv4 DNS server.
// Its AAAA upstream is the healthy DNS64 (the paper's
// "server=192.168.12.251" line; the hop between the two Pis is collapsed
// in-process — see DESIGN.md).
func (tb *Testbed) buildPoisonPi(spec Topology) {
	pi := hoststack.New(tb.Net, "pi-poison", hoststack.Behavior{
		Name: "pi-poison", IPv6Enabled: true, IPv4Enabled: true, SupportsRDNSS: true,
	})
	tb.Switch.AttachPort(pi.NIC)
	pi.SetIPv4Static(spec.Pis.PoisonV4, spec.LANPrefix, spec.GatewayLANv4)

	var resolver dns.Resolver
	switch spec.Opt.Poison {
	case PoisonWildcard:
		tb.Wildcard = dnspoison.NewWildcard(tb.Healthy64)
		tb.Wildcard.Redirect = spec.Opt.RedirectV4
		resolver = tb.Wildcard
	case PoisonRPZ:
		tb.RPZ = dnspoison.NewRPZ(tb.Healthy64)
		tb.RPZ.Redirect = spec.Opt.RedirectV4
		resolver = tb.RPZ
	default:
		// No intervention (the SC23 baseline): plain healthy DNS64.
		resolver = tb.Healthy64
	}
	tb.poisonSwitch = newSwitchableResolver(resolver)
	tb.PoisonLog = &dns.QueryLog{Inner: tb.poisonSwitch}
	hoststack.AttachDNSServer(pi, tb.PoisonLog)
	tb.PoisonPi = pi
}

// buildDHCPPi stands up the Raspberry Pi DHCPv4 server with option 108.
func (tb *Testbed) buildDHCPPi(spec Topology) error {
	pi := hoststack.New(tb.Net, "pi-dhcp", hoststack.Behavior{
		Name: "pi-dhcp", IPv4Enabled: true,
	})
	tb.Switch.AttachPort(pi.NIC)
	pi.SetIPv4Static(spec.Pis.DHCPV4, spec.LANPrefix, spec.GatewayLANv4)

	cfg := dhcp4.ServerConfig{
		ServerID:   spec.Pis.DHCPV4,
		PoolStart:  spec.Pis.PoolStart,
		PoolEnd:    spec.Pis.PoolEnd,
		SubnetMask: maskFor(spec.LANPrefix),
		Router:     spec.GatewayLANv4,
		DNS:        []netip.Addr{spec.Pis.PoisonV4},
		DomainName: spec.Pis.DomainName,
		LeaseTime:  spec.Pis.LeaseTime,
	}
	if spec.Opt.Option108 {
		cfg.V6OnlyWait = spec.Pis.V6OnlyWait
	}
	if spec.Opt.Poison == PoisonOff {
		// SC23 baseline: clients point at the healthy server's v4 address.
		cfg.DNS = []netip.Addr{spec.Pis.HealthyV4}
	}
	srv, err := dhcp4.NewServer(cfg, tb.Net.Clock.Now)
	if err != nil {
		return fmt.Errorf("testbed: dhcp pi: %w", err)
	}
	tb.DHCPServer = srv
	hoststack.AttachDHCPServer(pi, srv)
	tb.DHCPPi = pi
	return nil
}

// Close tears the world down: the fabric stops, pending events and
// timers are discarded, and every subsequent transmission or timer
// arming is a silent no-op. Device and server state stays readable
// (reports are typically assembled after Close), but the world cannot
// make progress again. Close is idempotent.
func (tb *Testbed) Close() {
	tb.Net.Stop()
}

// Factory rebuilds fresh, fully independent copies of a world from its
// spec. Every world it builds is deterministic and identical to the
// others (before any post-build mutation), but completely independent.
// It is the hand-off point between the topology layer and the sharded
// scenario engine (wrapped by pathology.FactorySized, or a closure, into
// a scenario.SizedWorldFactory).
type Factory struct {
	Spec Topology
}

// Build assembles a new world from the factory's spec.
func (f Factory) Build() (*Testbed, error) { return Build(f.Spec) }
