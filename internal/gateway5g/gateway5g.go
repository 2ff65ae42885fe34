// Package gateway5g models the paper's 5G mobile internet gateway — the
// fixed-function device whose limitations shaped the whole testbed:
//
//   - its Router Advertisements carry dead ULA RDNSS addresses
//     (fd00:976a::9 and ::10) that nothing answers (paper Fig. 3);
//   - every reboot it obtains a different GUA /64 from the carrier,
//     with no way to request a larger prefix;
//   - its NAT64 on the well-known prefix 64:ff9b::/96 works;
//   - its built-in DHCPv4 server cannot set option 108 and cannot be
//     disabled (the managed switch snoops it away instead);
//   - legacy IPv4 goes out through NAT44 (with M-21-31 logging).
package gateway5g

import (
	"errors"
	"fmt"
	"net/netip"
	"time"

	"repro/internal/dhcp4"
	"repro/internal/dns"
	"repro/internal/dns64"
	"repro/internal/dnswire"
	"repro/internal/nat44"
	"repro/internal/nat64"
	"repro/internal/ndp"
	"repro/internal/netsim"
	"repro/internal/packet"
)

// Config parameterizes the gateway.
type Config struct {
	// LANv4 is the gateway's LAN address (DHCP server ID, DNS proxy).
	LANv4 netip.Addr
	// LANv4Prefix is the LAN subnet.
	LANv4Prefix netip.Prefix
	// PoolStart/PoolEnd bound the built-in DHCP pool.
	PoolStart, PoolEnd netip.Addr
	// GUAPrefixes is the carrier /64 rotation: index rebootCount % len.
	GUAPrefixes []netip.Prefix
	// ULARDNSS are the dead resolver addresses stuffed into RAs.
	ULARDNSS []netip.Addr
	// WANv4 is the public address NAT64 maps onto.
	WANv4 netip.Addr
	// WANv4NAT44 is the public address legacy NAT44 traffic egresses
	// from; when unset it defaults to WANv4's successor. Distinct egress
	// addresses let the venue's test-ipv6 mirror tell translated
	// (CLAT/NAT64) clients from natively dual-stack ones.
	WANv4NAT44 netip.Addr
	// RAInterval is the unsolicited RA beacon period.
	RAInterval time.Duration
	// WANMTU is the 5G link MTU; IPv6 packets larger than this in either
	// direction are answered with ICMPv6 Packet Too Big (the mirror's
	// v6-mtu subtest exists to catch exactly this). 0 disables the limit.
	WANMTU int
	// AdvertisePREF64 includes the NAT64 prefix in RAs (RFC 8781). The
	// paper's gateway predates this; it is an upgrade knob for modelling
	// newer deployments.
	AdvertisePREF64 bool
	// ScopedRA answers Router Solicitations with a unicast RA to the
	// soliciting host instead of multicasting to all-nodes. Fabric worlds
	// set it so an RS from one access domain does not renumber-beacon
	// every other domain; periodic beacons are unaffected (trunk scoping
	// keeps those in the distribution tier).
	ScopedRA bool
	// CarrierDNS answers the gateway's LAN DNS proxy queries (plain
	// carrier recursion — no DNS64 on the v4 path).
	CarrierDNS dns.Resolver
	// DHCPLeaseTime overrides the built-in DHCPv4 server's lease time
	// (default one hour, matching the real device).
	DHCPLeaseTime time.Duration
	// NAT64UDPTimeout/NAT64TCPTimeout/NAT64TCPTransTimeout/
	// NAT64ICMPTimeout override the translator's session lifetimes; zero
	// fields keep the RFC 6146 defaults. The sharded scenario engine sets
	// these effectively infinite so live-session counts are
	// position-independent and merge associatively across worlds.
	NAT64UDPTimeout      time.Duration
	NAT64TCPTimeout      time.Duration
	NAT64TCPTransTimeout time.Duration
	NAT64ICMPTimeout     time.Duration
}

// Gateway is the device.
type Gateway struct {
	cfg Config
	net *netsim.Network

	lan *netsim.NIC
	wan *netsim.NIC

	linkLocal  netip.Addr
	wanPeerMAC netsim.MAC
	haveWAN    bool

	rebootCount int
	// prevGUA is the /64 advertised before the most recent reboot; RAs
	// deprecate it (PreferredLifetime 0) so hosts abandon stale GUAs.
	prevGUA netip.Prefix

	DHCP  *dhcp4.Server
	NAT44 *nat44.Translator
	NAT64 *nat64.Translator

	arp map[netip.Addr]netsim.MAC
	nd  map[netip.Addr]netsim.MAC

	raTimer *netsim.Timer
	// raNextAt is the virtual deadline of the pending beacon; world
	// reuse (Checkpoint/Restore) re-arms the timer at exactly this
	// instant after a clock rewind.
	raNextAt time.Time

	blockNAT44  bool
	suppressPTB bool

	// raDown, when non-nil and returning true, suppresses every Router
	// Advertisement (periodic beacon or RS answer) at transmit time. The
	// gateway-ra-outage pathology wires a pathology.Gate's Down here; the
	// beacon timer keeps rearming through an outage so advertisements
	// resume on the first beacon after the gate reopens.
	raDown func() bool
	// raValidLT/raPreferredLT/raRouterLT override the advertised SLAAC
	// prefix and default-router lifetimes when positive (defaults 2h /
	// 1h / 30min). Outage pathologies shorten them so hosts actually
	// feel an RA silence window: the default route and preferred
	// address decay instead of coasting on hour-long state.
	raValidLT     time.Duration
	raPreferredLT time.Duration
	raRouterLT    time.Duration

	// Counters.
	RAsSent       uint64
	V6Forwarded   uint64
	V4Forwarded   uint64
	DroppedULASrc uint64
	ACLDropped    uint64
	PTBSent       uint64
	// PTBSuppressed counts Packet Too Big errors the gateway swallowed
	// while SuppressPTB was active (each one an oversized packet dropped
	// with no signal to the sender).
	PTBSuppressed uint64
	// RAsSuppressed counts Router Advertisements swallowed by the RA
	// outage gate (each one a beacon or RS answer the LAN never saw).
	RAsSuppressed uint64
	// ExhaustionSignaled counts ICMPv6 Destination Unreachable errors
	// sent to LAN clients whose flows the NAT64 refused for lack of
	// ports (RFC 6146 §3.5.1.1).
	ExhaustionSignaled uint64
}

// SetRAGate installs (or clears, with nil) the RA suppression gate:
// while down() reports true every outgoing Router Advertisement is
// swallowed and counted in RAsSuppressed. Pure polling — the beacon
// timer is untouched, so recovery needs no rearm bookkeeping.
func (g *Gateway) SetRAGate(down func() bool) { g.raDown = down }

// SetRALifetimes overrides the advertised prefix valid/preferred and
// router lifetimes; zero fields keep the defaults (2h / 1h / 30min).
// Shortening them makes RA outages bite within a trial: hosts deprecate
// their SLAAC address and drop the default route instead of riding out
// the silence on stale hour-scale state.
func (g *Gateway) SetRALifetimes(valid, preferred, router time.Duration) {
	g.raValidLT, g.raPreferredLT, g.raRouterLT = valid, preferred, router
}

// BlockNAT44 applies the paper §VI "further restrict IPv4 internet" ACL:
// NAT44 traffic stops flowing in both directions while LAN-local IPv4
// and all IPv6 paths keep working.
func (g *Gateway) BlockNAT44() { g.blockNAT44 = true }

// New builds the gateway on the fabric.
func New(net *netsim.Network, cfg Config) (*Gateway, error) {
	if len(cfg.GUAPrefixes) == 0 {
		return nil, fmt.Errorf("gateway5g: need at least one GUA prefix")
	}
	if cfg.RAInterval == 0 {
		cfg.RAInterval = 10 * time.Second
	}
	if !cfg.WANv4NAT44.IsValid() && cfg.WANv4.IsValid() {
		cfg.WANv4NAT44 = cfg.WANv4.Next()
	}
	if cfg.DHCPLeaseTime == 0 {
		cfg.DHCPLeaseTime = time.Hour
	}
	g := &Gateway{
		cfg: cfg,
		net: net,
		arp: make(map[netip.Addr]netsim.MAC),
		nd:  make(map[netip.Addr]netsim.MAC),
	}
	g.lan = net.NewNIC("gw5g-lan", netsim.FrameHandlerFunc(g.handleLAN))
	g.wan = net.NewNIC("gw5g-wan", netsim.FrameHandlerFunc(g.handleWAN))
	g.linkLocal = ndp.LinkLocal(g.lan.MAC())

	var err error
	g.DHCP, err = dhcp4.NewServer(dhcp4.ServerConfig{
		ServerID:   cfg.LANv4,
		PoolStart:  cfg.PoolStart,
		PoolEnd:    cfg.PoolEnd,
		SubnetMask: maskFor(cfg.LANv4Prefix),
		Router:     cfg.LANv4,
		DNS:        []netip.Addr{cfg.LANv4}, // gateway's own DNS proxy
		LeaseTime:  cfg.DHCPLeaseTime,
		// No option 108: the paper's gateway cannot express it.
	}, net.Clock.Now)
	if err != nil {
		return nil, err
	}
	g.NAT44, err = nat44.New(cfg.WANv4NAT44, net.Clock.Now)
	if err != nil {
		return nil, err
	}
	if err := g.NAT44.SetPortRange(49152, 65535); err != nil {
		return nil, err
	}
	g.NAT64, err = nat64.New(nat64.Config{
		Prefix:   dns64.WellKnownPrefix,
		PublicV4: cfg.WANv4,
		// Disjoint port ranges keep inbound WAN dispatch unambiguous
		// between the two translators.
		PortMin: 32768, PortMax: 49151,
		UDPTimeout:      cfg.NAT64UDPTimeout,
		TCPTimeout:      cfg.NAT64TCPTimeout,
		TCPTransTimeout: cfg.NAT64TCPTransTimeout,
		ICMPTimeout:     cfg.NAT64ICMPTimeout,
	}, net.Clock.Now)
	if err != nil {
		return nil, err
	}
	return g, nil
}

// LANNIC returns the LAN-side interface (attach to the managed switch).
func (g *Gateway) LANNIC() *netsim.NIC { return g.lan }

// WANMAC returns the WAN-side hardware address.
func (g *Gateway) WANMAC() netsim.MAC { return g.wan.MAC() }

// NAT64Public returns the NAT64 egress IPv4 address.
func (g *Gateway) NAT64Public() netip.Addr { return g.cfg.WANv4 }

// CurrentGUAPrefix returns the /64 currently advertised.
func (g *Gateway) CurrentGUAPrefix() netip.Prefix {
	return g.cfg.GUAPrefixes[g.rebootCount%len(g.cfg.GUAPrefixes)]
}

// TrafficStats is a point-in-time snapshot of the gateway's translation
// volume: packets and L4 payload octets through each translator, plus
// live-session and compliance-log sizes. The heavy-traffic workload
// reads it per shard and sums snapshots across worlds.
type TrafficStats struct {
	// NAT64PktsOut/In and NAT64BytesOut/In count RFC 6146 translations
	// and their payload octets, per direction (out = v6→v4).
	NAT64PktsOut  uint64
	NAT64PktsIn   uint64
	NAT64BytesOut uint64
	NAT64BytesIn  uint64
	// NAT44Pkts counts NAPT44 translations both directions;
	// NAT44BytesOut/In split the payload octets by direction.
	NAT44Pkts     uint64
	NAT44BytesOut uint64
	NAT44BytesIn  uint64
	// NAT64Sessions / NAT44Sessions are live (unexpired) binding counts;
	// NAT44LogEntries is the M-21-31 compliance log length.
	NAT64Sessions   int
	NAT44Sessions   int
	NAT44LogEntries int
	// NAT64PortsExhausted counts outbound flows the NAT64 refused with
	// ErrPortsExhausted (port pool or per-source quota); each one was
	// answered with an ICMPv6 Destination Unreachable on the LAN side.
	NAT64PortsExhausted uint64
}

// TrafficStats returns the gateway's current translation counters.
func (g *Gateway) TrafficStats() TrafficStats {
	return TrafficStats{
		NAT64PktsOut:        g.NAT64.TranslatedOut,
		NAT64PktsIn:         g.NAT64.TranslatedIn,
		NAT64BytesOut:       g.NAT64.BytesOut,
		NAT64BytesIn:        g.NAT64.BytesIn,
		NAT44Pkts:           g.NAT44.Translated,
		NAT44BytesOut:       g.NAT44.BytesOut,
		NAT44BytesIn:        g.NAT44.BytesIn,
		NAT64Sessions:       g.NAT64.SessionCount(),
		NAT44Sessions:       g.NAT44.SessionCount(),
		NAT44LogEntries:     len(g.NAT44.Log),
		NAT64PortsExhausted: g.NAT64.PortsExhausted,
	}
}

// ConnectWAN cables the gateway's WAN port to the internet host's NIC.
func (g *Gateway) ConnectWAN(peer *netsim.NIC) {
	g.net.Connect(g.wan, peer)
	g.wanPeerMAC = peer.MAC()
	g.haveWAN = true
}

// Start begins the periodic RA beacon.
func (g *Gateway) Start() {
	g.sendRA()
	g.armRATimer()
}

// RebootCount returns how many times the gateway has power-cycled.
func (g *Gateway) RebootCount() int { return g.rebootCount }

// Reboot simulates a power cycle: the carrier hands out the next /64,
// every NAT64/NAT44 session and built-in DHCP lease is lost, the
// neighbor caches empty, and the immediate post-reboot RA carries the
// previous prefix with PreferredLifetime 0 so RFC 4862 hosts deprecate
// their stale GUAs and renumber onto the fresh /64. Allocation cursors
// (DHCP pool position, NAT WAN-port position) survive the cycle:
// external peers and clients keep state keyed by pre-reboot allocations,
// so handing those out again immediately would splice new flows into
// stale ones.
func (g *Gateway) Reboot() {
	g.prevGUA = g.CurrentGUAPrefix()
	g.rebootCount++
	g.DHCP.DropLeases()
	g.NAT64.FlushSessions()
	g.NAT44.FlushSessions()
	clear(g.arp)
	clear(g.nd)
	g.sendRA()
}

func (g *Gateway) armRATimer() {
	g.raNextAt = g.net.Clock.Now().Add(g.cfg.RAInterval)
	g.raTimer = g.net.Clock.AfterFunc(g.cfg.RAInterval, func() {
		g.sendRA()
		g.armRATimer()
	})
}

// buildRA assembles the gateway's (flawed) Router Advertisement.
func (g *Gateway) buildRA() *ndp.RouterAdvert {
	validLT, preferredLT, routerLT := 2*time.Hour, time.Hour, 30*time.Minute
	if g.raValidLT > 0 {
		validLT = g.raValidLT
	}
	if g.raPreferredLT > 0 {
		preferredLT = g.raPreferredLT
	}
	if g.raRouterLT > 0 {
		routerLT = g.raRouterLT
	}
	prefixes := []ndp.PrefixInfo{{
		Prefix: g.CurrentGUAPrefix(),
		OnLink: true, Autonomous: true,
		ValidLifetime: validLT, PreferredLifetime: preferredLT,
	}}
	if g.prevGUA.IsValid() && g.prevGUA != g.CurrentGUAPrefix() {
		// Post-reboot renumbering: keep the old /64 on-link for its
		// remaining valid lifetime but deprecate it immediately.
		prefixes = append(prefixes, ndp.PrefixInfo{
			Prefix: g.prevGUA,
			OnLink: true, Autonomous: true,
			ValidLifetime: validLT, PreferredLifetime: 0,
		})
	}
	ra := &ndp.RouterAdvert{
		CurHopLimit:    64,
		RouterLifetime: routerLT,
		Preference:     ndp.PrefMedium,
		SourceLinkAddr: g.lan.MAC(),
		HasSourceLink:  true,
		MTU:            1500,
		Prefixes:       prefixes,
		RDNSS:          g.cfg.ULARDNSS, // the dead ULA resolvers (Fig. 3)
		RDNSSLifetime:  30 * time.Minute,
	}
	if g.cfg.AdvertisePREF64 {
		ra.PREF64 = dns64.WellKnownPrefix
		ra.PREF64Lifetime = 30 * time.Minute
	}
	return ra
}

// sendRA multicasts the Router Advertisement to all-nodes.
func (g *Gateway) sendRA() {
	if g.raDown != nil && g.raDown() {
		g.RAsSuppressed++
		return
	}
	ra := g.buildRA()
	body := (&packet.ICMP{Type: packet.ICMPv6RouterAdvert, Body: ra.Marshal()}).MarshalV6(g.linkLocal, ndp.AllNodes)
	p := &packet.IPv6{NextHeader: packet.ProtoICMPv6, HopLimit: 255, Src: g.linkLocal, Dst: ndp.AllNodes, Payload: body}
	g.lan.Transmit(netsim.Frame{
		Dst: netsim.MAC(packet.MulticastMAC(ndp.AllNodes)), EtherType: netsim.EtherTypeIPv6, Payload: p.Marshal(),
	})
	g.RAsSent++
}

// sendRAUnicast sends the same Router Advertisement directly to one host
// (RFC 4861 §6.2.6 allows unicasting RS responses). The frame forwards
// as known unicast across the fabric, so it stays out of every other
// access domain.
func (g *Gateway) sendRAUnicast(dst netsim.MAC, dstIP netip.Addr) {
	if g.raDown != nil && g.raDown() {
		g.RAsSuppressed++
		return
	}
	ra := g.buildRA()
	body := (&packet.ICMP{Type: packet.ICMPv6RouterAdvert, Body: ra.Marshal()}).MarshalV6(g.linkLocal, dstIP)
	p := &packet.IPv6{NextHeader: packet.ProtoICMPv6, HopLimit: 255, Src: g.linkLocal, Dst: dstIP, Payload: body}
	g.lan.Transmit(netsim.Frame{Dst: dst, EtherType: netsim.EtherTypeIPv6, Payload: p.Marshal()})
	g.RAsSent++
}

// ScopeLeases installs per-access-domain DHCP pools on the built-in
// server (see dhcp4.SetDomains); fabric worlds use it so the gateway's
// rogue OFFERs are domain-stable too.
func (g *Gateway) ScopeLeases(pools map[int]dhcp4.DomainPool, lookup func(chaddr [6]byte) int) error {
	return g.DHCP.SetDomains(pools, lookup)
}

// --- LAN side -----------------------------------------------------------

// v4LimitedBroadcast is 255.255.255.255, hoisted out of the per-frame
// DHCP and LAN delivery paths.
var v4LimitedBroadcast = netip.AddrFrom4([4]byte{255, 255, 255, 255})

func (g *Gateway) handleLAN(_ *netsim.NIC, f netsim.Frame) {
	switch f.EtherType {
	case netsim.EtherTypeARP:
		g.handleLANARP(f)
	case netsim.EtherTypeIPv4:
		g.handleLANv4(f)
	case netsim.EtherTypeIPv6:
		g.handleLANv6(f)
	}
}

func (g *Gateway) handleLANARP(f netsim.Frame) {
	var a packet.ARP
	if a.Decode(f.Payload) != nil {
		return
	}
	if a.SenderIP.IsValid() && a.SenderIP != (netip.AddrFrom4([4]byte{})) {
		g.arp[a.SenderIP] = netsim.MAC(a.SenderMAC)
	}
	if a.Op == packet.ARPRequest && a.TargetIP == g.cfg.LANv4 {
		reply := &packet.ARP{
			Op: packet.ARPReply, SenderMAC: g.lan.MAC(), SenderIP: g.cfg.LANv4,
			TargetMAC: a.SenderMAC, TargetIP: a.SenderIP,
		}
		g.lan.Transmit(netsim.Frame{Dst: netsim.MAC(a.SenderMAC), EtherType: netsim.EtherTypeARP, Payload: reply.Marshal()})
	}
}

func (g *Gateway) handleLANv4(f netsim.Frame) {
	var p packet.IPv4
	if p.Decode(f.Payload) != nil {
		return
	}
	if p.Src.IsValid() && g.cfg.LANv4Prefix.Contains(p.Src) {
		g.arp[p.Src] = f.Src
	}
	if p.Dst == g.cfg.LANv4 || p.Dst == v4LimitedBroadcast {
		g.handleLocalV4(f, &p)
		return
	}
	// LAN -> WAN through NAT44.
	if !g.haveWAN {
		return
	}
	if g.blockNAT44 {
		g.ACLDropped++
		return
	}
	out, err := g.NAT44.TranslateOut(&p)
	if err != nil {
		return
	}
	g.V4Forwarded++
	g.wan.Transmit(netsim.Frame{Dst: g.wanPeerMAC, EtherType: netsim.EtherTypeIPv4, Payload: out.Marshal()})
}

// handleLocalV4 serves the gateway's own IPv4 services: DHCP, the DNS
// proxy, and ping.
func (g *Gateway) handleLocalV4(f netsim.Frame, p *packet.IPv4) {
	switch p.Protocol {
	case packet.ProtoUDP:
		var u packet.UDP
		if u.Decode(p.Payload, p.Src, p.Dst) != nil {
			return
		}
		switch u.DstPort {
		case dhcp4.ServerPort:
			g.handleDHCP(&u)
		case 53:
			g.handleDNSProxy(f, p, &u)
		}
	case packet.ProtoICMP:
		var ic packet.ICMP
		if ic.DecodeV4(p.Payload) != nil || ic.Type != packet.ICMPv4Echo {
			return
		}
		reply := &packet.IPv4{
			Protocol: packet.ProtoICMP, TTL: 64, Src: g.cfg.LANv4, Dst: p.Src,
			Payload: (&packet.ICMP{Type: packet.ICMPv4EchoReply, Body: ic.Body}).MarshalV4(),
		}
		if mac, ok := g.arp[p.Src]; ok {
			g.lan.Transmit(netsim.Frame{Dst: mac, EtherType: netsim.EtherTypeIPv4, Payload: reply.Marshal()})
		}
	}
}

func (g *Gateway) handleDHCP(u *packet.UDP) {
	msg, err := dhcp4.Parse(u.Payload)
	if err != nil {
		return
	}
	resp := g.DHCP.Handle(msg)
	if resp == nil {
		return
	}
	ru := &packet.UDP{SrcPort: dhcp4.ServerPort, DstPort: dhcp4.ClientPort, Payload: resp.Marshal()}
	rp := &packet.IPv4{
		Protocol: packet.ProtoUDP, TTL: 64, Src: g.cfg.LANv4, Dst: v4LimitedBroadcast,
		Payload: ru.Marshal(g.cfg.LANv4, v4LimitedBroadcast),
	}
	dst := netsim.MAC(resp.CHAddr)
	if resp.Broadcast {
		dst = netsim.Broadcast
	}
	g.lan.Transmit(netsim.Frame{Dst: dst, EtherType: netsim.EtherTypeIPv4, Payload: rp.Marshal()})
}

func (g *Gateway) handleDNSProxy(f netsim.Frame, p *packet.IPv4, u *packet.UDP) {
	if g.cfg.CarrierDNS == nil {
		return
	}
	req, err := dnswire.Parse(u.Payload)
	if err != nil || req.Response {
		return
	}
	resp := dns.RespondOrDrop(g.cfg.CarrierDNS, req)
	if resp == nil {
		return // dns.ErrDrop: interference; no response at all
	}
	wire, err := resp.Marshal()
	if err != nil {
		return
	}
	ru := &packet.UDP{SrcPort: 53, DstPort: u.SrcPort, Payload: wire}
	rp := &packet.IPv4{Protocol: packet.ProtoUDP, TTL: 64, Src: g.cfg.LANv4, Dst: p.Src, Payload: ru.Marshal(g.cfg.LANv4, p.Src)}
	g.lan.Transmit(netsim.Frame{Dst: f.Src, EtherType: netsim.EtherTypeIPv4, Payload: rp.Marshal()})
}

func (g *Gateway) handleLANv6(f netsim.Frame) {
	var p packet.IPv6
	if p.Decode(f.Payload) != nil {
		return
	}
	if p.Src.IsValid() && !p.Src.IsMulticast() {
		g.nd[p.Src] = f.Src
	}
	// Respond to ND traffic addressed to the gateway.
	if p.NextHeader == packet.ProtoICMPv6 {
		if g.handleLANICMPv6(f, &p) {
			return
		}
	}
	if p.Dst.IsMulticast() {
		return
	}
	// NAT64 path: well-known prefix.
	if dns64.WellKnownPrefix.Contains(p.Dst) {
		// Carriers drop non-global sources (and so does the paper's
		// gateway: only the GUA works through NAT64).
		if isULA(p.Src) || p.Src.IsLinkLocalUnicast() {
			g.DroppedULASrc++
			return
		}
		if !g.haveWAN {
			return
		}
		if g.tooBig(&p) {
			g.sendPTBToLAN(f, &p)
			return
		}
		out, err := g.NAT64.TranslateV6ToV4(&p)
		if err != nil {
			if errors.Is(err, nat64.ErrPortsExhausted) {
				g.sendExhaustionToLAN(f, &p)
			}
			return
		}
		g.wan.Transmit(netsim.Frame{Dst: g.wanPeerMAC, EtherType: netsim.EtherTypeIPv4, Payload: out.Marshal()})
		return
	}
	// Native v6 forwarding LAN -> WAN.
	if !g.haveWAN {
		return
	}
	if isULA(p.Src) || p.Src.IsLinkLocalUnicast() {
		g.DroppedULASrc++
		return
	}
	if p.HopLimit <= 1 {
		return
	}
	if g.tooBig(&p) {
		g.sendPTBToLAN(f, &p)
		return
	}
	p.HopLimit--
	g.V6Forwarded++
	g.wan.Transmit(netsim.Frame{Dst: g.wanPeerMAC, EtherType: netsim.EtherTypeIPv6, Payload: p.Marshal()})
}

// tooBig reports whether an IPv6 packet exceeds the 5G link MTU.
func (g *Gateway) tooBig(p *packet.IPv6) bool {
	return g.cfg.WANMTU > 0 && packet.IPv6HeaderLen+len(p.Payload) > g.cfg.WANMTU
}

// ptbBody builds the Packet Too Big body: 4-byte MTU then as much of the
// offending packet as fits (RFC 4443 §3.2).
func (g *Gateway) ptbBody(p *packet.IPv6) []byte {
	mtu := uint32(g.cfg.WANMTU)
	body := []byte{byte(mtu >> 24), byte(mtu >> 16), byte(mtu >> 8), byte(mtu)}
	orig := p.Marshal()
	if len(orig) > 1200 {
		orig = orig[:1200]
	}
	return append(body, orig...)
}

// SuppressPTB turns off Packet Too Big generation in both directions:
// oversized packets are dropped with no ICMPv6 error, the classic
// MTU black hole Hsu et al. measured on deployed NAT64 paths. Path MTU
// discovery then never converges and large transfers stall forever.
func (g *Gateway) SuppressPTB(on bool) { g.suppressPTB = on }

// sendExhaustionToLAN answers a LAN flow the NAT64 refused for lack of
// ports with the RFC 6146 §3.5.1.1 ICMPv6 Destination Unreachable
// (address unreachable), so the client's stack can fail the connection
// fast instead of timing out against silence.
func (g *Gateway) sendExhaustionToLAN(f netsim.Frame, p *packet.IPv6) {
	reply := nat64.ExhaustionUnreachable(g.linkLocal, p)
	g.lan.Transmit(netsim.Frame{Dst: f.Src, EtherType: netsim.EtherTypeIPv6, Payload: reply.Marshal()})
	g.ExhaustionSignaled++
}

// sendPTBToLAN answers an oversized LAN-originated packet.
func (g *Gateway) sendPTBToLAN(f netsim.Frame, p *packet.IPv6) {
	if g.suppressPTB {
		g.PTBSuppressed++
		return
	}
	body := (&packet.ICMP{Type: packet.ICMPv6PacketTooBig, Body: g.ptbBody(p)}).MarshalV6(g.linkLocal, p.Src)
	reply := &packet.IPv6{NextHeader: packet.ProtoICMPv6, HopLimit: 255, Src: g.linkLocal, Dst: p.Src, Payload: body}
	g.lan.Transmit(netsim.Frame{Dst: f.Src, EtherType: netsim.EtherTypeIPv6, Payload: reply.Marshal()})
	g.PTBSent++
}

// sendPTBToWAN answers an oversized WAN-originated packet. The error is
// sourced from the gateway's WAN link-local.
func (g *Gateway) sendPTBToWAN(p *packet.IPv6) {
	if g.suppressPTB {
		g.PTBSuppressed++
		return
	}
	src := ndp.LinkLocal(g.wan.MAC())
	body := (&packet.ICMP{Type: packet.ICMPv6PacketTooBig, Body: g.ptbBody(p)}).MarshalV6(src, p.Src)
	reply := &packet.IPv6{NextHeader: packet.ProtoICMPv6, HopLimit: 255, Src: src, Dst: p.Src, Payload: body}
	g.wan.Transmit(netsim.Frame{Dst: g.wanPeerMAC, EtherType: netsim.EtherTypeIPv6, Payload: reply.Marshal()})
	g.PTBSent++
}

// handleLANICMPv6 processes RS/NS aimed at the gateway; it reports
// whether the packet was consumed.
func (g *Gateway) handleLANICMPv6(f netsim.Frame, p *packet.IPv6) bool {
	var ic packet.ICMP
	if ic.DecodeV6(p.Payload, p.Src, p.Dst) != nil {
		return true
	}
	switch ic.Type {
	case packet.ICMPv6RouterSolicit:
		if g.cfg.ScopedRA && p.Src.IsValid() && !p.Src.IsUnspecified() {
			g.sendRAUnicast(f.Src, p.Src)
		} else {
			g.sendRA()
		}
		return true
	case packet.ICMPv6NeighborSolicit:
		var ns ndp.NeighborSolicit
		if ns.Decode(ic.Body) != nil || ns.Target != g.linkLocal {
			return true
		}
		if ns.HasSourceLink {
			g.nd[p.Src] = netsim.MAC(ns.SourceLinkAddr)
		}
		na := &ndp.NeighborAdvert{
			Router: true, Solicited: true, Override: true,
			Target: g.linkLocal, TargetLinkAddr: g.lan.MAC(), HasTargetLink: true,
		}
		body := (&packet.ICMP{Type: packet.ICMPv6NeighborAdvert, Body: na.Marshal()}).MarshalV6(g.linkLocal, p.Src)
		reply := &packet.IPv6{NextHeader: packet.ProtoICMPv6, HopLimit: 255, Src: g.linkLocal, Dst: p.Src, Payload: body}
		g.lan.Transmit(netsim.Frame{Dst: f.Src, EtherType: netsim.EtherTypeIPv6, Payload: reply.Marshal()})
		return true
	case packet.ICMPv6EchoRequest:
		if p.Dst == g.linkLocal {
			body := (&packet.ICMP{Type: packet.ICMPv6EchoReply, Body: ic.Body}).MarshalV6(g.linkLocal, p.Src)
			reply := &packet.IPv6{NextHeader: packet.ProtoICMPv6, HopLimit: 64, Src: g.linkLocal, Dst: p.Src, Payload: body}
			g.lan.Transmit(netsim.Frame{Dst: f.Src, EtherType: netsim.EtherTypeIPv6, Payload: reply.Marshal()})
			return true
		}
	}
	return false
}

// --- WAN side -----------------------------------------------------------

func (g *Gateway) handleWAN(_ *netsim.NIC, f netsim.Frame) {
	switch f.EtherType {
	case netsim.EtherTypeIPv4:
		var p packet.IPv4
		if p.Decode(f.Payload) != nil {
			return
		}
		switch p.Dst {
		case g.cfg.WANv4: // NAT64 egress address
			if v6, err := g.NAT64.TranslateV4ToV6(&p); err == nil {
				g.forwardToLANv6(v6)
			}
		case g.cfg.WANv4NAT44:
			if g.blockNAT44 {
				g.ACLDropped++
				return
			}
			if v4, err := g.NAT44.TranslateIn(&p); err == nil {
				g.forwardToLANv4(v4)
			}
		}
	case netsim.EtherTypeIPv6:
		var p packet.IPv6
		if p.Decode(f.Payload) != nil {
			return
		}
		if !g.CurrentGUAPrefix().Contains(p.Dst) {
			return
		}
		if p.HopLimit <= 1 {
			return
		}
		if g.tooBig(&p) {
			g.sendPTBToWAN(&p)
			return
		}
		p.HopLimit--
		g.forwardToLANv6(&p)
	}
}

func (g *Gateway) forwardToLANv6(p *packet.IPv6) {
	mac, ok := g.nd[p.Dst]
	if !ok {
		// Solicit and drop (the follow-up packet will succeed); real
		// routers queue, but clients retry DNS/TCP anyway.
		g.solicitLANv6(p.Dst)
		return
	}
	g.lan.Transmit(netsim.Frame{Dst: mac, EtherType: netsim.EtherTypeIPv6, Payload: p.Marshal()})
}

func (g *Gateway) solicitLANv6(target netip.Addr) {
	ns := &ndp.NeighborSolicit{Target: target, SourceLinkAddr: g.lan.MAC(), HasSourceLink: true}
	snm := packet.SolicitedNodeMulticast(target)
	body := (&packet.ICMP{Type: packet.ICMPv6NeighborSolicit, Body: ns.Marshal()}).MarshalV6(g.linkLocal, snm)
	p := &packet.IPv6{NextHeader: packet.ProtoICMPv6, HopLimit: 255, Src: g.linkLocal, Dst: snm, Payload: body}
	g.lan.Transmit(netsim.Frame{Dst: netsim.MAC(packet.MulticastMAC(snm)), EtherType: netsim.EtherTypeIPv6, Payload: p.Marshal()})
}

func (g *Gateway) forwardToLANv4(p *packet.IPv4) {
	mac, ok := g.arp[p.Dst]
	if !ok {
		req := &packet.ARP{Op: packet.ARPRequest, SenderMAC: g.lan.MAC(), SenderIP: g.cfg.LANv4, TargetIP: p.Dst}
		g.lan.Transmit(netsim.Frame{Dst: netsim.Broadcast, EtherType: netsim.EtherTypeARP, Payload: req.Marshal()})
		return
	}
	g.lan.Transmit(netsim.Frame{Dst: mac, EtherType: netsim.EtherTypeIPv4, Payload: p.Marshal()})
}

func isULA(a netip.Addr) bool {
	b := a.As16()
	return a.Is6() && b[0]&0xfe == 0xfc
}

func maskFor(p netip.Prefix) netip.Addr {
	var m [4]byte
	bits := p.Bits()
	for i := 0; i < 4; i++ {
		if bits >= 8 {
			m[i] = 0xff
			bits -= 8
		} else if bits > 0 {
			m[i] = byte(0xff << (8 - bits))
			bits = 0
		}
	}
	return netip.AddrFrom4(m)
}
