package hoststack

import (
	"net/netip"
	"time"

	"repro/internal/clat"
	"repro/internal/ndp"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/rfc6724"
)

// V6Addr is one configured IPv6 address with its covering prefix and
// RFC 4862 lifetime state. Statically configured addresses carry zero
// deadlines and never age out; SLAAC addresses track the PIO lifetimes
// of the advertising router, so a renumbering event (a PIO with
// PreferredLifetime 0, as the rebooted 5G gateway sends for its stale
// /64) deprecates them and lets them expire.
type V6Addr struct {
	Addr       netip.Addr
	Prefix     netip.Prefix
	Deprecated bool
	// PreferredUntil / ValidUntil are the RFC 4862 lifetime deadlines;
	// zero values mean the address never deprecates / never expires.
	PreferredUntil time.Time
	ValidUntil     time.Time
}

// routerEntry is a learned default router.
type routerEntry struct {
	addr       netip.Addr // link-local source of the RA
	mac        netsim.MAC
	preference ndp.RouterPreference
	expires    time.Time
}

// UDPHandler receives datagrams delivered to a bound UDP port. The
// payload is valid only during the call (see netsim.Frame); a handler
// that keeps bytes copies them.
type UDPHandler func(src netip.Addr, srcPort uint16, dst netip.Addr, payload []byte)

// Host is one simulated machine: a NIC plus the protocol state the
// Behavior enables.
type Host struct {
	Net *netsim.Network
	NIC *netsim.NIC
	B   Behavior

	name      string
	sel       *rfc6724.Selector
	linkLocal netip.Addr

	// gleanND, when set, learns neighbor entries from received unicast
	// traffic (the way the 5G gateway always does). Fabric worlds set it
	// on infrastructure servers whose multicast solicitations cannot
	// cross scoped trunks; flat worlds never set it, keeping their frame
	// sequences bit-identical to the pre-fabric testbed.
	gleanND bool

	// hostState holds everything a run changes; Checkpoint saves a copy
	// in saved and Restore copies it back (checkpoint.go).
	hostState
	saved *hostState

	// raScratch is the value every received RA decodes into, so its
	// Prefixes/RDNSS storage is reused from one RA to the next instead
	// of allocated per RA. It is scratch, read only while processRA
	// runs, so Checkpoint/Restore need not capture it.
	raScratch ndp.RouterAdvert

	// l4Scratch and l3Scratch are the buffers every data-path send
	// encodes into: the transport segment into l4Scratch, the IP packet
	// around it into l3Scratch. NIC.Transmit copies the frame into a
	// buffer of the fabric's arena, so both are free again as soon as it
	// returns; the sends that keep a packet longer (the ARP/ND pending
	// queues and loopback delivery) copy it first. srcScratch holds the
	// RFC 6724 candidates candidateSources rebuilds on every call. All
	// three are scratch, so Checkpoint/Restore skip them.
	l4Scratch  []byte
	l3Scratch  []byte
	srcScratch []rfc6724.CandidateSource
}

// hostState is the part of a Host that a run changes: addressing,
// neighbor and ARP caches, DHCP client state, socket tables, identifier
// sequences, counters and the event journal.
type hostState struct {
	// IPv6 state.
	v6Addrs   []V6Addr
	routers   []routerEntry
	rdnss     []netip.Addr
	ndCache   map[netip.Addr]netsim.MAC
	ndPending map[netip.Addr][][]byte // encoded packets awaiting ND

	// IPv4 state.
	v4Addr     netip.Addr
	v4Aliases  []netip.Addr
	v4Prefix   netip.Prefix
	v4Router   netip.Addr
	v4DNS      []netip.Addr
	v4Domain   string
	arpCache   map[netip.Addr]netsim.MAC
	arpPending map[netip.Addr][][]byte // encoded packets awaiting ARP

	dhcp        dhcpClient
	v6OnlyUntil time.Time
	clat        *clat.Translator
	clatPorts   map[portKey]bool

	udpBind  map[uint16]UDPHandler
	udpNext  uint16
	tcpConns map[tcpKey]*TCPConn
	tcpNext  uint16
	listens  map[uint16]func(*TCPConn)
	accepts  map[tcpKey]func(*TCPConn)

	pings map[uint16]*pingWaiter

	// Protocol identifier sequences (DHCP xid, DNS message ID, ICMP echo
	// ID). These used to be package globals; keeping them per-host makes
	// every world self-contained, so independently built worlds stay
	// deterministic and race-free when simulated on parallel goroutines.
	dhcpXIDSeq uint32
	dnsIDSeq   uint16
	pingIDSeq  uint16

	// pmtu caches learned path MTUs per destination (RFC 8201).
	pmtu map[netip.Addr]int

	// UnreachRcvd counts ICMPv6 Destination Unreachable errors that
	// fast-failed an in-handshake TCP connection (the NAT64 exhaustion
	// signal landing).
	UnreachRcvd uint64

	// nat64Prefix is the translation prefix learned via RFC 8781 PREF64
	// or RFC 7050 discovery; invalid means "use the well-known prefix".
	nat64Prefix netip.Prefix

	// DNSOverride, when set, replaces every learned resolver (the
	// Nintendo Switch escape hatch in the paper's Fig. 6 discussion).
	DNSOverride []netip.Addr

	// journal records notable state changes in the compact encoding
	// of events.go; Events renders it as text.
	journal []byte
}

// New creates a host on net with the given behaviour. The returned host
// has a NIC but no link; attach it to a switch or peer, then call Start.
func New(net *netsim.Network, name string, b Behavior) *Host {
	h := &Host{
		Net:  net,
		B:    b,
		name: name,
		sel:  rfc6724.NewSelector(),
		hostState: hostState{
			ndCache:    make(map[netip.Addr]netsim.MAC),
			ndPending:  make(map[netip.Addr][][]byte),
			arpCache:   make(map[netip.Addr]netsim.MAC),
			arpPending: make(map[netip.Addr][][]byte),
			clatPorts:  make(map[portKey]bool),
			udpBind:    make(map[uint16]UDPHandler),
			udpNext:    49152,
			tcpConns:   make(map[tcpKey]*TCPConn),
			tcpNext:    52000,
			listens:    make(map[uint16]func(*TCPConn)),
			pmtu:       make(map[netip.Addr]int),
		},
	}
	h.NIC = net.NewNIC(h)
	// Declare the flood interests that mirror HandleFrame's demux guards,
	// so a snooping switch can suppress floods this host would drop
	// anyway (DHCPv4 DISCOVER storms never reach IPv6-only ports, and
	// solicited-node NS only reaches the solicited host). The declarations
	// must stay exactly as permissive as the guards: anything the host
	// would process, it must declare.
	h.NIC.RestrictFlooding()
	if b.IPv4Enabled {
		h.declareV4Interest()
	}
	if b.IPv6Enabled {
		h.linkLocal = ndp.LinkLocal(h.NIC.MAC())
		h.declareV6Interest()
		h.joinSolicitedNode(h.linkLocal)
	}
	return h
}

// declareV4Interest registers the flood interests matching the ARP and
// IPv4 branches of HandleFrame.
func (h *Host) declareV4Interest() {
	h.NIC.AddEtherTypeInterest(netsim.EtherTypeARP)
	h.NIC.AddEtherTypeInterest(netsim.EtherTypeIPv4)
}

// declareV6Interest registers the IPv6 EtherType interest plus the
// all-nodes multicast group every IPv6 host listens on (RAs arrive
// there).
func (h *Host) declareV6Interest() {
	h.NIC.AddEtherTypeInterest(netsim.EtherTypeIPv6)
	h.NIC.JoinGroup(netsim.MAC(packet.MulticastMAC(ndp.AllNodes)))
}

// joinSolicitedNode subscribes the NIC to addr's solicited-node
// multicast MAC group; joins are refcounted in the NIC because several
// addresses (link-local and EUI-64 SLAAC addresses share an interface
// identifier) can map onto one group MAC.
func (h *Host) joinSolicitedNode(addr netip.Addr) {
	h.NIC.JoinGroup(netsim.MAC(packet.MulticastMAC(packet.SolicitedNodeMulticast(addr))))
}

// leaveSolicitedNode releases one reference on addr's solicited-node
// group, when the address expires.
func (h *Host) leaveSolicitedNode(addr netip.Addr) {
	h.NIC.LeaveGroup(netsim.MAC(packet.MulticastMAC(packet.SolicitedNodeMulticast(addr))))
}

// Name returns the host name.
func (h *Host) Name() string { return h.name }

// MAC returns the host's hardware address.
func (h *Host) MAC() netsim.MAC { return h.NIC.MAC() }

// Start boots the network stack: IPv6 sends a Router Solicitation, IPv4
// begins DHCP. Call after the NIC is cabled.
func (h *Host) Start() {
	if h.B.IPv6Enabled {
		h.sendRouterSolicit()
	}
	if h.B.IPv4Enabled {
		h.dhcpStart()
	}
}

// --- address accessors -------------------------------------------------

// IPv4Addr returns the host's IPv4 address (invalid when unconfigured).
func (h *Host) IPv4Addr() netip.Addr { return h.v4Addr }

// IPv6GlobalAddrs returns every non-link-local IPv6 address.
func (h *Host) IPv6GlobalAddrs() []netip.Addr {
	var out []netip.Addr
	for _, a := range h.v6Addrs {
		out = append(out, a.Addr)
	}
	return out
}

// V6Addresses returns a copy of the host's configured IPv6 addresses
// with their deprecation and lifetime state (link-local excluded).
func (h *Host) V6Addresses() []V6Addr {
	return append([]V6Addr(nil), h.v6Addrs...)
}

// RDNSS returns the learned IPv6 resolvers.
func (h *Host) RDNSS() []netip.Addr { return append([]netip.Addr(nil), h.rdnss...) }

// V4DNS returns the DHCP-learned IPv4 resolvers.
func (h *Host) V4DNS() []netip.Addr { return append([]netip.Addr(nil), h.v4DNS...) }

// IPv6OnlyActive reports whether option 108 disabled IPv4.
func (h *Host) IPv6OnlyActive() bool {
	return h.B.SupportsRFC8925 && h.Net.Clock.Now().Before(h.v6OnlyUntil)
}

// CLATActive reports whether the 464XLAT translator is running.
func (h *Host) CLATActive() bool { return h.clat != nil }

// SetIPv4Static configures IPv4 manually (servers; hosts with DHCP off).
func (h *Host) SetIPv4Static(addr netip.Addr, prefix netip.Prefix, router netip.Addr) {
	h.v4Addr, h.v4Prefix, h.v4Router = addr, prefix, router
	h.declareV4Interest() // the v4Addr guard in HandleFrame is now open
	h.record(evIPv4Static, addr, prefix.Bits(), router)
}

// AddIPv6Static adds a static IPv6 address (servers).
func (h *Host) AddIPv6Static(addr netip.Addr, prefix netip.Prefix) {
	h.v6Addrs = append(h.v6Addrs, V6Addr{Addr: addr, Prefix: prefix})
	h.declareV6Interest() // the v6Addrs guard in HandleFrame is now open
	h.joinSolicitedNode(addr)
	h.record(evIPv6Static, addr, prefix.Bits())
}

// AddIPv4Alias adds an extra IPv4 address the host answers for; the
// internet-cloud host serves many public services this way.
func (h *Host) AddIPv4Alias(addr netip.Addr) { h.v4Aliases = append(h.v4Aliases, addr) }

// ownsV4 reports whether addr is one of the host's IPv4 addresses.
func (h *Host) ownsV4(addr netip.Addr) bool {
	if addr == h.v4Addr {
		return true
	}
	for _, a := range h.v4Aliases {
		if a == addr {
			return true
		}
	}
	return false
}

// PreloadARP seeds the ARP cache (point-to-point links without a real
// ARP exchange, e.g. the gateway's WAN side).
func (h *Host) PreloadARP(addr netip.Addr, mac netsim.MAC) { h.arpCache[addr] = mac }

// PreloadNeighbor seeds the IPv6 neighbor cache.
func (h *Host) PreloadNeighbor(addr netip.Addr, mac netsim.MAC) { h.ndCache[addr] = mac }

// EnableNeighborGleaning makes the host learn neighbor cache entries
// from the unicast traffic it receives, like a router. Infrastructure
// servers in fabric worlds need this: flood scoping keeps their
// multicast Neighbor Solicitations out of the access domains, so the
// request itself must prime the reply path.
func (h *Host) EnableNeighborGleaning() { h.gleanND = true }

// AddStaticRouteV6 installs a permanent default router (used by hosts on
// point-to-point links that never receive RAs, e.g. the internet cloud
// behind the gateway's WAN port).
func (h *Host) AddStaticRouteV6(nextHop netip.Addr, mac netsim.MAC) {
	h.ndCache[nextHop] = mac
	h.routers = append(h.routers, routerEntry{
		addr: nextHop, mac: mac, preference: ndp.PrefMedium,
		expires: h.Net.Clock.Now().Add(100 * 365 * 24 * time.Hour),
	})
}

// ownsV6 reports whether addr is one of the host's IPv6 addresses.
func (h *Host) ownsV6(addr netip.Addr) bool {
	if addr == h.linkLocal {
		return true
	}
	for _, a := range h.v6Addrs {
		if a.Addr == addr {
			return true
		}
	}
	if addr == ndp.AllNodes {
		return true
	}
	if h.linkLocal.IsValid() && addr == packet.SolicitedNodeMulticast(h.linkLocal) {
		return true
	}
	for _, a := range h.v6Addrs {
		if addr == packet.SolicitedNodeMulticast(a.Addr) {
			return true
		}
	}
	return false
}

// candidateSources lists the host's addresses for RFC 6724 selection,
// rebuilt into the host's scratch on every call, so the list is valid
// only until the next call. Lifetimes are enforced here, at use time:
// RFC 4862 §5.5.4 invalidates an address when its valid lifetime lapses
// whether or not another RA ever arrives, so a host cut off from
// advertisements (the gateway-ra-outage pathology) loses its addresses
// on schedule instead of keeping them for as long as the silence lasts.
func (h *Host) candidateSources() []rfc6724.CandidateSource {
	h.expireV6Addrs(h.Net.Clock.Now())
	out := h.srcScratch[:0]
	for _, a := range h.v6Addrs {
		out = append(out, rfc6724.CandidateSource{Addr: a.Addr, Deprecated: a.Deprecated})
	}
	if h.linkLocal.IsValid() {
		out = append(out, rfc6724.CandidateSource{Addr: h.linkLocal})
	}
	if h.v4Addr.IsValid() {
		out = append(out, rfc6724.CandidateSource{Addr: h.v4Addr})
	}
	// A CLAT provides virtual IPv4 reachability through the host's IPv6
	// address; expose the CLAT host address so IPv4 literals stay usable.
	if h.clat != nil {
		out = append(out, rfc6724.CandidateSource{Addr: clat.HostV4})
	}
	h.srcScratch = out
	return out
}

// portKey identifies a local transport endpoint.
type portKey struct {
	proto uint8
	port  uint16
}

// trackCLATPort records that a local port's traffic flows through the
// CLAT, so inbound NAT64-prefixed packets on it are translated back.
func (h *Host) trackCLATPort(proto uint8, port uint16) {
	if h.clat != nil && !h.v4Addr.IsValid() {
		h.clatPorts[portKey{proto: proto, port: port}] = true
	}
}

// clatOwns reports whether inbound traffic on (proto, port) belongs to a
// CLAT-carried IPv4 flow.
func (h *Host) clatOwns(proto uint8, port uint16) bool {
	return h.clat != nil && h.clatPorts[portKey{proto: proto, port: port}]
}

// HandleFrame implements netsim.FrameHandler; it dispatches by EtherType.
func (h *Host) HandleFrame(_ *netsim.NIC, f netsim.Frame) {
	// Early demux: a flooded unicast frame for some other host is
	// rejected on its dst MAC alone, before any packet parse. ARP stays
	// exempt — hosts snoop flooded ARP traffic to learn neighbours
	// opportunistically.
	if !f.Dst.IsMulticast() && f.Dst != h.NIC.MAC() && f.EtherType != netsim.EtherTypeARP {
		return
	}
	switch f.EtherType {
	case netsim.EtherTypeARP:
		if h.B.IPv4Enabled || h.v4Addr.IsValid() {
			h.handleARP(f)
		}
	case netsim.EtherTypeIPv4:
		if h.B.IPv4Enabled || h.v4Addr.IsValid() {
			if f.Dst == netsim.Broadcast && h.rejectBroadcastUDP(f.Payload) {
				return
			}
			h.handleIPv4Frame(f)
		}
	case netsim.EtherTypeIPv6:
		if h.B.IPv6Enabled || len(h.v6Addrs) > 0 {
			h.handleIPv6Frame(f)
		}
	}
}

// rejectBroadcastUDP reports whether a link-broadcast IPv4 payload can
// be dropped on a fixed-offset peek: an unfragmented limited-broadcast
// UDP datagram to a port nobody here is bound to. Every DHCPv4 DISCOVER
// on the LAN reaches every IPv4 host; non-servers drop them here
// without parsing headers or verifying checksums. Anything unusual
// (options are fine, fragments and short packets are not) falls through
// to the full parse, which drops the same frames more slowly — the peek
// only ever rejects what deliverIPv4 would reject.
func (h *Host) rejectBroadcastUDP(b []byte) bool {
	if len(b) < packet.IPv4MinHeaderLen || b[0]>>4 != 4 {
		return false
	}
	hlen := int(b[0]&0x0f) * 4
	if hlen < packet.IPv4MinHeaderLen || len(b) < hlen+packet.UDPHeaderLen {
		return false
	}
	if b[9] != packet.ProtoUDP {
		return false
	}
	if fragFlags := uint16(b[6])<<8 | uint16(b[7]); fragFlags&0x3fff != 0 {
		return false // fragment: let the full path decide
	}
	if [4]byte(b[16:20]) != [4]byte{255, 255, 255, 255} {
		return false // subnet-directed broadcast etc.: full path
	}
	dstPort := uint16(b[hlen+2])<<8 | uint16(b[hlen+3])
	_, bound := h.udpBind[dstPort]
	return !bound
}
