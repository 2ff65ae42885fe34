package dhcp4

import (
	"fmt"
	"net/netip"
	"time"
)

// Lease records one address binding.
type Lease struct {
	Addr    netip.Addr
	CHAddr  [6]byte
	Expires time.Time
}

// ServerConfig describes a DHCPv4 scope.
type ServerConfig struct {
	ServerID   netip.Addr // the server's own IPv4 address (option 54)
	PoolStart  netip.Addr
	PoolEnd    netip.Addr
	SubnetMask netip.Addr
	Router     netip.Addr
	DNS        []netip.Addr
	DomainName string
	LeaseTime  time.Duration

	// V6OnlyWait enables RFC 8925: when non-zero, clients that request
	// option 108 receive it with this wait value and no IPv4 address.
	V6OnlyWait time.Duration
}

// Server is a DHCPv4 server with an address pool and lease table. It is
// message-level: the owning host binds it to UDP port 67 on the fabric.
type Server struct {
	cfg ServerConfig
	now func() time.Time

	leases map[[6]byte]*Lease
	inUse  map[netip.Addr][6]byte
	// cursor is where the next pool scan starts. Allocation is
	// round-robin rather than first-fit, and the cursor deliberately
	// survives DropLeases: a client that lost its server-side binding in
	// a gateway power cycle still holds its address, so re-offering low
	// pool addresses immediately after a wipe would hand new clients an
	// address an earlier client is actively using (RFC 2131 §4.3.1 asks
	// servers to avoid exactly that reuse).
	cursor netip.Addr

	// domains, when non-nil, scopes allocation per access domain the way
	// a DHCP relay's giaddr selects a sub-pool: domainOf maps a client
	// MAC to its domain and each domain round-robins inside its own
	// slice of the scope. Clients in unregistered domains fall back to
	// the whole pool.
	domains  map[int]*domainState
	domainOf func(chaddr [6]byte) int

	// Counters for the experiment harness.
	Offers        uint64
	Acks          uint64
	Naks          uint64
	Option108Sent uint64
	PoolExhausted uint64
}

// NewServer creates a server over cfg using now for lease timing.
func NewServer(cfg ServerConfig, now func() time.Time) (*Server, error) {
	if !cfg.ServerID.Is4() || !cfg.PoolStart.Is4() || !cfg.PoolEnd.Is4() {
		return nil, fmt.Errorf("dhcp4: server needs IPv4 ServerID and pool bounds")
	}
	if cfg.PoolStart.Compare(cfg.PoolEnd) > 0 {
		return nil, fmt.Errorf("dhcp4: pool start %v after end %v", cfg.PoolStart, cfg.PoolEnd)
	}
	if cfg.LeaseTime == 0 {
		cfg.LeaseTime = time.Hour
	}
	return &Server{
		cfg:    cfg,
		now:    now,
		leases: make(map[[6]byte]*Lease),
		inUse:  make(map[netip.Addr][6]byte),
		cursor: cfg.PoolStart,
	}, nil
}

// DomainPool is the slice of the scope reserved for one access domain.
type DomainPool struct {
	Start, End netip.Addr
}

// domainState tracks one domain's pool bounds and round-robin cursor.
type domainState struct {
	pool   DomainPool
	cursor netip.Addr
}

// SetDomains installs DHCP-relay-style per-domain lease scoping: lookup
// maps a client MAC to its access-domain index, and each registered
// domain allocates round-robin inside its own sub-pool. In the physical
// testbed this is the relay-agent giaddr selecting a subnet scope; the
// simulator collapses the relay hop and keys on the client MAC instead
// (every frame here would have arrived via the domain's own trunk).
// Pools must sit inside the server's scope and must not overlap.
func (s *Server) SetDomains(pools map[int]DomainPool, lookup func(chaddr [6]byte) int) error {
	if lookup == nil {
		return fmt.Errorf("dhcp4: SetDomains needs a domain lookup")
	}
	ds := make(map[int]*domainState, len(pools))
	for id, p := range pools {
		if !p.Start.Is4() || !p.End.Is4() || p.Start.Compare(p.End) > 0 {
			return fmt.Errorf("dhcp4: domain %d pool %v-%v invalid", id, p.Start, p.End)
		}
		if !s.inPool(p.Start) || !s.inPool(p.End) {
			return fmt.Errorf("dhcp4: domain %d pool %v-%v outside scope %v-%v",
				id, p.Start, p.End, s.cfg.PoolStart, s.cfg.PoolEnd)
		}
		for other, q := range pools {
			if other != id && p.Start.Compare(q.End) <= 0 && q.Start.Compare(p.End) <= 0 {
				return fmt.Errorf("dhcp4: domain %d pool overlaps domain %d", id, other)
			}
		}
		ds[id] = &domainState{pool: p, cursor: p.Start}
	}
	s.domains = ds
	s.domainOf = lookup
	return nil
}

// LeaseCount returns the number of unexpired leases.
func (s *Server) LeaseCount() int {
	n := 0
	now := s.now()
	for _, l := range s.leases {
		if l.Expires.After(now) {
			n++
		}
	}
	return n
}

// LeaseFor returns the active lease for a client MAC, if any.
func (s *Server) LeaseFor(chaddr [6]byte) (*Lease, bool) {
	l, ok := s.leases[chaddr]
	if !ok || !l.Expires.After(s.now()) {
		return nil, false
	}
	return l, true
}

// Handle processes one client message and returns the reply, or nil when
// no reply is warranted (e.g. RELEASE, or a REQUEST meant for another
// server).
func (s *Server) Handle(req *Message) *Message {
	if req.Op != OpRequest {
		return nil
	}
	switch req.Type() {
	case Discover:
		return s.handleDiscover(req)
	case Request:
		return s.handleRequest(req)
	case Release:
		s.release(req.CHAddr)
		return nil
	case Inform:
		resp := s.reply(req, ACK)
		resp.YIAddr = netip.AddrFrom4([4]byte{})
		return resp
	default:
		return nil
	}
}

func (s *Server) handleDiscover(req *Message) *Message {
	// RFC 8925 §3.2: when the client signals IPv6-only capability via the
	// parameter request list and the scope prefers IPv6-only, answer with
	// option 108 and do not commit an address.
	if s.cfg.V6OnlyWait > 0 && req.RequestsOption(OptIPv6OnlyPreferred) {
		resp := s.reply(req, Offer)
		resp.SetIPv6OnlyPreferred(uint32(s.cfg.V6OnlyWait / time.Second))
		s.Option108Sent++
		s.Offers++
		return resp
	}
	addr, ok := s.allocate(req)
	if !ok {
		s.PoolExhausted++
		return nil // silence: real servers do not NAK a DISCOVER
	}
	resp := s.reply(req, Offer)
	resp.YIAddr = addr
	s.Offers++
	return resp
}

func (s *Server) handleRequest(req *Message) *Message {
	// Ignore requests addressed to a different server.
	if sid, ok := req.IPv4Option(OptServerID); ok && sid != s.cfg.ServerID {
		return nil
	}
	want, ok := req.IPv4Option(OptRequestedIP)
	if !ok {
		want = req.CIAddr // renewing
	}
	lease, has := s.leases[req.CHAddr]
	if !has || lease.Addr != want || !want.Is4() || want == (netip.AddrFrom4([4]byte{})) {
		s.Naks++
		return s.reply(req, NAK)
	}
	lease.Expires = s.now().Add(s.cfg.LeaseTime)
	resp := s.reply(req, ACK)
	resp.YIAddr = lease.Addr
	// RFC 8925 also applies to ACKs for clients still asking.
	if s.cfg.V6OnlyWait > 0 && req.RequestsOption(OptIPv6OnlyPreferred) {
		resp.SetIPv6OnlyPreferred(uint32(s.cfg.V6OnlyWait / time.Second))
		s.Option108Sent++
	}
	s.Acks++
	return resp
}

func (s *Server) release(chaddr [6]byte) {
	if l, ok := s.leases[chaddr]; ok {
		delete(s.inUse, l.Addr)
		delete(s.leases, chaddr)
	}
}

// DropLeases forgets every binding at once — the server-side effect of
// a power cycle on a device that keeps its lease table in RAM (the
// paper's 5G gateway). Clients discover the loss when their next
// REQUEST is NAKed and must re-DISCOVER. The allocation cursor is NOT
// reset, so addresses issued before the wipe — still held client-side —
// are not re-offered until the pool wraps.
func (s *Server) DropLeases() {
	clear(s.leases)
	clear(s.inUse)
}

// domainFor returns the registered domain state for a client, or nil
// when the client allocates from the whole scope.
func (s *Server) domainFor(chaddr [6]byte) *domainState {
	if s.domainOf == nil {
		return nil
	}
	return s.domains[s.domainOf(chaddr)]
}

// allocate finds or creates a lease for the client inside its domain's
// slice of the pool (or the whole pool when unscoped).
func (s *Server) allocate(req *Message) (netip.Addr, bool) {
	now := s.now()
	if l, ok := s.leases[req.CHAddr]; ok {
		l.Expires = now.Add(s.cfg.LeaseTime)
		return l.Addr, true
	}
	dom := s.domainFor(req.CHAddr)
	start, end, cursor := s.cfg.PoolStart, s.cfg.PoolEnd, s.cursor
	if dom != nil {
		start, end, cursor = dom.pool.Start, dom.pool.End, dom.cursor
	}
	inRange := func(a netip.Addr) bool {
		return a.Is4() && start.Compare(a) <= 0 && a.Compare(end) <= 0
	}
	// Honor a valid requested address when free and inside the domain.
	if want, ok := req.IPv4Option(OptRequestedIP); ok && inRange(want) {
		if _, used := s.inUse[want]; !used {
			return s.commit(req.CHAddr, want, dom), true
		}
	}
	// Round-robin scan: start at the cursor, wrap once through the pool.
	a := cursor
	if !inRange(a) {
		a = start
	}
	for first := a; ; {
		owner, used := s.inUse[a]
		if !used {
			return s.commit(req.CHAddr, a, dom), true
		}
		if l, ok := s.leases[owner]; ok && !l.Expires.After(now) {
			s.release(owner) // reclaim expired lease
			return s.commit(req.CHAddr, a, dom), true
		}
		if a = a.Next(); !inRange(a) {
			a = start
		}
		if a == first {
			return netip.Addr{}, false
		}
	}
}

func (s *Server) commit(chaddr [6]byte, addr netip.Addr, dom *domainState) netip.Addr {
	s.leases[chaddr] = &Lease{Addr: addr, CHAddr: chaddr, Expires: s.now().Add(s.cfg.LeaseTime)}
	s.inUse[addr] = chaddr
	if dom != nil {
		if dom.cursor = addr.Next(); !dom.cursor.Is4() || dom.pool.End.Compare(dom.cursor) < 0 || dom.cursor.Compare(dom.pool.Start) < 0 {
			dom.cursor = dom.pool.Start
		}
		return addr
	}
	if s.cursor = addr.Next(); !s.inPool(s.cursor) {
		s.cursor = s.cfg.PoolStart
	}
	return addr
}

func (s *Server) inPool(a netip.Addr) bool {
	return a.Is4() && s.cfg.PoolStart.Compare(a) <= 0 && a.Compare(s.cfg.PoolEnd) <= 0
}

// reply builds a server response mirroring xid/chaddr and carrying the
// scope options.
func (s *Server) reply(req *Message, msgType uint8) *Message {
	resp := NewMessage(OpReply, req.XID, req.CHAddr)
	resp.Broadcast = req.Broadcast
	resp.SetType(msgType)
	resp.SetIPv4Option(OptServerID, s.cfg.ServerID)
	if msgType == NAK {
		return resp
	}
	if s.cfg.SubnetMask.Is4() {
		resp.SetIPv4Option(OptSubnetMask, s.cfg.SubnetMask)
	}
	if s.cfg.Router.Is4() {
		resp.SetIPv4Option(OptRouter, s.cfg.Router)
	}
	if len(s.cfg.DNS) > 0 {
		resp.SetIPv4ListOption(OptDNSServers, s.cfg.DNS...)
	}
	if s.cfg.DomainName != "" {
		resp.Options[OptDomainName] = []byte(s.cfg.DomainName)
	}
	secs := uint32(s.cfg.LeaseTime / time.Second)
	resp.Options[OptLeaseTime] = []byte{byte(secs >> 24), byte(secs >> 16), byte(secs >> 8), byte(secs)}
	return resp
}
