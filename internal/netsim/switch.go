package netsim

import "math/bits"

// FrameFilter inspects a frame arriving on a switch port and reports
// whether it may be forwarded. Returning false drops the frame. The
// managed-switch DHCPv4 snooping intervention from the paper is built on
// this hook.
type FrameFilter func(ingressPort int, f Frame) bool

// portSet is a bitset over switch port indexes, the representation
// behind the per-port interest filters: word-wide AND/OR lets the flood
// path evaluate eligibility for 64 ports per operation instead of
// walking every port.
type portSet []uint64

func (s *portSet) grow(n int) {
	for need := (n + 63) >> 6; len(*s) < need; {
		*s = append(*s, 0)
	}
}

func (s *portSet) add(i int) {
	s.grow(i + 1)
	(*s)[i>>6] |= 1 << (uint(i) & 63)
}

func (s *portSet) remove(i int) {
	if w := i >> 6; w < len(*s) {
		(*s)[w] &^= 1 << (uint(i) & 63)
	}
}

func (s portSet) has(i int) bool {
	w := i >> 6
	return w < len(s) && s[w]&(1<<(uint(i)&63)) != 0
}

// word returns the w-th 64-port chunk, tolerating short sets.
func (s portSet) word(w int) uint64 {
	if w < len(s) {
		return s[w]
	}
	return 0
}

func (s portSet) empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// Switch is a transparent learning bridge. Each port is a NIC whose peer
// is the attached device's NIC. Unknown-destination and multicast frames
// flood to every port except the ingress — minus the ports whose peers
// have declared (via NIC.RestrictFlooding and friends) that they would
// drop the frame anyway. That suppression is the simulator's equivalent
// of MLD/IGMP snooping on a managed switch: it changes no observable
// behaviour (only frames a receiver provably discards at its own demux
// are skipped) but turns broadcast-domain cost from O(ports) per flood
// into O(interested ports).
type Switch struct {
	name    string
	net     *Network
	ports   []*NIC
	table   map[MAC]int
	filters []FrameFilter

	// Snooped flood-interest state, mirrored from the attached NICs'
	// declarations. restricted marks ports whose peer opted in to
	// filtering; the want* sets index EtherType interest; groups indexes
	// multicast MAC membership (solicited-node, all-nodes). Ports outside
	// restricted receive every flood, preserving promiscuous delivery for
	// routers and monitors.
	restricted portSet
	wantARP    portSet
	wantIPv4   portSet
	wantIPv6   portSet
	groups     map[MAC]*portSet

	// Fabric tier state. trunks marks ports cabled to another switch
	// (MarkTrunk); with scopeTrunks set this switch delimits broadcast
	// domains: no flood — multicast, broadcast or unknown unicast — ever
	// egresses a trunk port. Known-unicast forwarding crosses trunks
	// normally, so each access domain's floods stay local while learned
	// conversations route through the fabric. freePorts recycles detached
	// port slots (DetachPort) so a world that materializes and parks
	// millions of transient hosts keeps a bounded port table.
	trunks      portSet
	scopeTrunks bool
	freePorts   []int
	detached    portSet

	// scratch is the reusable eligibility mask for the flood fast path.
	scratch []uint64

	flooded      uint64
	forwarded    uint64
	filtered     uint64
	fanoutFloods uint64
	supEther     uint64
	supGroup     uint64
	supUnicast   uint64
}

// NewSwitch creates a switch with no ports on the given fabric.
func NewSwitch(net *Network, name string) *Switch {
	return &Switch{name: name, net: net, table: make(map[MAC]int)}
}

// AddFilter registers a snooping filter consulted for every ingress frame.
func (s *Switch) AddFilter(f FrameFilter) { s.filters = append(s.filters, f) }

// NumPorts returns the current port count.
func (s *Switch) NumPorts() int { return len(s.ports) }

// AttachPort creates a new switch port and cables it to the given NIC.
// It returns the port index. Slots freed by DetachPort are reused
// (most recently freed first) before the port table grows.
func (s *Switch) AttachPort(peer *NIC) int {
	if n := len(s.freePorts); n > 0 {
		idx := s.freePorts[n-1]
		s.freePorts = s.freePorts[:n-1]
		s.detached.remove(idx)
		s.net.Connect(s.ports[idx], peer)
		s.syncPeerInterests(idx, peer)
		return idx
	}
	idx := len(s.ports)
	port := s.net.NewNIC(s.name+"-p"+itoa(idx), portHandler{s: s, port: idx})
	s.ports = append(s.ports, port)
	s.net.Connect(port, peer)
	s.syncPeerInterests(idx, peer)
	return idx
}

// DetachPort uncables a port and parks its slot for reuse. The peer
// NIC's learned MAC-table entry and all of the port's snooped interest
// state are purged, so the slot's next tenant starts clean. Frames
// already in flight toward the detached peer are dropped at delivery,
// exactly as for any unplugged NIC.
func (s *Switch) DetachPort(idx int) {
	port := s.ports[idx]
	peer := port.peer
	if peer == nil {
		return
	}
	delete(s.table, peer.mac)
	port.peer = nil
	peer.peer = nil
	s.restricted.remove(idx)
	s.wantARP.remove(idx)
	s.wantIPv4.remove(idx)
	s.wantIPv6.remove(idx)
	for g, ps := range s.groups {
		ps.remove(idx)
		if ps.empty() {
			delete(s.groups, g)
		}
	}
	s.detached.add(idx)
	s.freePorts = append(s.freePorts, idx)
}

// Unlearn forgets a MAC-table entry (a parked fabric client's address,
// learned here across a trunk). Harmless for unknown MACs.
func (s *Switch) Unlearn(m MAC) { delete(s.table, m) }

// PortOf returns the learned port for a MAC, if any (DHCP-snooping
// features use it to direct server broadcasts at the client's port).
func (s *Switch) PortOf(m MAC) (int, bool) {
	p, ok := s.table[m]
	return p, ok
}

// MarkTrunk flags a port as a trunk to another switch. Trunk ports only
// take part in broadcast scoping when ScopeTrunks is also set.
func (s *Switch) MarkTrunk(idx int) { s.trunks.add(idx) }

// ScopeTrunks makes this switch delimit broadcast domains at its trunk
// ports: floods (multicast, broadcast, unknown unicast) never egress a
// trunk, regardless of ingress. Learned unicast still crosses trunks.
// The distribution switch of a fabric sets this so one access domain's
// DHCP storms and the spine's RA beacons stay out of every other
// domain; domain devices are reached by scoped responses instead
// (unicast RAs, per-ingress-trunk switch RAs).
func (s *Switch) ScopeTrunks() { s.scopeTrunks = true }

// IsTrunk reports whether a port was marked as a trunk.
func (s *Switch) IsTrunk(idx int) bool { return s.trunks.has(idx) }

// ConnectSwitches trunks two switches with a point-to-point link: a port
// is created on each and cross-connected. It returns the new port index
// on each side (a's first). Neither port is marked as a trunk — callers
// decide which side scopes (typically MarkTrunk on the distribution
// side).
func ConnectSwitches(a, b *Switch) (aPort, bPort int) {
	aPort = len(a.ports)
	an := a.net.NewNIC(a.name+"-p"+itoa(aPort), portHandler{s: a, port: aPort})
	a.ports = append(a.ports, an)
	bPort = len(b.ports)
	bn := b.net.NewNIC(b.name+"-p"+itoa(bPort), portHandler{s: b, port: bPort})
	b.ports = append(b.ports, bn)
	a.net.Connect(an, bn)
	return aPort, bPort
}

// syncPeerInterests imports flood-interest declarations a NIC made
// before it was cabled to this switch; declarations made afterwards
// arrive through the floodSubscriber callbacks on portHandler.
func (s *Switch) syncPeerInterests(idx int, peer *NIC) {
	if !peer.managed {
		return
	}
	s.restricted.add(idx)
	if peer.wantARP {
		s.wantARP.add(idx)
	}
	if peer.wantIPv4 {
		s.wantIPv4.add(idx)
	}
	if peer.wantIPv6 {
		s.wantIPv6.add(idx)
	}
	for g := range peer.groups {
		s.joinGroup(idx, g)
	}
}

// etSet returns the interest bitset for a floodable EtherType, or nil
// for EtherTypes the snooper does not track.
func (s *Switch) etSet(et uint16) *portSet {
	switch et {
	case EtherTypeARP:
		return &s.wantARP
	case EtherTypeIPv4:
		return &s.wantIPv4
	case EtherTypeIPv6:
		return &s.wantIPv6
	}
	return nil
}

func (s *Switch) joinGroup(port int, g MAC) {
	if s.groups == nil {
		s.groups = make(map[MAC]*portSet)
	}
	ps := s.groups[g]
	if ps == nil {
		ps = new(portSet)
		s.groups[g] = ps
	}
	ps.add(port)
}

func (s *Switch) leaveGroup(port int, g MAC) {
	ps := s.groups[g]
	if ps == nil {
		return
	}
	ps.remove(port)
	if ps.empty() {
		delete(s.groups, g)
	}
}

// PortNIC returns the switch-side NIC for a port (used to inject frames,
// e.g. the managed switch's own Router Advertisements).
func (s *Switch) PortNIC(i int) *NIC { return s.ports[i] }

// InjectAll transmits a frame out of every port, as if originated by the
// switch itself. Multicast injections with a stamped source ride the
// shared-payload fan-out path (one event, one payload copy, snooping
// suppression applied); anything else falls back to per-port transmits.
func (s *Switch) InjectAll(f Frame) {
	if f.Src.IsZero() || !f.Dst.IsMulticast() {
		for i, p := range s.ports {
			if p.peer == nil || (s.scopeTrunks && s.trunks.has(i)) {
				continue
			}
			p.Transmit(f)
		}
		return
	}
	s.floodMulticast(-1, f)
}

// SwitchStats is a point-in-time snapshot of a switch's forwarding and
// flood-suppression counters.
type SwitchStats struct {
	// Forwarded counts known-unicast frames sent out exactly one port.
	Forwarded uint64
	// Flooded counts ingress frames that had to flood (unknown unicast
	// or multicast destination).
	Flooded uint64
	// Filtered counts ingress frames dropped by a FrameFilter.
	Filtered uint64
	// FanoutFloods counts floods delivered as a single shared-payload
	// fan-out event instead of per-port copies.
	FanoutFloods uint64
	// SuppressedEtherType counts per-port deliveries skipped because the
	// port's peer declared no interest in the frame's EtherType (e.g.
	// DHCPv4 DISCOVER broadcasts never reach IPv6-only ports).
	SuppressedEtherType uint64
	// SuppressedGroup counts per-port deliveries skipped because the
	// port's peer is not a member of the frame's multicast MAC group
	// (e.g. solicited-node Neighbor Solicitations reach only the
	// solicited host).
	SuppressedGroup uint64
	// SuppressedUnicast counts per-port deliveries of unknown-unicast
	// floods skipped because the frame is addressed to some other NIC
	// and the port's peer would drop it at its own dst-MAC demux.
	SuppressedUnicast uint64
}

// Stats returns the switch's forwarding and suppression counters.
func (s *Switch) Stats() SwitchStats {
	return SwitchStats{
		Forwarded:           s.forwarded,
		Flooded:             s.flooded,
		Filtered:            s.filtered,
		FanoutFloods:        s.fanoutFloods,
		SuppressedEtherType: s.supEther,
		SuppressedGroup:     s.supGroup,
		SuppressedUnicast:   s.supUnicast,
	}
}

// portHandler receives frames on a switch port and relays the attached
// NIC's flood-interest declarations into the switch's snooping state.
type portHandler struct {
	s    *Switch
	port int
}

func (h portHandler) HandleFrame(_ *NIC, f Frame) { h.s.ingress(h.port, f) }

func (h portHandler) peerRestricted() { h.s.restricted.add(h.port) }

func (h portHandler) peerEtherInterest(et uint16) {
	if ps := h.s.etSet(et); ps != nil {
		ps.add(h.port)
	}
}

func (h portHandler) peerJoinedGroup(g MAC) { h.s.joinGroup(h.port, g) }

func (h portHandler) peerLeftGroup(g MAC) { h.s.leaveGroup(h.port, g) }

func (s *Switch) ingress(port int, f Frame) {
	for _, flt := range s.filters {
		if !flt(port, f) {
			s.filtered++
			return
		}
	}
	// Learn the source only after every filter has passed: a frame the
	// snooper drops (e.g. a rogue DHCPv4 server on an untrusted port)
	// must not poison the MAC table and steal the real owner's traffic.
	if !f.Src.IsMulticast() && !f.Src.IsZero() {
		s.table[f.Src] = port
	}
	if !f.Dst.IsMulticast() {
		if out, ok := s.table[f.Dst]; ok {
			if out != port {
				s.forwarded++
				s.ports[out].Transmit(f)
			}
			return
		}
		s.flooded++
		s.floodUnicast(port, f)
		return
	}
	s.flooded++
	s.floodMulticast(port, f)
}

// floodUnicast floods an unknown-destination unicast frame. It stays on
// the per-port transmit path (not fan-out) so that a frame addressed to
// an rx-impaired NIC keeps consuming that NIC's impairment stream
// exactly as a directly forwarded frame would. Managed ports whose peer
// is not the addressee are skipped — mirroring the receiver's own
// dst-MAC demux reject — except for ARP, which hosts snoop
// opportunistically to learn neighbours.
func (s *Switch) floodUnicast(ingress int, f Frame) {
	for i, p := range s.ports {
		if i == ingress {
			continue
		}
		if s.scopeTrunks && s.trunks.has(i) {
			continue // floods never egress a trunk on a scoping switch
		}
		peer := p.peer
		if peer == nil {
			continue // detached slot awaiting reuse
		}
		if peer.managed && peer.mac != f.Dst {
			if f.EtherType != EtherTypeARP || !peer.wantARP {
				s.supUnicast++
				continue
			}
		}
		p.Transmit(f)
	}
}

// isV6GroupMAC reports whether m is an IPv6 multicast MAC (33:33:…),
// for which snooped group membership applies. Other multicast
// destinations — notably the broadcast address — are filtered on
// EtherType interest alone.
func isV6GroupMAC(m MAC) bool { return m[0] == 0x33 && m[1] == 0x33 }

// floodMulticast floods a multicast/broadcast frame to every eligible
// port as one shared-payload fan-out event: one payload copy and one
// queue push regardless of port count. ingress < 0 floods out of all
// ports (switch-originated injection). Eligibility is computed 64 ports
// at a time from the snooped interest bitsets; delivery order (port
// index order at one virtual instant) is identical to the legacy
// per-port loop, so behaviour is bit-for-bit preserved. If any eligible
// egress port carries an impairment the flood falls back to per-port
// transmits, keeping impairment PRNG stream consumption unchanged.
func (s *Switch) floodMulticast(ingress int, f Frame) {
	n := len(s.ports)
	if n == 0 {
		return
	}
	et := s.etSet(f.EtherType)
	groupRule := isV6GroupMAC(f.Dst)
	var grp *portSet
	if groupRule && s.groups != nil {
		grp = s.groups[f.Dst]
	}

	words := (n + 63) >> 6
	if cap(s.scratch) < words {
		s.scratch = make([]uint64, words)
	}
	mask := s.scratch[:words]
	for w := 0; w < words; w++ {
		all := ^uint64(0)
		if w == words-1 && n&63 != 0 {
			all = 1<<(uint(n)&63) - 1
		}
		var ing uint64
		if ingress >= 0 && ingress>>6 == w {
			ing = 1 << (uint(ingress) & 63)
		}
		restricted := s.restricted.word(w) & all &^ ing
		var etw uint64
		if et != nil {
			etw = et.word(w)
		}
		interested := etw
		if groupRule {
			var gw uint64
			if grp != nil {
				gw = grp.word(w)
			}
			interested &= gw
			s.supGroup += uint64(bits.OnesCount64(restricted & etw &^ gw))
		}
		s.supEther += uint64(bits.OnesCount64(restricted &^ etw))
		mw := ((^s.restricted.word(w) | interested) & all) &^ ing
		// Fabric exclusions: a scoping switch never floods out a trunk,
		// and parked (detached) slots receive nothing.
		if s.scopeTrunks {
			mw &^= s.trunks.word(w)
		}
		mw &^= s.detached.word(w)
		mask[w] = mw
	}

	for w, m := range mask {
		for m != 0 {
			i := w<<6 + bits.TrailingZeros64(m)
			m &= m - 1
			if s.ports[i].impair != nil {
				s.floodLegacy(mask, f)
				return
			}
		}
	}

	dsts := s.net.takeFanout()
	size := uint64(len(f.Payload))
	for w, m := range mask {
		for m != 0 {
			i := w<<6 + bits.TrailingZeros64(m)
			m &= m - 1
			p := s.ports[i]
			p.txFrames++
			p.txBytes += size
			if p.peer == nil {
				s.net.dropped++
				continue
			}
			dsts = append(dsts, p.peer)
		}
	}
	if len(dsts) == 0 {
		s.net.releaseFanout(dsts)
		return
	}
	s.fanoutFloods++
	payload := s.net.arena.alloc(len(f.Payload))
	copy(payload, f.Payload)
	f.Payload = payload
	s.net.scheduleFanout(DefaultLinkLatency, dsts, f)
}

// floodLegacy delivers a flood to the masked ports via individual
// transmits — the fallback when an egress link is impaired and per-frame
// PRNG draws must happen in the same order as always.
func (s *Switch) floodLegacy(mask []uint64, f Frame) {
	for w, m := range mask {
		for m != 0 {
			i := w<<6 + bits.TrailingZeros64(m)
			m &= m - 1
			s.ports[i].Transmit(f)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
