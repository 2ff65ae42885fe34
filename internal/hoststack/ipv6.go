package hoststack

import (
	"net/netip"
	"time"

	"repro/internal/ndp"
	"repro/internal/netsim"
	"repro/internal/packet"
)

func (h *Host) sendRouterSolicit() {
	rs := &ndp.RouterSolicit{SourceLinkAddr: h.NIC.MAC(), HasSourceLink: true}
	body := (&packet.ICMP{Type: packet.ICMPv6RouterSolicit, Body: rs.Marshal()}).
		MarshalV6(h.linkLocal, ndp.AllRouters)
	p := &packet.IPv6{
		NextHeader: packet.ProtoICMPv6, HopLimit: 255,
		Src: h.linkLocal, Dst: ndp.AllRouters, Payload: body,
	}
	h.NIC.Transmit(netsim.Frame{
		Dst: netsim.MAC(packet.MulticastMAC(ndp.AllRouters)), EtherType: netsim.EtherTypeIPv6, Payload: p.Marshal(),
	})
}

// SendIPv6 routes and transmits an IPv6 packet, resolving the next hop
// via neighbor discovery.
func (h *Host) SendIPv6(p *packet.IPv6) error {
	if !h.B.IPv6Enabled && len(h.v6Addrs) == 0 {
		return errNoIPv6
	}
	if p.Dst.IsMulticast() {
		h.NIC.Transmit(netsim.Frame{
			Dst: netsim.MAC(packet.MulticastMAC(p.Dst)), EtherType: netsim.EtherTypeIPv6, Payload: p.Marshal(),
		})
		return nil
	}
	if h.ownsV6(p.Dst) {
		h.deliverIPv6(p)
		return nil
	}
	nextHop, err := h.nextHopV6(p.Dst)
	if err != nil {
		return err
	}
	if mac, ok := h.ndCache[nextHop]; ok {
		h.NIC.Transmit(netsim.Frame{Dst: mac, EtherType: netsim.EtherTypeIPv6, Payload: p.Marshal()})
		return nil
	}
	h.ndPending[nextHop] = append(h.ndPending[nextHop], p)
	h.sendNeighborSolicit(nextHop)
	return nil
}

// nextHopV6 picks the on-link neighbor or the best default router.
func (h *Host) nextHopV6(dst netip.Addr) (netip.Addr, error) {
	if dst.IsLinkLocalUnicast() {
		return dst, nil
	}
	for _, a := range h.v6Addrs {
		if a.Prefix.IsValid() && a.Prefix.Contains(dst) {
			return dst, nil
		}
	}
	if r, ok := h.bestRouter(); ok {
		return r.addr, nil
	}
	return netip.Addr{}, errNoV6Route
}

// bestRouter returns the highest-preference unexpired default router.
func (h *Host) bestRouter() (routerEntry, bool) {
	now := h.Net.Clock.Now()
	var best routerEntry
	found := false
	for _, r := range h.routers {
		if !r.expires.After(now) {
			continue
		}
		if !found || r.preference > best.preference {
			best, found = r, true
		}
	}
	return best, found
}

func (h *Host) sendNeighborSolicit(target netip.Addr) {
	ns := &ndp.NeighborSolicit{Target: target, SourceLinkAddr: h.NIC.MAC(), HasSourceLink: true}
	src := h.linkLocal
	if !src.IsValid() && len(h.v6Addrs) > 0 {
		src = h.v6Addrs[0].Addr
	}
	snm := packet.SolicitedNodeMulticast(target)
	body := (&packet.ICMP{Type: packet.ICMPv6NeighborSolicit, Body: ns.Marshal()}).MarshalV6(src, snm)
	p := &packet.IPv6{NextHeader: packet.ProtoICMPv6, HopLimit: 255, Src: src, Dst: snm, Payload: body}
	h.NIC.Transmit(netsim.Frame{
		Dst: netsim.MAC(packet.MulticastMAC(snm)), EtherType: netsim.EtherTypeIPv6, Payload: p.Marshal(),
	})
}

func (h *Host) flushNDPending(addr netip.Addr) {
	mac, ok := h.ndCache[addr]
	if !ok {
		return
	}
	for _, p := range h.ndPending[addr] {
		h.NIC.Transmit(netsim.Frame{Dst: mac, EtherType: netsim.EtherTypeIPv6, Payload: p.Marshal()})
	}
	delete(h.ndPending, addr)
}

func (h *Host) handleIPv6Frame(f netsim.Frame) {
	var p packet.IPv6
	if p.Decode(f.Payload) != nil {
		return
	}
	if !h.ownsV6(p.Dst) {
		return
	}
	// Servers in scoped-flood (fabric) worlds glean neighbors from the
	// traffic they serve, exactly as the gateway does: an ND multicast
	// solicitation toward a client would never cross a scoped trunk, so
	// the reply path must come from the request itself.
	if h.gleanND && !p.Src.IsMulticast() && p.Src.IsValid() && !f.Src.IsZero() {
		if _, known := h.ndCache[p.Src]; !known {
			h.ndCache[p.Src] = f.Src
			h.flushNDPending(p.Src)
		}
	}
	h.deliverIPv6(&p)
}

func (h *Host) deliverIPv6(p *packet.IPv6) {
	switch p.NextHeader {
	case packet.ProtoICMPv6:
		h.handleICMPv6(p)
	case packet.ProtoUDP:
		var u packet.UDP
		if u.Decode(p.Payload, p.Src, p.Dst) != nil {
			return
		}
		if h.clatOwns(packet.ProtoUDP, u.DstPort) {
			h.deliverViaCLAT(p)
			return
		}
		if handler, ok := h.udpBind[u.DstPort]; ok {
			handler(p.Src, u.SrcPort, p.Dst, u.Payload)
		}
	case packet.ProtoTCP:
		var tc packet.TCP
		if tc.Decode(p.Payload, p.Src, p.Dst) != nil {
			return
		}
		if h.clatOwns(packet.ProtoTCP, tc.DstPort) {
			h.deliverViaCLAT(p)
			return
		}
		h.handleTCP(p.Src, p.Dst, &tc)
	}
}

// deliverViaCLAT translates an inbound NAT64-prefixed packet back to
// IPv4 for the legacy application socket.
func (h *Host) deliverViaCLAT(p *packet.IPv6) {
	v4, err := h.clat.TranslateV6ToV4(p)
	if err != nil {
		return
	}
	h.deliverIPv4(v4)
}

func (h *Host) handleICMPv6(p *packet.IPv6) {
	var ic packet.ICMP
	if ic.DecodeV6(p.Payload, p.Src, p.Dst) != nil {
		return
	}
	switch ic.Type {
	case packet.ICMPv6RouterAdvert:
		if h.raScratch.Decode(ic.Body) != nil {
			return
		}
		h.processRA(p.Src, &h.raScratch)
	case packet.ICMPv6NeighborSolicit:
		var ns ndp.NeighborSolicit
		if ns.Decode(ic.Body) != nil || !h.ownsUnicastV6(ns.Target) {
			return
		}
		if ns.HasSourceLink {
			h.ndCache[p.Src] = netsim.MAC(ns.SourceLinkAddr)
			h.flushNDPending(p.Src)
		}
		na := &ndp.NeighborAdvert{
			Solicited: true, Override: true,
			Target: ns.Target, TargetLinkAddr: h.NIC.MAC(), HasTargetLink: true,
		}
		body := (&packet.ICMP{Type: packet.ICMPv6NeighborAdvert, Body: na.Marshal()}).MarshalV6(ns.Target, p.Src)
		reply := &packet.IPv6{NextHeader: packet.ProtoICMPv6, HopLimit: 255, Src: ns.Target, Dst: p.Src, Payload: body}
		if mac, ok := h.ndCache[p.Src]; ok {
			h.NIC.Transmit(netsim.Frame{Dst: mac, EtherType: netsim.EtherTypeIPv6, Payload: reply.Marshal()})
		}
	case packet.ICMPv6NeighborAdvert:
		var na ndp.NeighborAdvert
		if na.Decode(ic.Body) != nil {
			return
		}
		if na.HasTargetLink {
			h.ndCache[na.Target] = netsim.MAC(na.TargetLinkAddr)
			h.flushNDPending(na.Target)
		}
	case packet.ICMPv6EchoRequest:
		src := p.Dst
		if src.IsMulticast() {
			if len(h.v6Addrs) > 0 {
				src = h.v6Addrs[0].Addr
			} else {
				src = h.linkLocal
			}
		}
		body := (&packet.ICMP{Type: packet.ICMPv6EchoReply, Body: ic.Body}).MarshalV6(src, p.Src)
		reply := &packet.IPv6{NextHeader: packet.ProtoICMPv6, Src: src, Dst: p.Src, Payload: body}
		_ = h.SendIPv6(reply)
	case packet.ICMPv6EchoReply:
		id, seq, data, err := packet.EchoFields(ic.Body)
		if err == nil {
			h.pongReceived(p.Src, id, seq, data)
		}
	case packet.ICMPv6PacketTooBig:
		h.handlePacketTooBig(&ic)
	case packet.ICMPv6DestUnreachable:
		h.handleDestUnreachable(&ic)
	}
}

// ownsUnicastV6 reports ownership of a unicast address (excludes the
// multicast groups ownsV6 also accepts).
func (h *Host) ownsUnicastV6(addr netip.Addr) bool {
	if addr == h.linkLocal {
		return true
	}
	for _, a := range h.v6Addrs {
		if a.Addr == addr {
			return true
		}
	}
	return false
}

// processRA applies a Router Advertisement: default-router list, SLAAC
// address formation, and RDNSS learning.
func (h *Host) processRA(src netip.Addr, ra *ndp.RouterAdvert) {
	now := h.Net.Clock.Now()
	if ra.HasSourceLink {
		h.ndCache[src] = netsim.MAC(ra.SourceLinkAddr)
		h.flushNDPending(src)
	}
	if ra.RouterLifetime > 0 {
		entry := routerEntry{
			addr:       src,
			preference: ra.Preference,
			expires:    now.Add(ra.RouterLifetime),
		}
		if ra.HasSourceLink {
			entry.mac = netsim.MAC(ra.SourceLinkAddr)
		}
		replaced := false
		for i := range h.routers {
			if h.routers[i].addr == src {
				h.routers[i] = entry
				replaced = true
				break
			}
		}
		if !replaced {
			h.routers = append(h.routers, entry)
			h.logf("default router %v (%s preference)", src, ra.Preference)
		}
	}
	h.expireV6Addrs(now)
	for _, pi := range ra.Prefixes {
		if !pi.Autonomous || pi.Prefix.Bits() != 64 || pi.ValidLifetime == 0 {
			continue
		}
		addr, err := ndp.EUI64(pi.Prefix, h.NIC.MAC())
		if err != nil {
			continue
		}
		exists := false
		for i := range h.v6Addrs {
			if h.v6Addrs[i].Addr != addr {
				continue
			}
			exists = true
			// RFC 4862 §5.5.3: refresh the lifetimes from the PIO. A
			// PreferredLifetime of 0 deprecates the address at once —
			// the renumbering signal a rebooted gateway sends for its
			// stale /64 — while a positive one un-deprecates it.
			h.v6Addrs[i].ValidUntil = now.Add(pi.ValidLifetime)
			if pi.PreferredLifetime == 0 {
				if !h.v6Addrs[i].Deprecated {
					h.v6Addrs[i].Deprecated = true
					h.logf("deprecated %v (PIO preferred lifetime 0)", addr)
					h.refreshCLATSource()
				}
			} else {
				if h.v6Addrs[i].Deprecated {
					h.v6Addrs[i].Deprecated = false
					h.logf("re-preferred %v", addr)
				}
				h.v6Addrs[i].PreferredUntil = now.Add(pi.PreferredLifetime)
			}
			break
		}
		if !exists && pi.PreferredLifetime > 0 {
			// Never form an address from an already-deprecated prefix:
			// a freshly joining client must not SLAAC the rebooted
			// gateway's stale /64.
			h.v6Addrs = append(h.v6Addrs, V6Addr{
				Addr: addr, Prefix: pi.Prefix,
				PreferredUntil: now.Add(pi.PreferredLifetime),
				ValidUntil:     now.Add(pi.ValidLifetime),
			})
			h.joinSolicitedNode(addr)
			h.logf("slaac %v (from RA by %v)", addr, src)
			h.refreshCLATSource()
		}
	}
	if ra.PREF64.IsValid() && ra.PREF64Lifetime > 0 && ra.PREF64 != h.nat64Prefix {
		h.nat64Prefix = ra.PREF64
		h.logf("pref64 %v (RFC 8781)", ra.PREF64)
		if h.clat != nil {
			h.clat.Prefix = ra.PREF64
		}
	}
	if h.B.SupportsRDNSS && len(ra.RDNSS) > 0 && ra.RDNSSLifetime > 0 {
		for _, server := range ra.RDNSS {
			known := false
			for _, s := range h.rdnss {
				if s == server {
					known = true
					break
				}
			}
			if !known {
				h.rdnss = append(h.rdnss, server)
				h.logf("rdnss %v", server)
			}
		}
	}
}

// expireV6Addrs ages the SLAAC address list: addresses past their
// preferred deadline become deprecated (losing RFC 6724 rule-3 ties),
// addresses past their valid deadline are removed. Zero deadlines
// (static configuration) never age. Run lazily from processRA (new
// router information ages the list) and from candidateSources (use
// time), so lifetimes lapse on schedule even when advertisements stop.
func (h *Host) expireV6Addrs(now time.Time) {
	kept := h.v6Addrs[:0]
	for _, a := range h.v6Addrs {
		if !a.ValidUntil.IsZero() && !a.ValidUntil.After(now) {
			h.leaveSolicitedNode(a.Addr)
			h.logf("addr %v valid lifetime expired", a.Addr)
			continue
		}
		if !a.Deprecated && !a.PreferredUntil.IsZero() && !a.PreferredUntil.After(now) {
			a.Deprecated = true
			h.logf("deprecated %v (preferred lifetime expired)", a.Addr)
		}
		kept = append(kept, a)
	}
	if len(kept) < len(h.v6Addrs) {
		h.v6Addrs = kept
		h.refreshCLATSource()
	} else {
		h.v6Addrs = kept
	}
}

// ExpireRouters drops default routers whose lifetimes have lapsed.
func (h *Host) ExpireRouters() {
	now := h.Net.Clock.Now()
	kept := h.routers[:0]
	for _, r := range h.routers {
		if r.expires.After(now) {
			kept = append(kept, r)
		}
	}
	h.routers = kept
}
