// Package mgmtswitch models the testbed's managed switch and its two
// interventions (paper §IV.A):
//
//  1. It injects its own low-priority Router Advertisements for the
//     fd00:976a::/64 ULA prefix so the gateway's dead RDNSS addresses
//     become reachable on-link (the Raspberry Pi DNS64 server lives
//     there).
//  2. DHCPv4 snooping blocks the 5G gateway's non-configurable DHCPv4
//     server so the Raspberry Pi server (with option 108) wins every
//     DORA exchange.
package mgmtswitch

import (
	"net/netip"
	"time"

	"repro/internal/dhcp4"
	"repro/internal/ndp"
	"repro/internal/netsim"
	"repro/internal/packet"
)

// Config parameterizes the managed switch.
type Config struct {
	// ULAPrefix is advertised with low router preference (and SLAAC).
	ULAPrefix netip.Prefix
	// RAInterval is the beacon period.
	RAInterval time.Duration
	// AdvertiseULA enables intervention 1.
	AdvertiseULA bool
	// SnoopDHCP enables intervention 2 once a trusted port is set.
	SnoopDHCP bool
	// ScopedRS answers Router Solicitations out of the soliciting port
	// only, instead of beaconing the whole broadcast domain. Fabric
	// worlds set it: with trunk scoping on, the solicited RA travels
	// down exactly one access trunk and floods only that domain.
	ScopedRS bool
}

// Switch wraps a learning switch with the managed-switch features.
type Switch struct {
	*netsim.Switch
	cfg Config
	net *netsim.Network

	mac       netsim.MAC
	linkLocal netip.Addr

	blockedPorts map[int]bool
	raTimer      *netsim.Timer
	// raNextAt is the virtual deadline of the pending ULA beacon; world
	// reuse re-arms the timer at exactly this instant after a rewind.
	raNextAt time.Time

	// SnoopedDrops counts DHCPv4 server frames blocked by snooping.
	SnoopedDrops uint64
	RAsSent      uint64
}

// New creates a managed switch on the fabric.
func New(net *netsim.Network, name string, cfg Config) *Switch {
	if cfg.RAInterval == 0 {
		cfg.RAInterval = 10 * time.Second
	}
	s := &Switch{
		Switch:       netsim.NewSwitch(net, name),
		cfg:          cfg,
		net:          net,
		mac:          net.AllocMAC(),
		blockedPorts: make(map[int]bool),
	}
	s.linkLocal = ndp.LinkLocal(s.mac)
	if cfg.SnoopDHCP {
		s.AddFilter(s.snoopFilter)
	}
	if cfg.AdvertiseULA {
		s.AddFilter(s.rsWatcher)
	}
	return s
}

// rsWatcher never blocks traffic; it answers Router Solicitations with
// the switch's ULA RA so client bring-up does not wait a beacon period.
func (s *Switch) rsWatcher(ingress int, f netsim.Frame) bool {
	if f.EtherType != netsim.EtherTypeIPv6 {
		return true
	}
	var p packet.IPv6
	if p.Decode(f.Payload) == nil && p.NextHeader == packet.ProtoICMPv6 && len(p.Payload) > 0 &&
		p.Payload[0] == packet.ICMPv6RouterSolicit {
		// Reply after the solicitation itself has been forwarded.
		if s.cfg.ScopedRS {
			// Fabric mode: answer out of the soliciting port only. With
			// trunk scoping the RA then floods exactly one access domain.
			port := ingress
			s.net.Clock.AfterFunc(0, func() { s.sendRAPort(port) })
		} else {
			s.net.Clock.AfterFunc(0, s.sendRA)
		}
	}
	return true
}

// BlockDHCPFrom marks a port as an untrusted DHCP source (the gateway's
// port); server-to-client DHCP frames ingressing there are dropped.
func (s *Switch) BlockDHCPFrom(port int) { s.blockedPorts[port] = true }

// EnableDHCPDirectedBroadcast turns on the snooping feature fabric
// worlds need once ScopeTrunks is set: DHCPv4 server replies addressed
// to the link broadcast (clients with no address yet ask for broadcast
// replies, RFC 2131 §4.1) would never cross a scoped trunk. Real
// DHCP-snooping switches solve this by directing such replies at the
// port where the client's hardware address was learned; this filter
// does the same, retransmitting the reply as link-layer unicast to the
// chaddr out of its learned (trunk) port while the broadcast copy still
// floods the local — infrastructure — ports.
func (s *Switch) EnableDHCPDirectedBroadcast() {
	s.AddFilter(s.directedBroadcastFilter)
}

func (s *Switch) directedBroadcastFilter(_ int, f netsim.Frame) bool {
	if f.Dst != netsim.Broadcast || f.EtherType != netsim.EtherTypeIPv4 {
		return true
	}
	var p packet.IPv4
	if p.Decode(f.Payload) != nil || p.Protocol != packet.ProtoUDP || len(p.Payload) < packet.UDPHeaderLen {
		return true
	}
	if srcPort := uint16(p.Payload[0])<<8 | uint16(p.Payload[1]); srcPort != dhcp4.ServerPort {
		return true
	}
	msg, err := dhcp4.Parse(p.Payload[packet.UDPHeaderLen:])
	if err != nil {
		return true
	}
	mac := netsim.MAC(msg.CHAddr)
	port, ok := s.PortOf(mac)
	if !ok || !s.IsTrunk(port) {
		return true // client is local (or unknown): the flood reaches it
	}
	// Deliver after the broadcast itself has been processed, mirroring
	// rsWatcher's ordering.
	directed := f
	directed.Dst = mac
	s.net.Clock.AfterFunc(0, func() { s.PortNIC(port).Transmit(directed) })
	return true
}

// snoopFilter drops DHCPv4 server traffic (UDP source port 67) arriving
// on untrusted ports.
func (s *Switch) snoopFilter(port int, f netsim.Frame) bool {
	if !s.blockedPorts[port] || f.EtherType != netsim.EtherTypeIPv4 {
		return true
	}
	var p packet.IPv4
	if p.Decode(f.Payload) != nil || p.Protocol != packet.ProtoUDP || len(p.Payload) < packet.UDPHeaderLen {
		return true
	}
	srcPort := uint16(p.Payload[0])<<8 | uint16(p.Payload[1])
	if srcPort == dhcp4.ServerPort {
		s.SnoopedDrops++
		return false
	}
	return true
}

// Start begins the periodic ULA RA beacon (when enabled).
func (s *Switch) Start() {
	if !s.cfg.AdvertiseULA {
		return
	}
	s.sendRA()
	s.armRATimer()
}

func (s *Switch) armRATimer() {
	s.raNextAt = s.net.Clock.Now().Add(s.cfg.RAInterval)
	s.raTimer = s.net.Clock.AfterFunc(s.cfg.RAInterval, func() {
		s.sendRA()
		s.armRATimer()
	})
}

// raFrame builds the low-priority ULA Router Advertisement.
func (s *Switch) raFrame() netsim.Frame {
	ra := &ndp.RouterAdvert{
		CurHopLimit:    64,
		RouterLifetime: 30 * time.Minute,
		Preference:     ndp.PrefLow, // never beat the gateway for default route
		SourceLinkAddr: s.mac,
		HasSourceLink:  true,
		Prefixes: []ndp.PrefixInfo{{
			Prefix: s.cfg.ULAPrefix,
			OnLink: true, Autonomous: true,
			ValidLifetime: 2 * time.Hour, PreferredLifetime: time.Hour,
		}},
	}
	body := (&packet.ICMP{Type: packet.ICMPv6RouterAdvert, Body: ra.Marshal()}).MarshalV6(s.linkLocal, ndp.AllNodes)
	p := &packet.IPv6{NextHeader: packet.ProtoICMPv6, HopLimit: 255, Src: s.linkLocal, Dst: ndp.AllNodes, Payload: body}
	return netsim.Frame{
		Src: s.mac, Dst: netsim.MAC(packet.MulticastMAC(ndp.AllNodes)),
		EtherType: netsim.EtherTypeIPv6, Payload: p.Marshal(),
	}
}

// sendRA floods the low-priority ULA RA out of every port.
func (s *Switch) sendRA() {
	s.InjectAll(s.raFrame())
	s.RAsSent++
}

// sendRAPort transmits the ULA RA out of a single port (scoped RS
// response). The receiving side — an access-switch trunk in fabric
// worlds — floods it within its own broadcast domain only.
func (s *Switch) sendRAPort(port int) {
	if port < 0 || port >= s.NumPorts() {
		return
	}
	s.PortNIC(port).Transmit(s.raFrame())
	s.RAsSent++
}
