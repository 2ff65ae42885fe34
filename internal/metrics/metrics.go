// Package metrics implements the SSID usage accounting that motivates
// the paper's §III.A goal: an *accurate* IPv6-only client count. A
// monitor attached to the access switch classifies every client MAC by
// the data traffic it actually sends — exposing the SC23 problem where a
// dual-stack laptop running an IPv4-literal application (Echolink,
// Fig. 2) was counted toward the IPv6 SSID's usage statistics.
package metrics

import (
	"repro/internal/netsim"
	"repro/internal/packet"
)

// Class is the traffic-derived classification of a client.
type Class string

// Client classes.
const (
	ClassNone   Class = "no-data"
	ClassV6Only Class = "ipv6-only"
	ClassV4Only Class = "ipv4-only"
	ClassDual   Class = "dual"
)

// Usage accumulates one client's observed data traffic.
type Usage struct {
	V4Data uint64 // IPv4 frames excluding DHCP and ARP
	V6Data uint64 // IPv6 frames excluding ND
}

// Classify derives the class from usage.
func (u Usage) Classify() Class {
	switch {
	case u.V4Data == 0 && u.V6Data == 0:
		return ClassNone
	case u.V4Data == 0:
		return ClassV6Only
	case u.V6Data == 0:
		return ClassV4Only
	default:
		return ClassDual
	}
}

// SSIDMonitor watches switch traffic and accounts per-MAC usage.
// Infrastructure MACs (the gateway, the Pi servers) can be excluded so
// only client devices are counted.
type SSIDMonitor struct {
	perMAC  map[netsim.MAC]*Usage
	exclude map[netsim.MAC]bool
}

// NewSSIDMonitor returns an empty monitor.
func NewSSIDMonitor() *SSIDMonitor {
	return &SSIDMonitor{
		perMAC:  make(map[netsim.MAC]*Usage),
		exclude: make(map[netsim.MAC]bool),
	}
}

// Exclude removes an infrastructure MAC from accounting.
func (m *SSIDMonitor) Exclude(mac netsim.MAC) { m.exclude[mac] = true }

// Filter returns a pass-through switch filter that performs accounting.
func (m *SSIDMonitor) Filter() netsim.FrameFilter {
	return func(_ int, f netsim.Frame) bool {
		m.observe(f)
		return true
	}
}

func (m *SSIDMonitor) observe(f netsim.Frame) {
	if m.exclude[f.Src] {
		return
	}
	switch f.EtherType {
	case netsim.EtherTypeIPv4:
		var p packet.IPv4
		if p.Decode(f.Payload) != nil || isDHCP(&p) {
			return
		}
		m.usage(f.Src).V4Data++
	case netsim.EtherTypeIPv6:
		var p packet.IPv6
		if p.Decode(f.Payload) != nil || isND(&p) {
			return
		}
		m.usage(f.Src).V6Data++
	}
}

func (m *SSIDMonitor) usage(mac netsim.MAC) *Usage {
	u, ok := m.perMAC[mac]
	if !ok {
		u = &Usage{}
		m.perMAC[mac] = u
	}
	return u
}

// isDHCP reports DHCPv4 control traffic (not client data).
func isDHCP(p *packet.IPv4) bool {
	if p.Protocol != packet.ProtoUDP || len(p.Payload) < packet.UDPHeaderLen {
		return false
	}
	sp := uint16(p.Payload[0])<<8 | uint16(p.Payload[1])
	dp := uint16(p.Payload[2])<<8 | uint16(p.Payload[3])
	return sp == 67 || sp == 68 || dp == 67 || dp == 68
}

// isND reports IPv6 neighbor-discovery control traffic.
func isND(p *packet.IPv6) bool {
	if p.NextHeader != packet.ProtoICMPv6 || len(p.Payload) == 0 {
		return false
	}
	t := p.Payload[0]
	return t >= packet.ICMPv6RouterSolicit && t <= packet.ICMPv6NeighborAdvert
}

// ClassOf returns the classification for one client MAC.
func (m *SSIDMonitor) ClassOf(mac netsim.MAC) Class {
	if u, ok := m.perMAC[mac]; ok {
		return u.Classify()
	}
	return ClassNone
}

// MergeCounts adds src's per-class tallies into dst and returns dst,
// allocating it when nil. The merge is associative and commutative, so
// per-shard scenario reports can be folded in any order.
func MergeCounts(dst, src map[Class]int) map[Class]int {
	if dst == nil {
		dst = make(map[Class]int, len(src))
	}
	for c, n := range src {
		dst[c] += n
	}
	return dst
}
