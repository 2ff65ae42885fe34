// Package metrics implements the SSID usage accounting that motivates
// the paper's §III.A goal: an *accurate* IPv6-only client count. A
// monitor attached to the access switch classifies every client MAC by
// the data traffic it actually sends — exposing the SC23 problem where a
// dual-stack laptop running an IPv4-literal application (Echolink,
// Fig. 2) was counted toward the IPv6 SSID's usage statistics.
package metrics

import (
	"bytes"
	"net/netip"
	"sort"

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

	// sortedMACs caches the sorted key list for MACs(); it is
	// invalidated whenever a new client MAC is first observed, so the
	// report path does not re-sort and re-allocate per call while the
	// population is unchanged.
	sortedMACs []netsim.MAC
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
		m.sortedMACs = nil // new key: invalidate the report-path cache
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

// UsageOf returns a copy of a client's usage.
func (m *SSIDMonitor) UsageOf(mac netsim.MAC) Usage {
	if u, ok := m.perMAC[mac]; ok {
		return *u
	}
	return Usage{}
}

// Counts aggregates the population by class.
func (m *SSIDMonitor) Counts() map[Class]int {
	out := make(map[Class]int)
	for _, u := range m.perMAC {
		out[u.Classify()]++
	}
	return out
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

// ReportedIPv6Only is the naive SC23-style statistic: every client that
// sent any IPv6 data counts as an "IPv6 client" — even when it also ran
// IPv4-literal applications.
func (m *SSIDMonitor) ReportedIPv6Only() int {
	n := 0
	for _, u := range m.perMAC {
		if u.V6Data > 0 {
			n++
		}
	}
	return n
}

// TrueIPv6Only counts clients whose data traffic was exclusively IPv6.
func (m *SSIDMonitor) TrueIPv6Only() int {
	n := 0
	for _, u := range m.perMAC {
		if u.Classify() == ClassV6Only {
			n++
		}
	}
	return n
}

// MACs returns the observed client MACs in stable order. The slice is
// cached between calls and only rebuilt after a new MAC appears; callers
// must treat it as read-only.
func (m *SSIDMonitor) MACs() []netsim.MAC {
	if m.sortedMACs == nil && len(m.perMAC) > 0 {
		out := make([]netsim.MAC, 0, len(m.perMAC))
		for mac := range m.perMAC {
			out = append(out, mac)
		}
		// Byte order and colon-hex string order agree, so compare raw
		// bytes instead of formatting two strings per comparison.
		sort.Slice(out, func(i, j int) bool {
			return bytes.Compare(out[i][:], out[j][:]) < 0
		})
		m.sortedMACs = out
	}
	return m.sortedMACs
}

// AddrFamily is a tiny helper for reports: "IPv4", "IPv6" or "none".
func AddrFamily(a netip.Addr) string {
	switch {
	case a.Is4():
		return "IPv4"
	case a.Is6():
		return "IPv6"
	default:
		return "none"
	}
}
