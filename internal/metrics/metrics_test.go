package metrics

import (
	"net/netip"
	"testing"

	"repro/internal/netsim"
	"repro/internal/packet"
)

func frameV4(src netsim.MAC, sport, dport uint16) netsim.Frame {
	s := netip.MustParseAddr("192.168.12.10")
	d := netip.MustParseAddr("23.153.8.71")
	u := &packet.UDP{SrcPort: sport, DstPort: dport, Payload: []byte("x")}
	p := &packet.IPv4{Protocol: packet.ProtoUDP, TTL: 64, Src: s, Dst: d, Payload: u.Marshal(s, d)}
	return netsim.Frame{Src: src, EtherType: netsim.EtherTypeIPv4, Payload: p.Marshal()}
}

func frameV6(src netsim.MAC, icmpType uint8) netsim.Frame {
	s := netip.MustParseAddr("fd00:976a::1")
	d := netip.MustParseAddr("fd00:976a::9")
	var payload []byte
	var nh uint8
	if icmpType != 0 {
		nh = packet.ProtoICMPv6
		payload = (&packet.ICMP{Type: icmpType, Body: make([]byte, 20)}).MarshalV6(s, d)
	} else {
		nh = packet.ProtoUDP
		payload = (&packet.UDP{SrcPort: 5000, DstPort: 53, Payload: []byte("q")}).Marshal(s, d)
	}
	p := &packet.IPv6{NextHeader: nh, HopLimit: 64, Src: s, Dst: d, Payload: payload}
	return netsim.Frame{Src: src, EtherType: netsim.EtherTypeIPv6, Payload: p.Marshal()}
}

func TestClassification(t *testing.T) {
	m := NewSSIDMonitor()
	macA := netsim.MAC{2, 0, 0, 0, 0, 1} // v4 only
	macB := netsim.MAC{2, 0, 0, 0, 0, 2} // v6 only
	macC := netsim.MAC{2, 0, 0, 0, 0, 3} // dual
	macD := netsim.MAC{2, 0, 0, 0, 0, 4} // no data

	f := m.Filter()
	f(0, frameV4(macA, 5000, 80))
	f(0, frameV6(macB, 0))
	f(0, frameV4(macC, 5001, 80))
	f(0, frameV6(macC, 0))

	if got := m.ClassOf(macA); got != ClassV4Only {
		t.Errorf("A = %s", got)
	}
	if got := m.ClassOf(macB); got != ClassV6Only {
		t.Errorf("B = %s", got)
	}
	if got := m.ClassOf(macC); got != ClassDual {
		t.Errorf("C = %s", got)
	}
	if got := m.ClassOf(macD); got != ClassNone {
		t.Errorf("D = %s", got)
	}
}

func TestDHCPAndNDExcluded(t *testing.T) {
	m := NewSSIDMonitor()
	mac := netsim.MAC{2, 0, 0, 0, 0, 9}
	f := m.Filter()
	f(0, frameV4(mac, 68, 67))                       // DHCP
	f(0, frameV6(mac, packet.ICMPv6RouterSolicit))   // RS
	f(0, frameV6(mac, packet.ICMPv6NeighborSolicit)) // NS
	if got := m.ClassOf(mac); got != ClassNone {
		t.Errorf("control traffic classified as data: %s (usage %+v)", got, m.perMAC[mac])
	}
	// ICMPv6 echo IS data.
	f(0, frameV6(mac, packet.ICMPv6EchoRequest))
	if got := m.ClassOf(mac); got != ClassV6Only {
		t.Errorf("echo not counted: %s", got)
	}
}

func TestExcludeInfrastructure(t *testing.T) {
	m := NewSSIDMonitor()
	infra := netsim.MAC{2, 0, 0, 0, 0, 0xaa}
	m.Exclude(infra)
	m.Filter()(0, frameV4(infra, 5000, 80))
	if got := m.ClassOf(infra); got != ClassNone {
		t.Errorf("excluded MAC counted as %s", got)
	}
}

func TestReportedVsTrue(t *testing.T) {
	m := NewSSIDMonitor()
	pure := netsim.MAC{2, 0, 0, 0, 0, 1}
	mixed := netsim.MAC{2, 0, 0, 0, 0, 2}
	f := m.Filter()
	f(0, frameV6(pure, 0))
	f(0, frameV6(mixed, 0))
	f(0, frameV4(mixed, 5198, 5198)) // the Echolink pollution

	// Both hosts sent IPv6 data, so a naive SC23-style count reports two
	// IPv6 clients; the traffic classes count only the pure one.
	if got := m.ClassOf(pure); got != ClassV6Only {
		t.Errorf("pure host = %s, want %s", got, ClassV6Only)
	}
	if got := m.ClassOf(mixed); got != ClassDual {
		t.Errorf("Echolink host = %s, want %s (it must not count as IPv6-only)", got, ClassDual)
	}
}
