package trace

import (
	"net/netip"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dhcp4"
	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/packet"
)

var (
	v4a = netip.MustParseAddr("192.168.12.10")
	v4b = netip.MustParseAddr("23.153.8.71")
	v6a = netip.MustParseAddr("fd00:976a::1")
	v6b = netip.MustParseAddr("fd00:976a::9")
)

func TestSummarizeARP(t *testing.T) {
	req := &packet.ARP{Op: packet.ARPRequest, SenderIP: v4a, TargetIP: v4b}
	s := Summarize(netsim.Frame{EtherType: netsim.EtherTypeARP, Payload: req.Marshal()})
	if !strings.Contains(s, "who-has 23.153.8.71") {
		t.Errorf("s = %q", s)
	}
	rep := &packet.ARP{Op: packet.ARPReply, SenderIP: v4b, SenderMAC: [6]byte{2, 0, 0, 0, 0, 1}}
	s = Summarize(netsim.Frame{EtherType: netsim.EtherTypeARP, Payload: rep.Marshal()})
	if !strings.Contains(s, "is-at 02:00:00:00:00:01") {
		t.Errorf("s = %q", s)
	}
}

func TestSummarizeDNSQuery(t *testing.T) {
	q := dnswire.NewQuery(1, "sc24.supercomputing.org", dnswire.TypeAAAA)
	wire, _ := q.Marshal()
	u := &packet.UDP{SrcPort: 49152, DstPort: 53, Payload: wire}
	p := &packet.IPv6{NextHeader: packet.ProtoUDP, HopLimit: 64, Src: v6a, Dst: v6b, Payload: u.Marshal(v6a, v6b)}
	s := Summarize(netsim.Frame{EtherType: netsim.EtherTypeIPv6, Payload: p.Marshal()})
	for _, want := range []string{"IPv6", "UDP 49152 > 53", "DNS query", "sc24.supercomputing.org. AAAA"} {
		if !strings.Contains(s, want) {
			t.Errorf("s = %q missing %q", s, want)
		}
	}
}

func TestSummarizeDNSResponseWithAnswer(t *testing.T) {
	q := dnswire.NewQuery(1, "ip6.me", dnswire.TypeA)
	r := dnswire.ReplyTo(q)
	r.Answers = []dnswire.RR{{Name: "ip6.me", Type: dnswire.TypeA, TTL: 60, Addr: v4b}}
	wire, _ := r.Marshal()
	u := &packet.UDP{SrcPort: 53, DstPort: 49152, Payload: wire}
	p := &packet.IPv4{Protocol: packet.ProtoUDP, TTL: 64, Src: v4b, Dst: v4a, Payload: u.Marshal(v4b, v4a)}
	s := Summarize(netsim.Frame{EtherType: netsim.EtherTypeIPv4, Payload: p.Marshal()})
	if !strings.Contains(s, "DNS response NOERROR A=23.153.8.71") {
		t.Errorf("s = %q", s)
	}
}

func TestSummarizeDHCP(t *testing.T) {
	m := dhcp4.NewMessage(dhcp4.OpReply, 7, [6]byte{2, 0, 0, 0, 0, 9})
	m.SetType(dhcp4.Offer)
	m.SetIPv6OnlyPreferred(1800)
	u := &packet.UDP{SrcPort: 67, DstPort: 68, Payload: m.Marshal()}
	bcast := netip.MustParseAddr("255.255.255.255")
	p := &packet.IPv4{Protocol: packet.ProtoUDP, TTL: 64, Src: v4a, Dst: bcast, Payload: u.Marshal(v4a, bcast)}
	s := Summarize(netsim.Frame{EtherType: netsim.EtherTypeIPv4, Payload: p.Marshal()})
	if !strings.Contains(s, "DHCP OFFER") || !strings.Contains(s, "option108=1800s") {
		t.Errorf("s = %q", s)
	}
}

func TestSummarizeTCP(t *testing.T) {
	tc := &packet.TCP{SrcPort: 49152, DstPort: 80, Seq: 1, Flags: packet.TCPSyn, Payload: nil}
	p := &packet.IPv6{NextHeader: packet.ProtoTCP, HopLimit: 64, Src: v6a, Dst: v6b, Payload: tc.Marshal(v6a, v6b)}
	s := Summarize(netsim.Frame{EtherType: netsim.EtherTypeIPv6, Payload: p.Marshal()})
	if !strings.Contains(s, "TCP 49152 > 80 [S] len 0") {
		t.Errorf("s = %q", s)
	}
}

func TestSummarizeICMPv6Types(t *testing.T) {
	for typ, want := range map[uint8]string{
		packet.ICMPv6RouterAdvert: "router advertisement",
		packet.ICMPv6PacketTooBig: "packet too big",
		packet.ICMPv6EchoRequest:  "echo request",
	} {
		body := (&packet.ICMP{Type: typ, Body: make([]byte, 24)}).MarshalV6(v6a, v6b)
		p := &packet.IPv6{NextHeader: packet.ProtoICMPv6, HopLimit: 255, Src: v6a, Dst: v6b, Payload: body}
		s := Summarize(netsim.Frame{EtherType: netsim.EtherTypeIPv6, Payload: p.Marshal()})
		if !strings.Contains(s, want) {
			t.Errorf("type %d: s = %q", typ, s)
		}
	}
}

func TestSummarizeNeverPanics(t *testing.T) {
	prop := func(ethertype uint16, data []byte) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				ok = false
			}
		}()
		_ = Summarize(netsim.Frame{EtherType: ethertype, Payload: data})
		// Also the three known ethertypes over arbitrary payloads.
		for _, et := range []uint16{netsim.EtherTypeARP, netsim.EtherTypeIPv4, netsim.EtherTypeIPv6} {
			_ = Summarize(netsim.Frame{EtherType: et, Payload: data})
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestTapRecordsAndBounds(t *testing.T) {
	net := netsim.NewNetwork()
	sw := netsim.NewSwitch(net)
	a := net.NewNIC(nil)
	b := net.NewNIC(netsim.FrameHandlerFunc(func(*netsim.NIC, netsim.Frame) {}))
	sw.AttachPort(a)
	sw.AttachPort(b)
	tap := &Tap{Max: 2}
	sw.AddFilter(tap.Filter())

	for i := 0; i < 5; i++ {
		req := &packet.ARP{Op: packet.ARPRequest, SenderIP: v4a, TargetIP: v4b}
		a.Transmit(netsim.Frame{Dst: netsim.Broadcast, EtherType: netsim.EtherTypeARP, Payload: req.Marshal()})
	}
	net.Run(0)
	if len(tap.Lines) != 2 {
		t.Errorf("tap lines = %d, want capped 2", len(tap.Lines))
	}
	if !strings.Contains(tap.Lines[0], "port0") || !strings.Contains(tap.Lines[0], "who-has") {
		t.Errorf("line = %q", tap.Lines[0])
	}
}
