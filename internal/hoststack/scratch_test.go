package hoststack

import (
	"net/netip"
	"testing"
	"time"

	"repro/internal/clat"
	"repro/internal/dns64"
	"repro/internal/netsim"
	"repro/internal/packet"
)

// Every data-path send encodes into the host's reused scratch, which
// NIC.Transmit copies out of before the next send. These tests pin the
// sends that keep a packet longer than that and must copy it first.

// pendingThenResolve has sender queue two datagrams to recv's port 9
// behind neighbor resolution, the second shorter so its encoding
// reuses the scratch the first was encoded into, then runs the network
// and returns what recv received.
func pendingThenResolve(t *testing.T, sender *Host, to netip.Addr, recv *Host) []string {
	t.Helper()
	var got []string
	recv.BindUDP(9, func(_ netip.Addr, _ uint16, _ netip.Addr, payload []byte) {
		got = append(got, string(payload))
	})
	for _, msg := range []string{"first-queued-datagram", "second"} {
		if _, err := sender.SendUDP(to, 9, []byte(msg), nil); err != nil {
			t.Fatalf("send %q: %v", msg, err)
		}
	}
	sender.Net.RunFor(time.Second)
	return got
}

// TestNDPendingPacketsSurviveScratchReuse: packets queued behind
// neighbor discovery go out byte-identical after later sends reused the
// scratch.
func TestNDPendingPacketsSurviveScratchReuse(t *testing.T) {
	net := newTestNet()
	a := New(net, "a", serverBehavior())
	b := New(net, "b", serverBehavior())
	lanWith(net, a, b)
	a.AddIPv6Static(netip.MustParseAddr("fd00:976a::1"), ulaPrefix)
	b.AddIPv6Static(netip.MustParseAddr("fd00:976a::2"), ulaPrefix)
	got := pendingThenResolve(t, a, netip.MustParseAddr("fd00:976a::2"), b)
	if len(got) != 2 || got[0] != "first-queued-datagram" || got[1] != "second" {
		t.Errorf("received %q, want [first-queued-datagram second]", got)
	}
}

// TestARPPendingPacketsSurviveScratchReuse is the ARP twin of the ND
// test.
func TestARPPendingPacketsSurviveScratchReuse(t *testing.T) {
	net := newTestNet()
	a := New(net, "a", Behavior{Name: "a", IPv4Enabled: true})
	b := New(net, "b", Behavior{Name: "b", IPv4Enabled: true})
	lanWith(net, a, b)
	a.SetIPv4Static(netip.MustParseAddr("192.168.12.1"), lanPrefix, netip.Addr{})
	b.SetIPv4Static(netip.MustParseAddr("192.168.12.2"), lanPrefix, netip.Addr{})
	got := pendingThenResolve(t, a, netip.MustParseAddr("192.168.12.2"), b)
	if len(got) != 2 || got[0] != "first-queued-datagram" || got[1] != "second" {
		t.Errorf("received %q, want [first-queued-datagram second]", got)
	}
}

// TestLoopbackPayloadSurvivesNextSend: a host sending to a UDP service
// it has bound on its own address hands the handler a payload that
// stays intact after the host sends again, for both families.
func TestLoopbackPayloadSurvivesNextSend(t *testing.T) {
	net := newTestNet()
	h := New(net, "h", Behavior{Name: "h", IPv4Enabled: true, IPv6Enabled: true, SupportsRDNSS: true})
	peer := New(net, "peer", Behavior{Name: "peer", IPv4Enabled: true, IPv6Enabled: true, SupportsRDNSS: true})
	lanWith(net, h, peer)
	h.SetIPv4Static(netip.MustParseAddr("192.168.12.10"), lanPrefix, netip.Addr{})
	h.AddIPv6Static(netip.MustParseAddr("fd00:976a::1"), ulaPrefix)
	peer.SetIPv4Static(netip.MustParseAddr("192.168.12.11"), lanPrefix, netip.Addr{})
	peer.AddIPv6Static(netip.MustParseAddr("fd00:976a::2"), ulaPrefix)

	var kept []byte
	h.BindUDP(7, func(_ netip.Addr, _ uint16, _ netip.Addr, payload []byte) { kept = payload })
	for _, c := range []struct{ self, other netip.Addr }{
		{netip.MustParseAddr("192.168.12.10"), netip.MustParseAddr("192.168.12.11")},
		{netip.MustParseAddr("fd00:976a::1"), netip.MustParseAddr("fd00:976a::2")},
	} {
		kept = nil
		if _, err := h.SendUDP(c.self, 7, []byte("to myself"), nil); err != nil {
			t.Fatalf("loopback send to %v: %v", c.self, err)
		}
		if _, err := h.SendUDP(c.other, 9, []byte("XXXXXXXXX"), nil); err != nil {
			t.Fatalf("send to %v: %v", c.other, err)
		}
		if string(kept) != "to myself" {
			t.Errorf("%v: loopback payload reads %q after the next send, want %q", c.self, kept, "to myself")
		}
	}
}

// TestCLATDatagramSurvivesNextTranslation: a UDP handler that copies
// what it keeps of each datagram delivered through the CLAT (as Query
// does) holds every datagram intact, though the CLAT translates the
// next inbound datagram into the same scratch.
func TestCLATDatagramSurvivesNextTranslation(t *testing.T) {
	net := newTestNet()
	h := New(net, "h", serverBehavior())
	peer := New(net, "peer", serverBehavior())
	lanWith(net, h, peer)
	self := netip.MustParseAddr("fd00:976a::1")
	h.AddIPv6Static(self, ulaPrefix)
	peer.AddIPv6Static(netip.MustParseAddr("fd00:976a::2"), ulaPrefix)
	h.clat = clat.New(self)
	h.trackCLATPort(packet.ProtoUDP, 5000)

	var got []string
	h.BindUDP(5000, func(_ netip.Addr, _ uint16, _ netip.Addr, payload []byte) { got = append(got, string(payload)) })
	remote, err := dns64.Synthesize(dns64.WellKnownPrefix, netip.MustParseAddr("198.51.100.1"))
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range []string{"first", "XXXXX"} {
		if err := peer.ReplyUDP(remote, self, 53, 5000, []byte(msg)); err != nil {
			t.Fatalf("send %q: %v", msg, err)
		}
	}
	net.RunFor(time.Second)
	if len(got) != 2 || got[0] != "first" || got[1] != "XXXXX" {
		t.Errorf("handler holds %q, want [first XXXXX]", got)
	}
}

// TestCLATDeliveryAllocatesNothing pins a datagram the CLAT delivers to
// a UDP handler at 0 allocs on a warmed host: the handler reads it from
// the CLAT's scratch, not from a copy.
func TestCLATDeliveryAllocatesNothing(t *testing.T) {
	h := New(newTestNet(), "h", serverBehavior())
	self := netip.MustParseAddr("fd00:976a::1")
	h.AddIPv6Static(self, ulaPrefix)
	h.clat = clat.New(self)
	h.trackCLATPort(packet.ProtoUDP, 5000)
	delivered := 0
	h.BindUDP(5000, func(_ netip.Addr, _ uint16, _ netip.Addr, payload []byte) {
		if string(payload) == "answer" {
			delivered++
		}
	})
	remote, err := dns64.Synthesize(dns64.WellKnownPrefix, netip.MustParseAddr("198.51.100.1"))
	if err != nil {
		t.Fatal(err)
	}
	u := packet.UDP{SrcPort: 53, DstPort: 5000, Payload: []byte("answer")}
	p := packet.IPv6{NextHeader: packet.ProtoUDP, HopLimit: 64, Src: remote, Dst: self, Payload: u.Marshal(remote, self)}
	f := netsim.Frame{Src: netsim.MAC{0x02, 0, 0, 0, 0, 0x09}, Dst: h.MAC(), EtherType: netsim.EtherTypeIPv6, Payload: p.Marshal()}

	h.HandleFrame(h.NIC, f) // warm the CLAT's scratch
	if allocs := testing.AllocsPerRun(100, func() { h.HandleFrame(h.NIC, f) }); allocs != 0 {
		t.Errorf("a CLAT-delivered datagram allocates %.1f times, want 0", allocs)
	}
	if delivered != 102 {
		t.Errorf("handler saw %d intact datagrams, want 102", delivered)
	}
}

// TestSourceSelectionAllocatesNothing pins RFC 6724 source selection,
// run by every SendUDP, DialTCP and ping, at 0 allocs on a warmed host.
func TestSourceSelectionAllocatesNothing(t *testing.T) {
	h := New(newTestNet(), "h", Behavior{Name: "h", IPv4Enabled: true, IPv6Enabled: true})
	h.SetIPv4Static(netip.MustParseAddr("192.168.12.10"), lanPrefix, netip.Addr{})
	h.AddIPv6Static(netip.MustParseAddr("fd00:976a::1"), ulaPrefix)
	h.AddIPv6Static(netip.MustParseAddr("2607:fb90:9bda:a425::50"), netip.MustParsePrefix("2607:fb90:9bda:a425::/64"))
	for _, dst := range []netip.Addr{
		netip.MustParseAddr("2001:db8::1"),
		netip.MustParseAddr("fd00:976a::9"),
		netip.MustParseAddr("23.153.8.71"),
	} {
		want, ok := h.srcFor(dst)
		if !ok {
			t.Fatalf("no source for %v", dst)
		}
		var got netip.Addr
		if allocs := testing.AllocsPerRun(100, func() { got, _ = h.srcFor(dst) }); allocs != 0 {
			t.Errorf("srcFor(%v) allocates %.1f times, want 0", dst, allocs)
		}
		if got != want {
			t.Errorf("srcFor(%v) = %v on a warmed host, want %v", dst, got, want)
		}
	}
}
