package nat64

import (
	"bytes"
	"net/netip"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/dns64"
	"repro/internal/packet"
)

var (
	clientV6 = netip.MustParseAddr("2607:fb90:9bda:a425::50")
	serverV4 = netip.MustParseAddr("190.92.158.4")
	publicV4 = netip.MustParseAddr("203.0.113.1")
)

type clock struct{ t time.Time }

func newClock() *clock          { return &clock{t: time.Date(2024, 11, 17, 9, 0, 0, 0, time.UTC)} }
func (c *clock) now() time.Time { return c.t }

func newT(t *testing.T, clk *clock) *Translator {
	t.Helper()
	tr, err := New(Config{Prefix: dns64.WellKnownPrefix, PublicV4: publicV4}, clk.now)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func synth(t *testing.T, v4 netip.Addr) netip.Addr {
	t.Helper()
	a, err := dns64.Synthesize(dns64.WellKnownPrefix, v4)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func udp6(t *testing.T, src netip.Addr, sport, dport uint16, dstV4 netip.Addr, payload string) *packet.IPv6 {
	t.Helper()
	dst := synth(t, dstV4)
	return &packet.IPv6{
		NextHeader: packet.ProtoUDP, HopLimit: 64, Src: src, Dst: dst,
		Payload: (&packet.UDP{SrcPort: sport, DstPort: dport, Payload: []byte(payload)}).Marshal(src, dst),
	}
}

func TestUDPRoundTrip(t *testing.T) {
	clk := newClock()
	tr := newT(t, clk)

	out, err := tr.TranslateV6ToV4(udp6(t, clientV6, 5000, 53, serverV4, "query"))
	if err != nil {
		t.Fatal(err)
	}
	if out.Src != publicV4 || out.Dst != serverV4 || out.Protocol != packet.ProtoUDP {
		t.Fatalf("v4 header: %+v", out)
	}
	if out.TTL != 63 {
		t.Errorf("TTL = %d, want hop limit decremented to 63", out.TTL)
	}
	var u packet.UDP
	err = u.Decode(out.Payload, out.Src, out.Dst)
	if err != nil {
		t.Fatal(err)
	}
	if u.DstPort != 53 || string(u.Payload) != "query" {
		t.Errorf("udp = %+v", u)
	}
	extPort := u.SrcPort

	// Server replies to the allocated external port.
	reply := &packet.IPv4{
		Protocol: packet.ProtoUDP, TTL: 60, Src: serverV4, Dst: publicV4,
		Payload: (&packet.UDP{SrcPort: 53, DstPort: extPort, Payload: []byte("answer")}).Marshal(serverV4, publicV4),
	}
	back, err := tr.TranslateV4ToV6(reply)
	if err != nil {
		t.Fatal(err)
	}
	if back.Dst != clientV6 || back.Src != synth(t, serverV4) {
		t.Fatalf("v6 header: src=%v dst=%v", back.Src, back.Dst)
	}
	var u2 packet.UDP
	err = u2.Decode(back.Payload, back.Src, back.Dst)
	if err != nil {
		t.Fatal(err)
	}
	if u2.DstPort != 5000 || u2.SrcPort != 53 || string(u2.Payload) != "answer" {
		t.Errorf("reply udp = %+v", u2)
	}
	if tr.TranslatedOut != 1 || tr.TranslatedIn != 1 {
		t.Errorf("counters: out=%d in=%d", tr.TranslatedOut, tr.TranslatedIn)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	clk := newClock()
	tr := newT(t, clk)
	dst := synth(t, serverV4)
	syn := &packet.IPv6{
		NextHeader: packet.ProtoTCP, HopLimit: 64, Src: clientV6, Dst: dst,
		Payload: (&packet.TCP{SrcPort: 49152, DstPort: 80, Seq: 100, Flags: packet.TCPSyn}).Marshal(clientV6, dst),
	}
	out, err := tr.TranslateV6ToV4(syn)
	if err != nil {
		t.Fatal(err)
	}
	var tc packet.TCP
	err = tc.Decode(out.Payload, out.Src, out.Dst)
	if err != nil {
		t.Fatal(err)
	}
	if !tc.HasFlags(packet.TCPSyn) || tc.DstPort != 80 || tc.Seq != 100 {
		t.Errorf("tcp = %+v", tc)
	}

	synack := &packet.IPv4{
		Protocol: packet.ProtoTCP, TTL: 60, Src: serverV4, Dst: publicV4,
		Payload: (&packet.TCP{SrcPort: 80, DstPort: tc.SrcPort, Seq: 7, Ack: 101, Flags: packet.TCPSyn | packet.TCPAck}).Marshal(serverV4, publicV4),
	}
	back, err := tr.TranslateV4ToV6(synack)
	if err != nil {
		t.Fatal(err)
	}
	var tc2 packet.TCP
	err = tc2.Decode(back.Payload, back.Src, back.Dst)
	if err != nil {
		t.Fatal(err)
	}
	if tc2.DstPort != 49152 || !tc2.HasFlags(packet.TCPSyn|packet.TCPAck) {
		t.Errorf("reply tcp = %+v", tc2)
	}
}

func TestICMPEchoRoundTrip(t *testing.T) {
	// The paper's Fig. 7: ping sc24.supercomputing.org [64:ff9b::be5c:9e04]
	// from an IPv6 host via NAT64.
	clk := newClock()
	tr := newT(t, clk)
	dst := synth(t, serverV4)
	echo := &packet.IPv6{
		NextHeader: packet.ProtoICMPv6, HopLimit: 64, Src: clientV6, Dst: dst,
		Payload: (&packet.ICMP{Type: packet.ICMPv6EchoRequest, Body: packet.EchoBody(777, 1, []byte("ping"))}).MarshalV6(clientV6, dst),
	}
	out, err := tr.TranslateV6ToV4(echo)
	if err != nil {
		t.Fatal(err)
	}
	var ic packet.ICMP
	err = ic.DecodeV4(out.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if ic.Type != packet.ICMPv4Echo {
		t.Fatalf("icmp type = %d", ic.Type)
	}
	extID, seq, data, _ := packet.EchoFields(ic.Body)
	if seq != 1 || !bytes.Equal(data, []byte("ping")) {
		t.Errorf("echo body: seq=%d data=%q", seq, data)
	}

	reply := &packet.IPv4{
		Protocol: packet.ProtoICMP, TTL: 60, Src: serverV4, Dst: publicV4,
		Payload: (&packet.ICMP{Type: packet.ICMPv4EchoReply, Body: packet.EchoBody(extID, 1, []byte("ping"))}).MarshalV4(),
	}
	back, err := tr.TranslateV4ToV6(reply)
	if err != nil {
		t.Fatal(err)
	}
	var ic2 packet.ICMP
	err = ic2.DecodeV6(back.Payload, back.Src, back.Dst)
	if err != nil {
		t.Fatal(err)
	}
	if ic2.Type != packet.ICMPv6EchoReply {
		t.Fatalf("reply type = %d", ic2.Type)
	}
	id2, _, _, _ := packet.EchoFields(ic2.Body)
	if id2 != 777 {
		t.Errorf("identifier restored to %d, want 777", id2)
	}
}

func TestOutsidePrefixRejected(t *testing.T) {
	tr := newT(t, newClock())
	p := &packet.IPv6{NextHeader: packet.ProtoUDP, HopLimit: 64, Src: clientV6, Dst: netip.MustParseAddr("2001:db8::1")}
	if _, err := tr.TranslateV6ToV4(p); err != ErrNotInPrefix {
		t.Errorf("err = %v, want ErrNotInPrefix", err)
	}
}

func TestInboundWithoutSessionDropped(t *testing.T) {
	tr := newT(t, newClock())
	stray := &packet.IPv4{
		Protocol: packet.ProtoUDP, TTL: 60, Src: serverV4, Dst: publicV4,
		Payload: (&packet.UDP{SrcPort: 53, DstPort: 40000, Payload: []byte("x")}).Marshal(serverV4, publicV4),
	}
	if _, err := tr.TranslateV4ToV6(stray); err != ErrNoSession {
		t.Errorf("err = %v, want ErrNoSession", err)
	}
	if tr.DroppedNoSess != 1 {
		t.Errorf("DroppedNoSess = %d", tr.DroppedNoSess)
	}
}

func TestSessionReuseSamePort(t *testing.T) {
	clk := newClock()
	tr := newT(t, clk)
	p1, _ := tr.TranslateV6ToV4(udp6(t, clientV6, 5000, 53, serverV4, "a"))
	p2, _ := tr.TranslateV6ToV4(udp6(t, clientV6, 5000, 53, serverV4, "b"))
	var u1 packet.UDP
	_ = u1.Decode(p1.Payload, p1.Src, p1.Dst)
	var u2 packet.UDP
	_ = u2.Decode(p2.Payload, p2.Src, p2.Dst)
	if u1.SrcPort != u2.SrcPort {
		t.Errorf("same flow mapped to different ports: %d vs %d", u1.SrcPort, u2.SrcPort)
	}
	if tr.SessionCount() != 1 {
		t.Errorf("sessions = %d, want 1", tr.SessionCount())
	}
}

func TestDistinctFlowsDistinctPorts(t *testing.T) {
	clk := newClock()
	tr := newT(t, clk)
	p1, _ := tr.TranslateV6ToV4(udp6(t, clientV6, 5000, 53, serverV4, "a"))
	p2, _ := tr.TranslateV6ToV4(udp6(t, clientV6, 5001, 53, serverV4, "b"))
	var u1 packet.UDP
	_ = u1.Decode(p1.Payload, p1.Src, p1.Dst)
	var u2 packet.UDP
	_ = u2.Decode(p2.Payload, p2.Src, p2.Dst)
	if u1.SrcPort == u2.SrcPort {
		t.Error("distinct flows share an external port")
	}
}

func TestSessionExpiry(t *testing.T) {
	clk := newClock()
	tr := newT(t, clk)
	tr.TranslateV6ToV4(udp6(t, clientV6, 5000, 53, serverV4, "a"))
	if tr.SessionCount() != 1 {
		t.Fatalf("sessions = %d", tr.SessionCount())
	}
	clk.t = clk.t.Add(DefaultUDPTimeout + time.Second)
	if tr.SessionCount() != 0 {
		t.Errorf("expired session still counted")
	}
	if evicted := tr.ExpireSessions(); evicted != 1 {
		t.Errorf("evicted = %d, want 1", evicted)
	}
}

func TestPortExhaustion(t *testing.T) {
	clk := newClock()
	tr, err := New(Config{Prefix: dns64.WellKnownPrefix, PublicV4: publicV4, PortMin: 40000, PortMax: 40001}, clk.now)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := tr.TranslateV6ToV4(udp6(t, clientV6, uint16(6000+i), 53, serverV4, "x")); err != nil {
			t.Fatalf("flow %d: %v", i, err)
		}
	}
	if _, err := tr.TranslateV6ToV4(udp6(t, clientV6, 6002, 53, serverV4, "x")); err != ErrPortsExhausted {
		t.Errorf("err = %v, want ErrPortsExhausted", err)
	}
	// After expiry, ports are reclaimed.
	clk.t = clk.t.Add(DefaultUDPTimeout + time.Second)
	if _, err := tr.TranslateV6ToV4(udp6(t, clientV6, 6002, 53, serverV4, "x")); err != nil {
		t.Errorf("port not reclaimed after expiry: %v", err)
	}
}

func TestHopLimitExceeded(t *testing.T) {
	tr := newT(t, newClock())
	p := udp6(t, clientV6, 1, 2, serverV4, "x")
	p.HopLimit = 1
	if _, err := tr.TranslateV6ToV4(p); err != ErrHopLimit {
		t.Errorf("err = %v, want ErrHopLimit", err)
	}
}

func TestUnsupportedProtocolRejected(t *testing.T) {
	tr := newT(t, newClock())
	dst := synth(t, serverV4)
	p := &packet.IPv6{NextHeader: 89 /* OSPF */, HopLimit: 64, Src: clientV6, Dst: dst}
	if _, err := tr.TranslateV6ToV4(p); err == nil {
		t.Error("unsupported protocol accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	clk := newClock()
	if _, err := New(Config{Prefix: netip.MustParsePrefix("64:ff9b::/64"), PublicV4: publicV4}, clk.now); err == nil {
		t.Error("non-/96 prefix accepted")
	}
	if _, err := New(Config{Prefix: dns64.WellKnownPrefix, PublicV4: netip.MustParseAddr("::1")}, clk.now); err == nil {
		t.Error("IPv6 public address accepted")
	}
	if _, err := New(Config{Prefix: dns64.WellKnownPrefix, PublicV4: publicV4, PortMin: 50, PortMax: 40}, clk.now); err == nil {
		t.Error("inverted port range accepted")
	}
}

// Property: for any client port and payload, a UDP round trip restores
// the original addressing and payload.
func TestUDPRoundTripProperty(t *testing.T) {
	f := func(sport uint16, payload []byte) bool {
		if sport == 0 {
			sport = 1
		}
		clk := newClock()
		tr, err := New(Config{Prefix: dns64.WellKnownPrefix, PublicV4: publicV4}, clk.now)
		if err != nil {
			return false
		}
		dst, _ := dns64.Synthesize(dns64.WellKnownPrefix, serverV4)
		out, err := tr.TranslateV6ToV4(&packet.IPv6{
			NextHeader: packet.ProtoUDP, HopLimit: 64, Src: clientV6, Dst: dst,
			Payload: (&packet.UDP{SrcPort: sport, DstPort: 9, Payload: payload}).Marshal(clientV6, dst),
		})
		if err != nil {
			return false
		}
		var u packet.UDP
		err = u.Decode(out.Payload, out.Src, out.Dst)
		if err != nil {
			return false
		}
		back, err := tr.TranslateV4ToV6(&packet.IPv4{
			Protocol: packet.ProtoUDP, TTL: 64, Src: serverV4, Dst: publicV4,
			Payload: (&packet.UDP{SrcPort: 9, DstPort: u.SrcPort, Payload: payload}).Marshal(serverV4, publicV4),
		})
		if err != nil {
			return false
		}
		var u2 packet.UDP
		err = u2.Decode(back.Payload, back.Src, back.Dst)
		if err != nil {
			return false
		}
		return back.Dst == clientV6 && u2.DstPort == sport && bytes.Equal(u2.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
