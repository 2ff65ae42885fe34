package clat

import (
	"bytes"
	"net/netip"
	"testing"

	"repro/internal/dns64"
	"repro/internal/packet"
)

// v4ToV6 and v6ToV4 translate into a fresh result whose payload is
// copied out of the translator's scratch, so a test can hold it across
// later calls.
func v4ToV6(c *Translator, p *packet.IPv4) (*packet.IPv6, error) {
	var out packet.IPv6
	if err := c.TranslateV4ToV6(p, &out); err != nil {
		return nil, err
	}
	out.Payload = bytes.Clone(out.Payload)
	return &out, nil
}

func v6ToV4(c *Translator, p *packet.IPv6) (*packet.IPv4, error) {
	var out packet.IPv4
	if err := c.TranslateV6ToV4(p, &out); err != nil {
		return nil, err
	}
	out.Payload = bytes.Clone(out.Payload)
	return &out, nil
}

var (
	hostV6   = netip.MustParseAddr("2607:fb90:9bda:a425::50")
	echoSrvr = netip.MustParseAddr("208.67.222.222") // an IPv4 literal, Echolink-style
)

func TestCLATUDPOut(t *testing.T) {
	c := New(hostV6)
	in := &packet.IPv4{
		Protocol: packet.ProtoUDP, TTL: 64, Src: HostV4, Dst: echoSrvr,
		Payload: (&packet.UDP{SrcPort: 5198, DstPort: 5198, Payload: []byte("echolink")}).Marshal(HostV4, echoSrvr),
	}
	out, err := v4ToV6(c, in)
	if err != nil {
		t.Fatal(err)
	}
	wantDst, _ := dns64.Synthesize(dns64.WellKnownPrefix, echoSrvr)
	if out.Src != hostV6 || out.Dst != wantDst {
		t.Fatalf("v6 header: src=%v dst=%v", out.Src, out.Dst)
	}
	var u packet.UDP
	err = u.Decode(out.Payload, out.Src, out.Dst)
	if err != nil {
		t.Fatal(err)
	}
	if u.SrcPort != 5198 || string(u.Payload) != "echolink" {
		t.Errorf("udp = %+v", u)
	}
	if c.Translated46 != 1 {
		t.Errorf("Translated46 = %d", c.Translated46)
	}
}

func TestCLATUDPBack(t *testing.T) {
	c := New(hostV6)
	srcV6, _ := dns64.Synthesize(dns64.WellKnownPrefix, echoSrvr)
	in := &packet.IPv6{
		NextHeader: packet.ProtoUDP, HopLimit: 60, Src: srcV6, Dst: hostV6,
		Payload: (&packet.UDP{SrcPort: 5198, DstPort: 5198, Payload: []byte("reply")}).Marshal(srcV6, hostV6),
	}
	out, err := v6ToV4(c, in)
	if err != nil {
		t.Fatal(err)
	}
	if out.Src != echoSrvr || out.Dst != HostV4 {
		t.Fatalf("v4 header: src=%v dst=%v", out.Src, out.Dst)
	}
	var u packet.UDP
	err = u.Decode(out.Payload, out.Src, out.Dst)
	if err != nil {
		t.Fatal(err)
	}
	if string(u.Payload) != "reply" {
		t.Errorf("payload = %q", u.Payload)
	}
}

func TestCLATTCPRoundTrip(t *testing.T) {
	c := New(hostV6)
	in := &packet.IPv4{
		Protocol: packet.ProtoTCP, TTL: 64, Src: HostV4, Dst: echoSrvr,
		Payload: (&packet.TCP{SrcPort: 49152, DstPort: 443, Seq: 1, Flags: packet.TCPSyn}).Marshal(HostV4, echoSrvr),
	}
	out, err := v4ToV6(c, in)
	if err != nil {
		t.Fatal(err)
	}
	var tc packet.TCP
	err = tc.Decode(out.Payload, out.Src, out.Dst)
	if err != nil {
		t.Fatal(err)
	}
	if tc.DstPort != 443 || !tc.HasFlags(packet.TCPSyn) {
		t.Errorf("tcp = %+v", tc)
	}

	// Reply path.
	srcV6, _ := dns64.Synthesize(dns64.WellKnownPrefix, echoSrvr)
	reply := &packet.IPv6{
		NextHeader: packet.ProtoTCP, HopLimit: 60, Src: srcV6, Dst: hostV6,
		Payload: (&packet.TCP{SrcPort: 443, DstPort: 49152, Seq: 9, Ack: 2, Flags: packet.TCPSyn | packet.TCPAck}).Marshal(srcV6, hostV6),
	}
	back, err := v6ToV4(c, reply)
	if err != nil {
		t.Fatal(err)
	}
	var tc2 packet.TCP
	err = tc2.Decode(back.Payload, back.Src, back.Dst)
	if err != nil {
		t.Fatal(err)
	}
	if tc2.DstPort != 49152 || !tc2.HasFlags(packet.TCPAck) {
		t.Errorf("reply tcp = %+v", tc2)
	}
}

func TestCLATICMPEcho(t *testing.T) {
	c := New(hostV6)
	in := &packet.IPv4{
		Protocol: packet.ProtoICMP, TTL: 64, Src: HostV4, Dst: echoSrvr,
		Payload: (&packet.ICMP{Type: packet.ICMPv4Echo, Body: packet.EchoBody(42, 1, []byte("p"))}).MarshalV4(),
	}
	out, err := v4ToV6(c, in)
	if err != nil {
		t.Fatal(err)
	}
	var ic packet.ICMP
	err = ic.DecodeV6(out.Payload, out.Src, out.Dst)
	if err != nil {
		t.Fatal(err)
	}
	if ic.Type != packet.ICMPv6EchoRequest {
		t.Errorf("type = %d", ic.Type)
	}
	id, _, data, _ := packet.EchoFields(ic.Body)
	if id != 42 || !bytes.Equal(data, []byte("p")) {
		t.Errorf("echo id=%d data=%q", id, data)
	}
}

func TestCLATRejectsForeignInbound(t *testing.T) {
	c := New(hostV6)
	other := netip.MustParseAddr("2607:fb90:9bda:a425::99")
	srcV6, _ := dns64.Synthesize(dns64.WellKnownPrefix, echoSrvr)
	in := &packet.IPv6{
		NextHeader: packet.ProtoUDP, HopLimit: 60, Src: srcV6, Dst: other,
		Payload: (&packet.UDP{SrcPort: 1, DstPort: 2}).Marshal(srcV6, other),
	}
	if _, err := v6ToV4(c, in); err != ErrNotForHost {
		t.Errorf("err = %v, want ErrNotForHost", err)
	}
}

func TestCLATRejectsNonPrefixSource(t *testing.T) {
	c := New(hostV6)
	src := netip.MustParseAddr("2001:db8::1") // native v6, not NAT64-synthesized
	in := &packet.IPv6{
		NextHeader: packet.ProtoUDP, HopLimit: 60, Src: src, Dst: hostV6,
		Payload: (&packet.UDP{SrcPort: 1, DstPort: 2}).Marshal(src, hostV6),
	}
	if _, err := v6ToV4(c, in); err == nil {
		t.Error("native IPv6 source accepted by CLAT")
	}
}

func TestCLATRequiresV6Source(t *testing.T) {
	c := New(netip.Addr{})
	in := &packet.IPv4{Protocol: packet.ProtoUDP, TTL: 64, Src: HostV4, Dst: echoSrvr,
		Payload: (&packet.UDP{SrcPort: 1, DstPort: 2}).Marshal(HostV4, echoSrvr)}
	if _, err := v4ToV6(c, in); err != ErrNoV6Source {
		t.Errorf("err = %v, want ErrNoV6Source", err)
	}
}
