package nat64

import (
	"net/netip"
	"testing"

	"repro/internal/dns64"
	"repro/internal/packet"
)

// buildICMPv4Error fabricates the error a remote router would send after
// our translated packet hit a dead end: it embeds the first bytes of the
// translated (outbound) IPv4 packet.
func buildICMPv4Error(t *testing.T, typ, code uint8, meta []byte, embedded *packet.IPv4, routerV4 netip.Addr) *packet.IPv4 {
	t.Helper()
	wire := embedded.Marshal()
	if len(wire) > 28+8 {
		wire = wire[:28+8]
	}
	body := append(append([]byte{}, meta...), wire...)
	return &packet.IPv4{
		Protocol: packet.ProtoICMP, TTL: 60, Src: routerV4, Dst: publicV4,
		Payload: (&packet.ICMP{Type: typ, Code: code, Body: body}).MarshalV4(),
	}
}

func TestPortUnreachableTranslated(t *testing.T) {
	clk := newClock()
	tr := newT(t, clk)

	// Client sends a UDP packet through the NAT64.
	out, err := tr.TranslateV6ToV4(udp6(t, clientV6, 5000, 9999, serverV4, "probe"))
	if err != nil {
		t.Fatal(err)
	}

	// The server answers with ICMP port unreachable embedding that packet.
	errPkt := buildICMPv4Error(t, packet.ICMPv4DestUnreachable, packet.ICMPv4CodePortUnreachable,
		[]byte{0, 0, 0, 0}, out, serverV4)
	back, err := tr.TranslateV4ToV6(errPkt)
	if err != nil {
		t.Fatalf("error translation: %v", err)
	}
	if back.Dst != clientV6 {
		t.Errorf("error delivered to %v", back.Dst)
	}
	var ic packet.ICMP
	err = ic.DecodeV6(back.Payload, back.Src, back.Dst)
	if err != nil {
		t.Fatal(err)
	}
	if ic.Type != packet.ICMPv6DestUnreachable || ic.Code != packet.ICMPv6CodePortUnreachable {
		t.Errorf("type/code = %d/%d", ic.Type, ic.Code)
	}
	// The embedded packet must be the client's ORIGINAL IPv6 packet shape.
	var inner packet.IPv6
	err = inner.Decode(ic.Body[4:])
	if err != nil {
		t.Fatalf("embedded: %v", err)
	}
	if inner.Src != clientV6 {
		t.Errorf("embedded src = %v", inner.Src)
	}
	wantDst, _ := dns64.Synthesize(dns64.WellKnownPrefix, serverV4)
	if inner.Dst != wantDst {
		t.Errorf("embedded dst = %v", inner.Dst)
	}
	var u packet.UDP
	err = u.Decode(inner.Payload, inner.Src, inner.Dst)
	if err != nil {
		t.Fatal(err)
	}
	if u.SrcPort != 5000 || u.DstPort != 9999 {
		t.Errorf("embedded ports = %d->%d", u.SrcPort, u.DstPort)
	}
}

func TestFragNeededBecomesPacketTooBig(t *testing.T) {
	clk := newClock()
	tr := newT(t, clk)
	out, err := tr.TranslateV6ToV4(udp6(t, clientV6, 5001, 53, serverV4, "q"))
	if err != nil {
		t.Fatal(err)
	}
	errPkt := buildICMPv4Error(t, packet.ICMPv4DestUnreachable, 4, /* frag needed */
		[]byte{0, 0, 0x05, 0xdc} /* MTU 1500 */, out, serverV4)
	back, err := tr.TranslateV4ToV6(errPkt)
	if err != nil {
		t.Fatal(err)
	}
	var ic packet.ICMP
	_ = ic.DecodeV6(back.Payload, back.Src, back.Dst)
	if ic.Type != packet.ICMPv6PacketTooBig {
		t.Fatalf("type = %d", ic.Type)
	}
	mtu := uint32(ic.Body[0])<<24 | uint32(ic.Body[1])<<16 | uint32(ic.Body[2])<<8 | uint32(ic.Body[3])
	if mtu != 1500 {
		t.Errorf("mtu = %d", mtu)
	}
}

func TestFragNeededMTUClampedTo1280(t *testing.T) {
	clk := newClock()
	tr := newT(t, clk)
	out, _ := tr.TranslateV6ToV4(udp6(t, clientV6, 5002, 53, serverV4, "q"))
	errPkt := buildICMPv4Error(t, packet.ICMPv4DestUnreachable, 4,
		[]byte{0, 0, 0x02, 0x00} /* MTU 512 < IPv6 minimum */, out, serverV4)
	back, err := tr.TranslateV4ToV6(errPkt)
	if err != nil {
		t.Fatal(err)
	}
	var ic packet.ICMP
	_ = ic.DecodeV6(back.Payload, back.Src, back.Dst)
	mtu := uint32(ic.Body[0])<<24 | uint32(ic.Body[1])<<16 | uint32(ic.Body[2])<<8 | uint32(ic.Body[3])
	if mtu != 1280 {
		t.Errorf("mtu = %d, want clamped 1280", mtu)
	}
}

func TestTimeExceededTranslated(t *testing.T) {
	clk := newClock()
	tr := newT(t, clk)
	out, _ := tr.TranslateV6ToV4(udp6(t, clientV6, 5003, 33434, serverV4, "traceroute"))
	router := netip.MustParseAddr("198.51.100.254")
	errPkt := buildICMPv4Error(t, packet.ICMPv4TimeExceeded, 0, []byte{0, 0, 0, 0}, out, router)
	back, err := tr.TranslateV4ToV6(errPkt)
	if err != nil {
		t.Fatal(err)
	}
	var ic packet.ICMP
	_ = ic.DecodeV6(back.Payload, back.Src, back.Dst)
	if ic.Type != packet.ICMPv6TimeExceeded {
		t.Errorf("type = %d", ic.Type)
	}
	// The error source is the router, synthesized into the prefix.
	wantSrc, _ := dns64.Synthesize(dns64.WellKnownPrefix, router)
	if back.Src != wantSrc {
		t.Errorf("error src = %v, want %v (traceroute hop visibility)", back.Src, wantSrc)
	}
}

func TestErrorForUnknownSessionDropped(t *testing.T) {
	clk := newClock()
	tr := newT(t, clk)
	// Craft an embedded packet that matches no session.
	embedded := &packet.IPv4{
		Protocol: packet.ProtoUDP, TTL: 63, Src: publicV4, Dst: serverV4,
		Payload: (&packet.UDP{SrcPort: 44444, DstPort: 53}).Marshal(publicV4, serverV4),
	}
	errPkt := buildICMPv4Error(t, packet.ICMPv4DestUnreachable, 3, []byte{0, 0, 0, 0}, embedded, serverV4)
	if _, err := tr.TranslateV4ToV6(errPkt); err != ErrNoSession {
		t.Errorf("err = %v, want ErrNoSession", err)
	}
}

func TestErrorWithForeignEmbeddedSourceDropped(t *testing.T) {
	clk := newClock()
	tr := newT(t, clk)
	tr.TranslateV6ToV4(udp6(t, clientV6, 5004, 53, serverV4, "q"))
	// Embedded packet claims a source that is not our public address.
	embedded := &packet.IPv4{
		Protocol: packet.ProtoUDP, TTL: 63, Src: netip.MustParseAddr("198.51.100.77"), Dst: serverV4,
		Payload: (&packet.UDP{SrcPort: 32768, DstPort: 53}).Marshal(netip.MustParseAddr("198.51.100.77"), serverV4),
	}
	errPkt := buildICMPv4Error(t, packet.ICMPv4DestUnreachable, 3, []byte{0, 0, 0, 0}, embedded, serverV4)
	if _, err := tr.TranslateV4ToV6(errPkt); err == nil {
		t.Error("spoofed embedded source accepted")
	}
}

func TestTruncatedErrorBodyRejected(t *testing.T) {
	clk := newClock()
	tr := newT(t, clk)
	errPkt := &packet.IPv4{
		Protocol: packet.ProtoICMP, TTL: 60, Src: serverV4, Dst: publicV4,
		Payload: (&packet.ICMP{Type: packet.ICMPv4DestUnreachable, Code: 3, Body: make([]byte, 10)}).MarshalV4(),
	}
	if _, err := tr.TranslateV4ToV6(errPkt); err == nil {
		t.Error("truncated error body accepted")
	}
}
