package packet

import "testing"

// TestDecodeAllocatesNothing pins the zero-copy receive contract: every
// decoder fills a caller-owned value that stays on the stack, with
// Options, Payload and Body aliasing the input, so a decode allocates
// nothing.
func TestDecodeAllocatesNothing(t *testing.T) {
	ipv4 := (&IPv4{Protocol: ProtoUDP, Src: v4a, Dst: v4b, Options: []byte{0x94, 4, 0, 0}, Payload: make([]byte, 64)}).Marshal()
	ipv6 := (&IPv6{NextHeader: ProtoTCP, Src: v6a, Dst: v6b, Payload: make([]byte, 64)}).Marshal()
	udp := (&UDP{SrcPort: 5353, DstPort: 53, Payload: make([]byte, 64)}).Marshal(v6a, v6b)
	tcp := (&TCP{SrcPort: 52001, DstPort: 80, Options: []byte{2, 4, 5, 0xb4}, Payload: make([]byte, 64)}).Marshal(v4a, v4b)
	icmp4 := (&ICMP{Type: ICMPv4Echo, Body: EchoBody(1, 2, make([]byte, 32))}).MarshalV4()
	icmp6 := (&ICMP{Type: ICMPv6EchoRequest, Body: EchoBody(1, 2, make([]byte, 32))}).MarshalV6(v6a, v6b)
	arp := (&ARP{Op: ARPRequest, SenderIP: v4a, TargetIP: v4b}).Marshal()
	for _, c := range []struct {
		name   string
		decode func() error
	}{
		{"IPv4", func() error { var p IPv4; return p.Decode(ipv4) }},
		{"IPv6", func() error { var p IPv6; return p.Decode(ipv6) }},
		{"UDP", func() error { var u UDP; return u.Decode(udp, v6a, v6b) }},
		{"TCP", func() error { var tc TCP; return tc.Decode(tcp, v4a, v4b) }},
		{"ICMPv4", func() error { var m ICMP; return m.DecodeV4(icmp4) }},
		{"ICMPv6", func() error { var m ICMP; return m.DecodeV6(icmp6, v6a, v6b) }},
		{"ARP", func() error { var a ARP; return a.Decode(arp) }},
	} {
		var err error
		allocs := testing.AllocsPerRun(100, func() { err = c.decode() })
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if allocs != 0 {
			t.Errorf("%s decode allocates %.1f times, want 0", c.name, allocs)
		}
	}
}

// TestDecodedViewsAliasInput pins what the zero-copy decoders hand back:
// Options, Payload and Body point into the input, and their capacity
// ends with them, so an append cannot run over the bytes that follow.
func TestDecodedViewsAliasInput(t *testing.T) {
	wire := (&IPv4{Protocol: ProtoTCP, Src: v4a, Dst: v4b, Options: []byte{0x94, 4, 0, 0},
		Payload: (&TCP{SrcPort: 1, DstPort: 2, Options: []byte{2, 4, 5, 0xb4}, Payload: []byte("data")}).Marshal(v4a, v4b),
	}).Marshal()
	wire = append(wire, "trailer"...) // bytes past the total length
	var p IPv4
	if err := p.Decode(wire); err != nil {
		t.Fatal(err)
	}
	var tc TCP
	if err := tc.Decode(p.Payload, p.Src, p.Dst); err != nil {
		t.Fatal(err)
	}
	for _, v := range []struct {
		name string
		view []byte
		at   int
	}{
		{"IPv4 options", p.Options, IPv4MinHeaderLen},
		{"IPv4 payload", p.Payload, IPv4MinHeaderLen + 4},
		{"TCP options", tc.Options, IPv4MinHeaderLen + 4 + TCPMinHeaderLen},
		{"TCP payload", tc.Payload, IPv4MinHeaderLen + 4 + TCPMinHeaderLen + 4},
	} {
		if &v.view[0] != &wire[v.at] {
			t.Errorf("%s does not alias the input at offset %d", v.name, v.at)
		}
		if cap(v.view) != len(v.view) {
			t.Errorf("%s capacity %d runs past its length %d", v.name, cap(v.view), len(v.view))
		}
	}
	if string(tc.Payload) != "data" {
		t.Errorf("TCP payload %q, want %q", tc.Payload, "data")
	}
}
