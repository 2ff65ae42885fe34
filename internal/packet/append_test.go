package packet

import (
	"bytes"
	"testing"
)

// appendCase is one encoder under test: Marshal's fresh encoding and
// the AppendTo form of the same header.
type appendCase struct {
	name     string
	marshal  func() []byte
	appendTo func(buf []byte) []byte
}

// appendCases covers every AppendTo encoder. The IPv4 and TCP options
// are three bytes long, so their encodings carry a padding byte the
// encoder must zero.
func appendCases() []appendCase {
	ipv4 := &IPv4{TOS: 0x10, ID: 7, DontFrag: true, Protocol: ProtoUDP, Src: v4a, Dst: v4b,
		Options: []byte{0x94, 4, 0}, Payload: []byte("ipv4 payload")}
	ipv6 := &IPv6{TrafficClass: 0xb8, FlowLabel: 0x12345, NextHeader: ProtoTCP, Src: v6a, Dst: v6b,
		Payload: []byte("ipv6 payload")}
	udp := &UDP{SrcPort: 5353, DstPort: 53, Payload: []byte("query")}
	tcp := &TCP{SrcPort: 52001, DstPort: 80, Seq: 1000, Ack: 2000, Flags: TCPAck | TCPPsh,
		Options: []byte{1, 1, 1}, Payload: []byte("GET / HTTP/1.1\r\n")}
	icmp4 := &ICMP{Type: ICMPv4Echo, Body: EchoBody(1, 2, []byte("ping"))}
	icmp6 := &ICMP{Type: ICMPv6EchoRequest, Body: EchoBody(1, 2, []byte("ping"))}
	arp := &ARP{Op: ARPRequest, SenderMAC: [6]byte{2, 0, 0, 0, 0, 1}, SenderIP: v4a, TargetIP: v4b}
	return []appendCase{
		{"IPv4", ipv4.Marshal, ipv4.AppendTo},
		{"IPv6", ipv6.Marshal, ipv6.AppendTo},
		{"UDP/IPv4", func() []byte { return udp.Marshal(v4a, v4b) }, func(b []byte) []byte { return udp.AppendTo(b, v4a, v4b) }},
		{"UDP/IPv6", func() []byte { return udp.Marshal(v6a, v6b) }, func(b []byte) []byte { return udp.AppendTo(b, v6a, v6b) }},
		{"TCP/IPv4", func() []byte { return tcp.Marshal(v4a, v4b) }, func(b []byte) []byte { return tcp.AppendTo(b, v4a, v4b) }},
		{"TCP/IPv6", func() []byte { return tcp.Marshal(v6a, v6b) }, func(b []byte) []byte { return tcp.AppendTo(b, v6a, v6b) }},
		{"ICMPv4", icmp4.MarshalV4, icmp4.AppendToV4},
		{"ICMPv6", func() []byte { return icmp6.MarshalV6(v6a, v6b) }, func(b []byte) []byte { return icmp6.AppendToV6(b, v6a, v6b) }},
		{"ARP", arp.Marshal, arp.AppendTo},
	}
}

// TestAppendToMatchesMarshal pins the reuse hazard of encoding into
// scratch: a reused buffer's spare capacity holds whatever the previous
// packet left there, so every encoder must zero its header, padding and
// checksum field before summing. Appending into a buffer whose spare
// capacity is all 0xff must give exactly Marshal's bytes, after an
// untouched prefix, in place.
func TestAppendToMatchesMarshal(t *testing.T) {
	prefix := []byte("prefix")
	for _, c := range appendCases() {
		want := c.marshal()
		buf := make([]byte, len(prefix), len(prefix)+len(want)+16)
		copy(buf, prefix)
		spare := buf[len(buf):cap(buf)]
		for i := range spare {
			spare[i] = 0xff
		}
		got := c.appendTo(buf)
		if &got[0] != &buf[0] {
			t.Errorf("%s: AppendTo reallocated a buffer with room to spare", c.name)
		}
		if !bytes.Equal(got[:len(prefix)], prefix) {
			t.Errorf("%s: prefix overwritten: %q", c.name, got[:len(prefix)])
		}
		if !bytes.Equal(got[len(prefix):], want) {
			t.Errorf("%s: AppendTo into dirty capacity\n got % x\nwant % x", c.name, got[len(prefix):], want)
		}
	}
}

// TestAppendToAllocatesNothing pins the send side's half of the
// zero-allocation data path: encoding into a warmed buffer allocates
// nothing.
func TestAppendToAllocatesNothing(t *testing.T) {
	buf := make([]byte, 0, 2048)
	for _, c := range appendCases() {
		if allocs := testing.AllocsPerRun(100, func() { buf = c.appendTo(buf[:0]) }); allocs != 0 {
			t.Errorf("%s AppendTo allocates %.1f times into a warmed buffer, want 0", c.name, allocs)
		}
	}
}
