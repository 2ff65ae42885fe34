package packet

import (
	"bytes"
	"net/netip"
	"testing"
	"testing/quick"
)

var (
	v4a = netip.MustParseAddr("192.168.12.10")
	v4b = netip.MustParseAddr("23.153.8.71")
	v6a = netip.MustParseAddr("fd00:976a::9")
	v6b = netip.MustParseAddr("64:ff9b::be5c:9e04")
)

func TestChecksumKnownVector(t *testing.T) {
	// Classic RFC 1071 example: 0x0001f203f4f5f6f7 -> checksum 0x220d.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(data); got != 0x220d {
		t.Errorf("Checksum = %#04x, want 0x220d", got)
	}
}

func TestChecksumOddLength(t *testing.T) {
	if got := Checksum([]byte{0xff}); got != ^uint16(0xff00) {
		t.Errorf("odd-length checksum = %#04x", got)
	}
}

func TestChecksumSelfVerifies(t *testing.T) {
	f := func(data []byte) bool {
		if len(data)%2 == 1 {
			data = data[:len(data)-1] // append-verify only holds for aligned data
		}
		if len(data) < 2 {
			return true
		}
		ck := Checksum(data)
		withCk := append(append([]byte(nil), data...), byte(ck>>8), byte(ck))
		return Checksum(withCk) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIPv4RoundTrip(t *testing.T) {
	in := &IPv4{
		TOS:      0x10,
		ID:       0xbeef,
		DontFrag: true,
		TTL:      42,
		Protocol: ProtoUDP,
		Src:      v4a,
		Dst:      v4b,
		Payload:  []byte("payload bytes"),
	}
	var out IPv4
	err := out.Decode(in.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if out.Src != in.Src || out.Dst != in.Dst || out.Protocol != in.Protocol ||
		out.TTL != 42 || out.ID != 0xbeef || !out.DontFrag || out.MoreFrag {
		t.Errorf("round trip mismatch: %+v", out)
	}
	if !bytes.Equal(out.Payload, in.Payload) {
		t.Errorf("payload = %q", out.Payload)
	}
}

func TestIPv4DefaultTTL(t *testing.T) {
	p := &IPv4{Protocol: ProtoTCP, Src: v4a, Dst: v4b}
	var out IPv4
	err := out.Decode(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if out.TTL != IPv4DefaultTTL {
		t.Errorf("TTL = %d, want default %d", out.TTL, IPv4DefaultTTL)
	}
}

func TestIPv4CorruptChecksumRejected(t *testing.T) {
	b := (&IPv4{Protocol: ProtoUDP, Src: v4a, Dst: v4b}).Marshal()
	b[10] ^= 0xff
	if err := new(IPv4).Decode(b); err == nil {
		t.Error("corrupt header accepted")
	}
}

func TestIPv4Truncated(t *testing.T) {
	b := (&IPv4{Protocol: ProtoUDP, Src: v4a, Dst: v4b, Payload: []byte("x")}).Marshal()
	for _, n := range []int{0, 5, 19} {
		if err := new(IPv4).Decode(b[:n]); err == nil {
			t.Errorf("truncated to %d bytes accepted", n)
		}
	}
}

func TestIPv4WrongVersionRejected(t *testing.T) {
	b := (&IPv6{NextHeader: ProtoUDP, Src: v6a, Dst: v6b}).Marshal()
	if err := new(IPv4).Decode(b); err == nil {
		t.Error("IPv6 packet accepted as IPv4")
	}
}

func TestIPv4OptionsPreserved(t *testing.T) {
	in := &IPv4{Protocol: ProtoUDP, Src: v4a, Dst: v4b, Options: []byte{0x94, 0x04, 0, 0}}
	var out IPv4
	err := out.Decode(in.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Options, in.Options) {
		t.Errorf("options = %x, want %x", out.Options, in.Options)
	}
}

func TestIPv6RoundTrip(t *testing.T) {
	in := &IPv6{
		TrafficClass: 0xb8,
		FlowLabel:    0xabcde,
		NextHeader:   ProtoUDP,
		HopLimit:     200,
		Src:          v6a,
		Dst:          v6b,
		Payload:      []byte("v6 payload"),
	}
	var out IPv6
	err := out.Decode(in.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if out.Src != in.Src || out.Dst != in.Dst || out.NextHeader != in.NextHeader ||
		out.HopLimit != 200 || out.TrafficClass != 0xb8 || out.FlowLabel != 0xabcde {
		t.Errorf("round trip mismatch: %+v", out)
	}
	if !bytes.Equal(out.Payload, in.Payload) {
		t.Errorf("payload = %q", out.Payload)
	}
}

func TestIPv6Truncated(t *testing.T) {
	b := (&IPv6{NextHeader: ProtoUDP, Src: v6a, Dst: v6b, Payload: []byte("abc")}).Marshal()
	if err := new(IPv6).Decode(b[:39]); err == nil {
		t.Error("truncated header accepted")
	}
	b[5] = 200 // claim longer payload than present
	if err := new(IPv6).Decode(b); err == nil {
		t.Error("overlong payload length accepted")
	}
}

func TestSolicitedNodeMulticast(t *testing.T) {
	a := netip.MustParseAddr("fe80::200:59ff:feaa:c6a3")
	want := netip.MustParseAddr("ff02::1:ffaa:c6a3")
	if got := SolicitedNodeMulticast(a); got != want {
		t.Errorf("SolicitedNodeMulticast = %v, want %v", got, want)
	}
}

func TestMulticastMAC(t *testing.T) {
	a := netip.MustParseAddr("ff02::1")
	want := [6]byte{0x33, 0x33, 0, 0, 0, 1}
	if got := MulticastMAC(a); got != want {
		t.Errorf("MulticastMAC = %x, want %x", got, want)
	}
}

func TestUDPRoundTripV4(t *testing.T) {
	in := &UDP{SrcPort: 68, DstPort: 67, Payload: []byte("dhcp")}
	var out UDP
	err := out.Decode(in.Marshal(v4a, v4b), v4a, v4b)
	if err != nil {
		t.Fatal(err)
	}
	if out.SrcPort != 68 || out.DstPort != 67 || !bytes.Equal(out.Payload, in.Payload) {
		t.Errorf("round trip mismatch: %+v", out)
	}
}

func TestUDPRoundTripV6(t *testing.T) {
	in := &UDP{SrcPort: 5353, DstPort: 53, Payload: []byte("dns query")}
	var out UDP
	err := out.Decode(in.Marshal(v6a, v6b), v6a, v6b)
	if err != nil {
		t.Fatal(err)
	}
	if out.SrcPort != 5353 || out.DstPort != 53 || !bytes.Equal(out.Payload, in.Payload) {
		t.Errorf("round trip mismatch: %+v", out)
	}
}

func TestUDPChecksumBindsAddresses(t *testing.T) {
	// Note: swapping src and dst does not change a ones-complement sum, so
	// verify with a genuinely different address instead.
	b := (&UDP{SrcPort: 1, DstPort: 2}).Marshal(v4a, v4b)
	if err := new(UDP).Decode(b, v4a, netip.MustParseAddr("10.0.0.1")); err == nil {
		t.Error("UDP accepted with wrong pseudo-header addresses")
	}
}

func TestUDPZeroChecksumRejectedOnV6(t *testing.T) {
	b := (&UDP{SrcPort: 1, DstPort: 2}).Marshal(v6a, v6b)
	b[6], b[7] = 0, 0
	if err := new(UDP).Decode(b, v6a, v6b); err == nil {
		t.Error("zero-checksum UDP over IPv6 accepted")
	}
}

func TestTCPRoundTrip(t *testing.T) {
	in := &TCP{
		SrcPort: 49152, DstPort: 80,
		Seq: 0x12345678, Ack: 0x9abcdef0,
		Flags: TCPSyn | TCPAck, Window: 4096,
		Options: []byte{2, 4, 5, 0xb4},
		Payload: []byte("GET / HTTP/1.1"),
	}
	var out TCP
	err := out.Decode(in.Marshal(v6a, v6b), v6a, v6b)
	if err != nil {
		t.Fatal(err)
	}
	if out.SrcPort != in.SrcPort || out.DstPort != in.DstPort ||
		out.Seq != in.Seq || out.Ack != in.Ack || out.Flags != in.Flags ||
		out.Window != 4096 {
		t.Errorf("round trip mismatch: %+v", out)
	}
	if !bytes.Equal(out.Payload, in.Payload) || !bytes.Equal(out.Options, in.Options) {
		t.Errorf("payload/options mismatch")
	}
	if !out.HasFlags(TCPSyn) || !out.HasFlags(TCPSyn|TCPAck) || out.HasFlags(TCPFin) {
		t.Error("HasFlags misbehaves")
	}
}

func TestTCPCorruptPayloadRejected(t *testing.T) {
	b := (&TCP{SrcPort: 1, DstPort: 2, Payload: []byte("data")}).Marshal(v4a, v4b)
	b[len(b)-1] ^= 0x01
	if err := new(TCP).Decode(b, v4a, v4b); err == nil {
		t.Error("corrupt TCP payload accepted")
	}
}

func TestICMPv4EchoRoundTrip(t *testing.T) {
	in := &ICMP{Type: ICMPv4Echo, Body: EchoBody(0x1234, 7, []byte("ping"))}
	var out ICMP
	err := out.DecodeV4(in.MarshalV4())
	if err != nil {
		t.Fatal(err)
	}
	id, seq, data, err := EchoFields(out.Body)
	if err != nil || id != 0x1234 || seq != 7 || string(data) != "ping" {
		t.Errorf("echo fields = %v/%v/%q err=%v", id, seq, data, err)
	}
}

func TestICMPv6EchoRoundTrip(t *testing.T) {
	in := &ICMP{Type: ICMPv6EchoRequest, Body: EchoBody(9, 1, []byte("abc"))}
	var out ICMP
	err := out.DecodeV6(in.MarshalV6(v6a, v6b), v6a, v6b)
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != ICMPv6EchoRequest {
		t.Errorf("type = %d", out.Type)
	}
	if err := new(ICMP).DecodeV6(in.MarshalV6(v6a, v6b), v6a, netip.MustParseAddr("2001:db8::1")); err == nil {
		t.Error("ICMPv6 checksum did not bind addresses")
	}
}

func TestICMPErrorClassification(t *testing.T) {
	if !IsICMPv4Error(ICMPv4DestUnreachable) || IsICMPv4Error(ICMPv4Echo) {
		t.Error("ICMPv4 error classification wrong")
	}
	if !IsICMPv6Error(ICMPv6DestUnreachable) || IsICMPv6Error(ICMPv6EchoRequest) {
		t.Error("ICMPv6 error classification wrong")
	}
}

func TestARPRoundTrip(t *testing.T) {
	in := &ARP{
		Op:        ARPRequest,
		SenderMAC: [6]byte{2, 0, 0x5e, 0, 0, 1},
		SenderIP:  v4a,
		TargetIP:  v4b,
	}
	var out ARP
	err := out.Decode(in.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if out.Op != ARPRequest || out.SenderMAC != in.SenderMAC ||
		out.SenderIP != v4a || out.TargetIP != v4b {
		t.Errorf("round trip mismatch: %+v", out)
	}
}

func TestARPTruncated(t *testing.T) {
	if err := new(ARP).Decode(make([]byte, 10)); err == nil {
		t.Error("truncated ARP accepted")
	}
}

// Property: IPv4 round-trips for arbitrary payloads and field values.
func TestIPv4RoundTripProperty(t *testing.T) {
	f := func(tos uint8, id uint16, ttl uint8, proto uint8, payload []byte) bool {
		if ttl == 0 {
			ttl = 1
		}
		in := &IPv4{TOS: tos, ID: id, TTL: ttl, Protocol: proto, Src: v4a, Dst: v4b, Payload: payload}
		var out IPv4
		err := out.Decode(in.Marshal())
		if err != nil {
			return false
		}
		return out.TOS == tos && out.ID == id && out.TTL == ttl &&
			out.Protocol == proto && bytes.Equal(out.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: UDP round-trips and always passes checksum verification.
func TestUDPRoundTripProperty(t *testing.T) {
	f := func(sp, dp uint16, payload []byte) bool {
		in := &UDP{SrcPort: sp, DstPort: dp, Payload: payload}
		var out UDP
		err := out.Decode(in.Marshal(v6a, v6b), v6a, v6b)
		if err != nil {
			return false
		}
		return out.SrcPort == sp && out.DstPort == dp && bytes.Equal(out.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: single-bit corruption anywhere in a TCP segment is detected
// (excluding bit flips that only touch padding-free zones is unnecessary:
// the checksum covers the whole segment).
func TestTCPChecksumDetectsBitFlips(t *testing.T) {
	seg := (&TCP{SrcPort: 1000, DstPort: 2000, Seq: 1, Payload: []byte("important data")}).Marshal(v4a, v4b)
	for i := 0; i < len(seg)*8; i++ {
		mut := append([]byte(nil), seg...)
		mut[i/8] ^= 1 << (i % 8)
		if err := new(TCP).Decode(mut, v4a, v4b); err == nil {
			// A flip in two different bytes could theoretically cancel, but a
			// single-bit flip must always be caught by the ones-complement sum.
			t.Fatalf("bit flip at %d undetected", i)
		}
	}
}
