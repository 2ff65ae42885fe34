package packet_test

import (
	"bytes"
	"net/netip"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/hoststack"
	"repro/internal/httpsim"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/profiles"
	"repro/internal/testbed"
)

// The fuzz targets below hold every decoder to three properties: it
// never panics, decode → encode → decode is stable, and decoding into a
// value that already holds another frame gives the same result as
// decoding into a fresh one. Seeds are the frames that cross the managed
// switch in a default world while clients of each address-family class
// come up, browse and ping.

// maxSeeds caps the seeds one target takes from the golden run.
const maxSeeds = 48

// goldenFrames runs the seed world once per test binary and returns the
// distinct frames that crossed its switch, payloads copied out of the
// fabric's arena.
var goldenFrames = sync.OnceValues(func() ([]netsim.Frame, error) {
	tb, err := testbed.Build(testbed.DefaultTopology(testbed.DefaultOptions()))
	if err != nil {
		return nil, err
	}
	defer tb.Close()
	seen := make(map[string]bool)
	var frames []netsim.Frame
	tb.Switch.AddFilter(func(_ int, f netsim.Frame) bool {
		if key := string(f.Payload); !seen[key] {
			seen[key] = true
			f.Payload = []byte(key)
			frames = append(frames, f)
		}
		return true
	})
	for _, b := range []hoststack.Behavior{profiles.IOS(), profiles.WindowsXP(), profiles.Android()} {
		c := tb.AddClient("seed-"+b.Name, b)
		_, _ = httpsim.Browse(c, "http://sc24.supercomputing.org/")
		_, _ = c.Ping(testbed.GatewayLANv4, time.Second)
	}
	return frames, nil
})

// l4Seed is a transport message with the addresses its checksum covers.
type l4Seed struct {
	src, dst netip.Addr
	proto    uint8
	b        []byte
}

// goldenLayers splits the golden frames by what a decoder sees: whole
// IPv4, IPv6 and ARP payloads, and the transport messages inside the IP
// packets.
func goldenLayers(f *testing.F) (v4, v6, arp [][]byte, l4 []l4Seed) {
	f.Helper()
	frames, err := goldenFrames()
	if err != nil {
		f.Fatal(err)
	}
	for _, fr := range frames {
		switch fr.EtherType {
		case netsim.EtherTypeARP:
			arp = append(arp, fr.Payload)
		case netsim.EtherTypeIPv4:
			v4 = append(v4, fr.Payload)
			var p packet.IPv4
			if p.Decode(fr.Payload) == nil {
				l4 = append(l4, l4Seed{p.Src, p.Dst, p.Protocol, p.Payload})
			}
		case netsim.EtherTypeIPv6:
			v6 = append(v6, fr.Payload)
			var p packet.IPv6
			if p.Decode(fr.Payload) == nil {
				l4 = append(l4, l4Seed{p.Src, p.Dst, p.NextHeader, p.Payload})
			}
		}
	}
	return v4, v6, arp, l4
}

// addSeeds adds up to maxSeeds single-input seeds.
func addSeeds(f *testing.F, seeds [][]byte) {
	f.Helper()
	if len(seeds) == 0 {
		f.Fatal("golden run produced no seeds")
	}
	for _, b := range seeds[:min(len(seeds), maxSeeds)] {
		f.Add(b)
	}
}

// addL4Seeds adds up to maxSeeds (src, dst, message) seeds for proto.
func addL4Seeds(f *testing.F, proto uint8) {
	f.Helper()
	_, _, _, l4 := goldenLayers(f)
	n := 0
	for _, s := range l4 {
		if s.proto == proto && n < maxSeeds {
			f.Add(s.src.AsSlice(), s.dst.AsSlice(), s.b)
			n++
		}
	}
	if n == 0 {
		f.Fatalf("golden run produced no protocol %d seeds", proto)
	}
}

// addrPair turns fuzzed bytes into a same-family address pair, the only
// kind a pseudo-header checksum is defined for.
func addrPair(src, dst []byte) (s, d netip.Addr, ok bool) {
	s, ok1 := netip.AddrFromSlice(src)
	d, ok2 := netip.AddrFromSlice(dst)
	return s, d, ok1 && ok2 && s.BitLen() == d.BitLen()
}

// codec is one header type under fuzz.
type codec[T any] struct {
	decode func(v *T, b []byte) error
	encode func(v *T) []byte
	// normalize applies the encoder's defaults to a decoded value (a
	// zero TTL goes out as 64), predicting what re-decoding yields.
	normalize func(v *T)
	// full is a valid message with every optional field set; the reuse
	// check decodes it into the reused value first.
	full []byte
}

// check runs the reuse and round-trip properties on input b; a panic
// anywhere fails the fuzz run by itself.
func (c codec[T]) check(t *testing.T, b []byte) {
	t.Helper()
	var fresh T
	err := c.decode(&fresh, b)
	var reused T
	if e := c.decode(&reused, c.full); e != nil {
		t.Fatalf("full message does not decode: %v", e)
	}
	if e := c.decode(&reused, b); (e == nil) != (err == nil) {
		t.Fatalf("fresh decode error %v, reused decode error %v", err, e)
	}
	if err != nil {
		return
	}
	if !reflect.DeepEqual(fresh, reused) {
		t.Fatalf("reused value differs from fresh:\nfresh  %+v\nreused %+v", fresh, reused)
	}
	wire := c.encode(&fresh)
	var again T
	if err := c.decode(&again, wire); err != nil {
		t.Fatalf("re-decoding the encoding failed: %v\nvalue %+v", err, fresh)
	}
	want := fresh
	if c.normalize != nil {
		c.normalize(&want)
	}
	if !reflect.DeepEqual(want, again) {
		t.Fatalf("decode → encode → decode changed the value:\nfirst  %+v\nsecond %+v", want, again)
	}
	if w := c.encode(&again); !bytes.Equal(w, wire) {
		t.Fatalf("encoding is not stable:\nfirst  %x\nsecond %x", wire, w)
	}
}

var (
	fuzzV4a = netip.MustParseAddr("192.168.12.50")
	fuzzV4b = netip.MustParseAddr("23.153.8.71")
	fuzzV6a = netip.MustParseAddr("2607:fb90:9bda:a425::50")
	fuzzV6b = netip.MustParseAddr("64:ff9b::1799:847")
)

func FuzzIPv4Decode(f *testing.F) {
	v4, _, _, _ := goldenLayers(f)
	addSeeds(f, v4)
	c := codec[packet.IPv4]{
		decode: (*packet.IPv4).Decode,
		encode: (*packet.IPv4).Marshal,
		normalize: func(p *packet.IPv4) {
			if p.TTL == 0 {
				p.TTL = packet.IPv4DefaultTTL
			}
		},
		full: (&packet.IPv4{
			TOS: 0x10, ID: 7, MoreFrag: true, FragOff: 3, TTL: 9, Protocol: packet.ProtoUDP,
			Src: fuzzV4a, Dst: fuzzV4b, Options: []byte{0x94, 4, 0, 0}, Payload: []byte("full frame"),
		}).Marshal(),
	}
	f.Fuzz(func(t *testing.T, b []byte) { c.check(t, b) })
}

func FuzzIPv6Decode(f *testing.F) {
	_, v6, _, _ := goldenLayers(f)
	addSeeds(f, v6)
	c := codec[packet.IPv6]{
		decode: (*packet.IPv6).Decode,
		encode: (*packet.IPv6).Marshal,
		normalize: func(p *packet.IPv6) {
			if p.HopLimit == 0 {
				p.HopLimit = packet.IPv6DefaultHopLimit
			}
		},
		full: (&packet.IPv6{
			TrafficClass: 0xb8, FlowLabel: 0x12345, NextHeader: packet.ProtoTCP, HopLimit: 9,
			Src: fuzzV6a, Dst: fuzzV6b, Payload: []byte("full frame"),
		}).Marshal(),
	}
	f.Fuzz(func(t *testing.T, b []byte) { c.check(t, b) })
}

func FuzzARPDecode(f *testing.F) {
	_, _, arp, _ := goldenLayers(f)
	addSeeds(f, arp)
	c := codec[packet.ARP]{
		decode: (*packet.ARP).Decode,
		encode: (*packet.ARP).Marshal,
		full: (&packet.ARP{
			Op: packet.ARPReply, SenderMAC: [6]byte{2, 0, 0, 0, 0, 1}, SenderIP: fuzzV4a,
			TargetMAC: [6]byte{2, 0, 0, 0, 0, 2}, TargetIP: fuzzV4b,
		}).Marshal(),
	}
	f.Fuzz(func(t *testing.T, b []byte) { c.check(t, b) })
}

func FuzzICMPv4Decode(f *testing.F) {
	addL4Seeds(f, packet.ProtoICMP)
	c := codec[packet.ICMP]{
		decode: (*packet.ICMP).DecodeV4,
		encode: (*packet.ICMP).MarshalV4,
		full:   (&packet.ICMP{Type: packet.ICMPv4Echo, Body: packet.EchoBody(1, 2, []byte("full"))}).MarshalV4(),
	}
	// The seeds carry addresses for the shared l4 shape; ICMPv4 has no
	// pseudo-header, so only the message is decoded.
	f.Fuzz(func(t *testing.T, _, _, b []byte) { c.check(t, b) })
}

func FuzzICMPv6Decode(f *testing.F) {
	addL4Seeds(f, packet.ProtoICMPv6)
	f.Fuzz(func(t *testing.T, src, dst, b []byte) {
		s, d, ok := addrPair(src, dst)
		if !ok {
			return
		}
		codec[packet.ICMP]{
			decode: func(m *packet.ICMP, b []byte) error { return m.DecodeV6(b, s, d) },
			encode: func(m *packet.ICMP) []byte { return m.MarshalV6(s, d) },
			full: (&packet.ICMP{Type: packet.ICMPv6EchoRequest, Body: packet.EchoBody(1, 2, []byte("full"))}).
				MarshalV6(s, d),
		}.check(t, b)
	})
}

func FuzzUDPDecode(f *testing.F) {
	addL4Seeds(f, packet.ProtoUDP)
	f.Fuzz(func(t *testing.T, src, dst, b []byte) {
		s, d, ok := addrPair(src, dst)
		if !ok {
			return
		}
		codec[packet.UDP]{
			decode: func(u *packet.UDP, b []byte) error { return u.Decode(b, s, d) },
			encode: func(u *packet.UDP) []byte { return u.Marshal(s, d) },
			full:   (&packet.UDP{SrcPort: 5353, DstPort: 53, Payload: []byte("full")}).Marshal(s, d),
		}.check(t, b)
	})
}

func FuzzTCPDecode(f *testing.F) {
	addL4Seeds(f, packet.ProtoTCP)
	f.Fuzz(func(t *testing.T, src, dst, b []byte) {
		s, d, ok := addrPair(src, dst)
		if !ok {
			return
		}
		codec[packet.TCP]{
			decode: func(tc *packet.TCP, b []byte) error { return tc.Decode(b, s, d) },
			encode: func(tc *packet.TCP) []byte { return tc.Marshal(s, d) },
			normalize: func(tc *packet.TCP) {
				if tc.Window == 0 {
					tc.Window = 65535
				}
			},
			full: (&packet.TCP{
				SrcPort: 52001, DstPort: 80, Seq: 1, Ack: 2, Flags: packet.TCPAck | packet.TCPPsh,
				Window: 512, Options: []byte{2, 4, 5, 0xb4}, Payload: []byte("full"),
			}).Marshal(s, d),
		}.check(t, b)
	})
}
