package nat64_test

import (
	"net/netip"
	"sync"
	"testing"
	"time"

	"repro/internal/dns64"
	"repro/internal/httpsim"
	"repro/internal/nat64"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/profiles"
	"repro/internal/testbed"
)

// The fuzz targets below hold the translator to its RFC 7915 contract:
// it never panics; a v6→v4 result decodes with a valid L4 checksum
// (and an invalid one under CorruptChecksums); a reply to it, ports
// swapped, translates back to the original IPv6 endpoint with a valid
// checksum; and an inbound IPv4 packet with no live binding is refused.
// Seeds are what the gateway's NAT64 translates in a default world
// while an IPv6-only client and a CLAT client browse, ping, send UDP
// and stream: the IPv6 packets into 64:ff9b::/96 that cross the LAN
// switch, and the IPv4 packets that reach the gateway's WAN port for
// the NAT64 address.

// goldenPackets are the distinct packets of the seed world, in the
// order the gateway first saw them.
type goldenPackets struct {
	lan [][]byte // IPv6 packets into the translation prefix
	wan [][]byte // IPv4 packets to the NAT64 address
}

// golden runs the seed world once per test binary. A relay spliced into
// the WAN link shows what the internet sends the gateway.
var golden = sync.OnceValues(func() (goldenPackets, error) {
	var g goldenPackets
	tb, err := testbed.Build(testbed.DefaultTopology(testbed.DefaultOptions()))
	if err != nil {
		return g, err
	}
	defer tb.Close()
	seen := make(map[string]bool)
	keep := func(dst *[][]byte, b []byte) {
		if key := string(b); !seen[key] {
			seen[key] = true
			*dst = append(*dst, []byte(key))
		}
	}
	tb.Switch.AddFilter(func(_ int, f netsim.Frame) bool {
		var p packet.IPv6
		if f.EtherType == netsim.EtherTypeIPv6 && p.Decode(f.Payload) == nil && dns64.WellKnownPrefix.Contains(p.Dst) {
			keep(&g.lan, f.Payload)
		}
		return true
	})
	inet := tb.Internet.Host.NIC
	var gwSide, inetSide *netsim.NIC
	gwSide = tb.Net.NewNIC(netsim.FrameHandlerFunc(func(_ *netsim.NIC, f netsim.Frame) {
		f.Dst = inet.MAC()
		inetSide.Transmit(f)
	}))
	inetSide = tb.Net.NewNIC(netsim.FrameHandlerFunc(func(_ *netsim.NIC, f netsim.Frame) {
		var p packet.IPv4
		if f.EtherType == netsim.EtherTypeIPv4 && p.Decode(f.Payload) == nil && p.Dst == tb.Gateway.NAT64Public() {
			keep(&g.wan, f.Payload)
		}
		gwSide.Transmit(f)
	}))
	tb.Gateway.ConnectWAN(gwSide)
	tb.Net.Connect(inetSide, inet)

	cdn, err := dns64.Synthesize(dns64.WellKnownPrefix, testbed.StreamCDNV4)
	if err != nil {
		return g, err
	}
	v6only := tb.AddClient("seed-v6only", profiles.IPv6OnlyLinux())
	_, _ = httpsim.Browse(v6only, "http://sc24.supercomputing.org/")
	_, _ = v6only.Ping(cdn, time.Second)
	_, _ = v6only.SendUDP(cdn, 9, []byte("probe"), nil)
	_, _ = httpsim.StreamAddr(v6only, cdn, 80, testbed.StreamCDNName, "/flow/4096/2048/1", 10*time.Second)
	clat := tb.AddClient("seed-clat", profiles.Android())
	_, _ = clat.Ping(testbed.StreamCDNV4, time.Second)
	_, _ = httpsim.StreamAddr(clat, testbed.StreamCDNV4, 80, testbed.StreamCDNName, "/flow/4096/2048/1", 10*time.Second)
	tb.Net.RunFor(time.Second)
	return g, nil
})

func seeds(f *testing.F) goldenPackets {
	f.Helper()
	g, err := golden()
	if err != nil {
		f.Fatal(err)
	}
	if len(g.lan) == 0 || len(g.wan) == 0 {
		f.Fatalf("golden run gave %d LAN and %d WAN packets", len(g.lan), len(g.wan))
	}
	return g
}

// newTranslator builds a NAT64 configured as the gateway's.
func newTranslator(t testing.TB) *nat64.Translator {
	t.Helper()
	clk := time.Date(2024, 11, 17, 9, 0, 0, 0, time.UTC)
	tr, err := nat64.New(nat64.Config{
		Prefix: dns64.WellKnownPrefix, PublicV4: testbed.GatewayWANv4, PortMin: 32768, PortMax: 49151,
	}, func() time.Time { return clk })
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// l4 is a decoded transport message: its ports, or for ICMP echo the
// identifier in both.
type l4 struct {
	proto            uint8
	srcPort, dstPort uint16
	tcp              packet.TCP
	udp              packet.UDP
	icmp             packet.ICMP
}

// decodeL4 decodes and checksum-verifies the transport message of an
// IPv4 (v6 false) or IPv6 packet with the given addresses.
func decodeL4(proto uint8, b []byte, src, dst netip.Addr, v6 bool) (l4, error) {
	m := l4{proto: proto}
	var err error
	switch proto {
	case packet.ProtoUDP:
		err = m.udp.Decode(b, src, dst)
		m.srcPort, m.dstPort = m.udp.SrcPort, m.udp.DstPort
	case packet.ProtoTCP:
		err = m.tcp.Decode(b, src, dst)
		m.srcPort, m.dstPort = m.tcp.SrcPort, m.tcp.DstPort
	default:
		if v6 {
			err = m.icmp.DecodeV6(b, src, dst)
		} else {
			err = m.icmp.DecodeV4(b)
		}
		if err == nil {
			var id uint16
			if id, _, _, err = packet.EchoFields(m.icmp.Body); err == nil {
				m.srcPort, m.dstPort = id, id
			}
		}
	}
	return m, err
}

// decodeV4 encodes a translator result, decodes it again and verifies
// its transport checksum.
func decodeV4(out *packet.IPv4) (l4, error) {
	var q packet.IPv4
	if err := q.Decode(out.Marshal()); err != nil {
		return l4{}, err
	}
	return decodeL4(q.Protocol, q.Payload, q.Src, q.Dst, false)
}

// decodeV6 does the same for an IPv6 result.
func decodeV6(out *packet.IPv6) (l4, error) {
	var q packet.IPv6
	if err := q.Decode(out.Marshal()); err != nil {
		return l4{}, err
	}
	return decodeL4(q.NextHeader, q.Payload, q.Src, q.Dst, true)
}

func FuzzTranslateV6ToV4(f *testing.F) {
	for _, b := range seeds(f).lan {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var p packet.IPv6
		if p.Decode(b) != nil {
			return
		}
		tr := newTranslator(t)
		var out packet.IPv4
		if tr.TranslateV6ToV4(&p, &out) != nil {
			return
		}
		m, err := decodeV4(&out)
		if err != nil {
			t.Fatalf("translated packet does not decode: %v", err)
		}
		orig, err := decodeL4(p.NextHeader, p.Payload, p.Src, p.Dst, true)
		if err != nil {
			t.Fatalf("translator took an IPv6 packet whose transport does not decode: %v", err)
		}

		bad := newTranslator(t)
		bad.CorruptChecksums = true
		var corrupt packet.IPv4
		if err := bad.TranslateV6ToV4(&p, &corrupt); err != nil {
			t.Fatalf("corrupting translator refused the packet: %v", err)
		}
		if _, err := decodeV4(&corrupt); err == nil {
			t.Fatal("a corrupted checksum still verifies")
		}

		reply := &packet.IPv4{Protocol: out.Protocol, TTL: 64, Src: out.Dst, Dst: out.Src}
		switch out.Protocol {
		case packet.ProtoUDP:
			reply.Payload = (&packet.UDP{SrcPort: m.dstPort, DstPort: m.srcPort, Payload: m.udp.Payload}).Marshal(reply.Src, reply.Dst)
		case packet.ProtoTCP:
			reply.Payload = (&packet.TCP{SrcPort: m.dstPort, DstPort: m.srcPort, Ack: m.tcp.Seq + 1, Flags: packet.TCPAck}).Marshal(reply.Src, reply.Dst)
		default:
			reply.Payload = (&packet.ICMP{Type: packet.ICMPv4EchoReply, Body: m.icmp.Body}).MarshalV4()
		}
		var back packet.IPv6
		if err := tr.TranslateV4ToV6(reply, &back); err != nil {
			t.Fatalf("reply refused: %v", err)
		}
		r, err := decodeV6(&back)
		if err != nil {
			t.Fatalf("translated reply does not decode: %v", err)
		}
		if back.Dst != p.Src || r.dstPort != orig.srcPort {
			t.Fatalf("reply reached %v port %d, want %v port %d", back.Dst, r.dstPort, p.Src, orig.srcPort)
		}
	})
}

// endpoint is an inside IPv6 endpoint.
type endpoint struct {
	addr netip.Addr
	port uint16
}

// extKey is an external (protocol, port) pair.
type extKey struct {
	proto uint8
	port  uint16
}

// replay opens the golden LAN flows on a fresh translator configured as
// the gateway's, so they take the ports they took in the golden world,
// and returns it with the inside endpoint bound to each external port.
func replay(t testing.TB, lan [][]byte) (*nat64.Translator, map[extKey]endpoint) {
	t.Helper()
	tr := newTranslator(t)
	bound := make(map[extKey]endpoint)
	for _, b := range lan {
		var p packet.IPv6
		var out packet.IPv4
		if p.Decode(b) != nil || tr.TranslateV6ToV4(&p, &out) != nil {
			continue
		}
		in, err1 := decodeL4(p.NextHeader, p.Payload, p.Src, p.Dst, true)
		m, err2 := decodeV4(&out)
		if err1 != nil || err2 != nil {
			t.Fatalf("golden packet translated but does not decode: %v, %v", err1, err2)
		}
		bound[extKey{out.Protocol, m.srcPort}] = endpoint{p.Src, in.srcPort}
	}
	return tr, bound
}

// inboundKey returns the external (protocol, port) an IPv4 packet
// addresses, when it is a UDP datagram, TCP segment or echo reply that
// decodes.
func inboundKey(p *packet.IPv4) (extKey, bool) {
	m, err := decodeL4(p.Protocol, p.Payload, p.Src, p.Dst, false)
	if err != nil || (p.Protocol == packet.ProtoICMP && m.icmp.Type != packet.ICMPv4EchoReply) {
		return extKey{}, false
	}
	return extKey{p.Protocol, m.dstPort}, true
}

// holdsBinding reports whether addr is the inside address of a binding.
func holdsBinding(bound map[extKey]endpoint, addr netip.Addr) bool {
	for _, e := range bound {
		if e.addr == addr {
			return true
		}
	}
	return false
}

func FuzzTranslateV4ToV6(f *testing.F) {
	g := seeds(f)
	_, bound := replay(f, g.lan)
	hits := 0
	for _, b := range g.wan {
		var p packet.IPv4
		if p.Decode(b) == nil {
			if k, ok := inboundKey(&p); ok && bound[k] != (endpoint{}) {
				hits++
			}
		}
		f.Add(b)
	}
	if hits == 0 {
		f.Fatal("no golden WAN packet reaches a replayed binding")
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var p packet.IPv4
		if p.Decode(b) != nil {
			return
		}
		tr, bound := replay(t, g.lan)
		var out packet.IPv6
		err := tr.TranslateV4ToV6(&p, &out)
		k, addressed := inboundKey(&p)
		ep, live := bound[k]
		if p.Dst != testbed.GatewayWANv4 || (addressed && !live) {
			if err == nil {
				t.Fatalf("accepted a packet for %v %+v, which has no live binding", p.Dst, k)
			}
			return
		}
		if err != nil {
			return
		}
		m, err := decodeV6(&out)
		if err != nil {
			t.Fatalf("translated packet does not decode: %v", err)
		}
		if addressed && (out.Dst != ep.addr || m.dstPort != ep.port) {
			t.Fatalf("binding %+v delivered to %v port %d, want %v port %d", k, out.Dst, m.dstPort, ep.addr, ep.port)
		}
		if !addressed && !holdsBinding(bound, out.Dst) {
			t.Fatalf("ICMP error delivered to %v, which holds no binding", out.Dst)
		}
		if !dns64.WellKnownPrefix.Contains(out.Src) {
			t.Fatalf("source %v is outside the translation prefix", out.Src)
		}
	})
}
