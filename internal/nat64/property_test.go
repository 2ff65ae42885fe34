package nat64

import (
	"net/netip"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/dns64"
	"repro/internal/packet"
)

// Property: across any sequence of outbound flows, no two live sessions
// ever share an external (proto, port) pair, and every flow maps back to
// itself (the RFC 6146 binding invariants).
func TestSessionTableInvariants(t *testing.T) {
	f := func(flowSpecs []uint32) bool {
		clk := newClock()
		tr, err := New(Config{
			Prefix: dns64.WellKnownPrefix, PublicV4: publicV4,
			PortMin: 40000, PortMax: 40127,
		}, clk.now)
		if err != nil {
			return false
		}
		if len(flowSpecs) > 200 {
			flowSpecs = flowSpecs[:200]
		}
		type flow struct {
			src   netip.Addr
			sport uint16
		}
		extOf := make(map[flow]uint16)
		for _, spec := range flowSpecs {
			// Derive a client and source port from the spec (64 clients,
			// 128 ports — collisions intentional to exercise reuse).
			cb := clientV6.As16()
			cb[15] = byte(spec % 64)
			src := netip.AddrFrom16(cb)
			sport := uint16(1024 + spec%128)

			out, err := tr.TranslateV6ToV4(udp6ForProp(src, sport))
			if err == ErrPortsExhausted {
				continue // acceptable under a 128-port pool
			}
			if err != nil {
				return false
			}
			var u packet.UDP
			err = u.Decode(out.Payload, out.Src, out.Dst)
			if err != nil {
				return false
			}
			key := flow{src: src, sport: sport}
			if prev, seen := extOf[key]; seen && prev != u.SrcPort {
				return false // same flow remapped to a different port
			}
			extOf[key] = u.SrcPort
		}
		// No two distinct flows share an external port.
		rev := make(map[uint16]flow)
		for fl, ext := range extOf {
			if other, dup := rev[ext]; dup && other != fl {
				return false
			}
			rev[ext] = fl
		}
		// Live session count matches distinct flows (nothing expired).
		return tr.SessionCount() == len(extOf)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func udp6ForProp(src netip.Addr, sport uint16) *packet.IPv6 {
	dst, _ := dns64.Synthesize(dns64.WellKnownPrefix, serverV4)
	return &packet.IPv6{
		NextHeader: packet.ProtoUDP, HopLimit: 64, Src: src, Dst: dst,
		Payload: (&packet.UDP{SrcPort: sport, DstPort: 53, Payload: []byte("p")}).Marshal(src, dst),
	}
}

// Property: after expiry, ports are reusable and the count drops to the
// newly created sessions only.
func TestExpiryReleasesAllPorts(t *testing.T) {
	clk := newClock()
	tr, err := New(Config{Prefix: dns64.WellKnownPrefix, PublicV4: publicV4, PortMin: 41000, PortMax: 41003}, clk.now)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := tr.TranslateV6ToV4(udp6ForProp(clientV6, uint16(2000+i))); err != nil {
			t.Fatal(err)
		}
	}
	clk.t = clk.t.Add(DefaultUDPTimeout + time.Second)
	for i := 0; i < 4; i++ {
		if _, err := tr.TranslateV6ToV4(udp6ForProp(clientV6, uint16(3000+i))); err != nil {
			t.Fatalf("port not released: %v", err)
		}
	}
	if tr.SessionCount() != 4 {
		t.Errorf("sessions = %d, want 4 live", tr.SessionCount())
	}
}
