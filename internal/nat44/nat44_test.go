package nat44

import (
	"bytes"
	"net/netip"
	"testing"
	"time"

	"repro/internal/packet"
)

var (
	inside = netip.MustParseAddr("192.168.12.101")
	public = netip.MustParseAddr("198.51.100.1")
	remote = netip.MustParseAddr("93.184.216.34")
)

type clock struct{ t time.Time }

func newClock() *clock          { return &clock{t: time.Date(2024, 11, 17, 9, 0, 0, 0, time.UTC)} }
func (c *clock) now() time.Time { return c.t }

func newT(t *testing.T, clk *clock) *Translator {
	t.Helper()
	tr, err := New(public, clk.now)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func udp4(src, dst netip.Addr, sport, dport uint16, payload string) *packet.IPv4 {
	return &packet.IPv4{
		Protocol: packet.ProtoUDP, TTL: 64, Src: src, Dst: dst,
		Payload: (&packet.UDP{SrcPort: sport, DstPort: dport, Payload: []byte(payload)}).Marshal(src, dst),
	}
}

// translateOut and translateIn translate into a fresh result whose
// payload is copied out of the translator's scratch, so a test can hold
// it across later calls.
func translateOut(tr *Translator, p *packet.IPv4) (*packet.IPv4, error) {
	var out packet.IPv4
	if err := tr.TranslateOut(p, &out); err != nil {
		return nil, err
	}
	out.Payload = bytes.Clone(out.Payload)
	return &out, nil
}

func translateIn(tr *Translator, p *packet.IPv4) (*packet.IPv4, error) {
	var out packet.IPv4
	if err := tr.TranslateIn(p, &out); err != nil {
		return nil, err
	}
	out.Payload = bytes.Clone(out.Payload)
	return &out, nil
}

func TestNAPTRoundTrip(t *testing.T) {
	tr := newT(t, newClock())
	out, err := translateOut(tr, udp4(inside, remote, 5000, 80, "req"))
	if err != nil {
		t.Fatal(err)
	}
	if out.Src != public || out.Dst != remote {
		t.Fatalf("out header: %+v", out)
	}
	var u packet.UDP
	err = u.Decode(out.Payload, out.Src, out.Dst)
	if err != nil {
		t.Fatal(err)
	}

	back, err := translateIn(tr, udp4(remote, public, 80, u.SrcPort, "resp"))
	if err != nil {
		t.Fatal(err)
	}
	if back.Dst != inside {
		t.Fatalf("reply dst = %v", back.Dst)
	}
	var u2 packet.UDP
	err = u2.Decode(back.Payload, back.Src, back.Dst)
	if err != nil {
		t.Fatal(err)
	}
	if u2.DstPort != 5000 || string(u2.Payload) != "resp" {
		t.Errorf("reply udp = %+v", u2)
	}
}

func TestTranslationLogM2131(t *testing.T) {
	tr := newT(t, newClock())
	// Two packets of one flow -> exactly one log entry.
	translateOut(tr, udp4(inside, remote, 5000, 80, "a"))
	translateOut(tr, udp4(inside, remote, 5000, 80, "b"))
	// A second flow -> a second entry.
	translateOut(tr, udp4(inside, remote, 5001, 80, "c"))

	if len(tr.Log) != 2 {
		t.Fatalf("log entries = %d, want 2 (one per session)", len(tr.Log))
	}
	e := tr.Log[0]
	if e.Inside != inside || e.Outside != public || e.Dst != remote || e.InPort != 5000 || e.DstPort != 80 {
		t.Errorf("log entry = %+v", e)
	}
	if e.OutPort == 0 {
		t.Error("log entry missing external port")
	}
}

func TestInboundUnknownDropped(t *testing.T) {
	tr := newT(t, newClock())
	if _, err := translateIn(tr, udp4(remote, public, 80, 44444, "x")); err != ErrNoSession {
		t.Errorf("err = %v, want ErrNoSession", err)
	}
	if _, err := translateIn(tr, udp4(remote, netip.MustParseAddr("198.51.100.2"), 80, 44444, "x")); err != ErrNoSession {
		t.Errorf("wrong-destination err = %v", err)
	}
	if tr.Dropped != 2 {
		t.Errorf("Dropped = %d", tr.Dropped)
	}
}

func TestICMPEchoTranslation(t *testing.T) {
	tr := newT(t, newClock())
	ping := &packet.IPv4{
		Protocol: packet.ProtoICMP, TTL: 64, Src: inside, Dst: remote,
		Payload: (&packet.ICMP{Type: packet.ICMPv4Echo, Body: packet.EchoBody(99, 3, []byte("hi"))}).MarshalV4(),
	}
	out, err := translateOut(tr, ping)
	if err != nil {
		t.Fatal(err)
	}
	var ic packet.ICMP
	_ = ic.DecodeV4(out.Payload)
	extID, seq, _, _ := packet.EchoFields(ic.Body)
	if seq != 3 {
		t.Errorf("seq = %d", seq)
	}

	pong := &packet.IPv4{
		Protocol: packet.ProtoICMP, TTL: 60, Src: remote, Dst: public,
		Payload: (&packet.ICMP{Type: packet.ICMPv4EchoReply, Body: packet.EchoBody(extID, 3, []byte("hi"))}).MarshalV4(),
	}
	back, err := translateIn(tr, pong)
	if err != nil {
		t.Fatal(err)
	}
	var ic2 packet.ICMP
	_ = ic2.DecodeV4(back.Payload)
	id, _, _, _ := packet.EchoFields(ic2.Body)
	if id != 99 || back.Dst != inside {
		t.Errorf("identifier %d dst %v", id, back.Dst)
	}
}

func TestSessionExpiryDropsInbound(t *testing.T) {
	clk := newClock()
	tr := newT(t, clk)
	out, _ := translateOut(tr, udp4(inside, remote, 5000, 80, "x"))
	var u packet.UDP
	_ = u.Decode(out.Payload, out.Src, out.Dst)

	clk.t = clk.t.Add(6 * time.Minute)
	if _, err := translateIn(tr, udp4(remote, public, 80, u.SrcPort, "late")); err != ErrNoSession {
		t.Errorf("expired session still accepts inbound: %v", err)
	}
	if tr.SessionCount() != 0 {
		t.Errorf("sessions = %d", tr.SessionCount())
	}
}

func TestManyClientsShareOnePublicAddress(t *testing.T) {
	// The paper's Docker Hub rate-limit motivation: N inside hosts all
	// appear as the single public address.
	tr := newT(t, newClock())
	seen := map[netip.Addr]bool{}
	for i := 0; i < 20; i++ {
		src := netip.AddrFrom4([4]byte{192, 168, 12, byte(50 + i)})
		out, err := translateOut(tr, udp4(src, remote, 6000, 443, "pull"))
		if err != nil {
			t.Fatal(err)
		}
		seen[out.Src] = true
	}
	if len(seen) != 1 || !seen[public] {
		t.Errorf("outside sources = %v, want only %v", seen, public)
	}
	if len(tr.Log) != 20 {
		t.Errorf("log entries = %d, want 20", len(tr.Log))
	}
}

func TestUnsupportedProtocol(t *testing.T) {
	tr := newT(t, newClock())
	p := &packet.IPv4{Protocol: 47 /* GRE */, TTL: 64, Src: inside, Dst: remote}
	if _, err := translateOut(tr, p); err == nil {
		t.Error("GRE accepted")
	}
}

func TestNewRejectsV6Public(t *testing.T) {
	if _, err := New(netip.MustParseAddr("::1"), newClock().now); err == nil {
		t.Error("IPv6 public address accepted")
	}
}

// TestRestoreRewindsSessions checkpoints a translator holding a live
// session, then refreshes it, opens a second one and restores: the
// tables, log and counters must come back, each session shared by its
// outbound and inbound entry, and the saved copy untouched by the
// refresh, so a second Restore gives the same result.
func TestRestoreRewindsSessions(t *testing.T) {
	clk := newClock()
	tr := newT(t, clk)
	if _, err := translateOut(tr, udp4(inside, remote, 5000, 80, "a")); err != nil {
		t.Fatal(err)
	}
	tr.Checkpoint()
	k := key{proto: packet.ProtoUDP, src: inside, port: 5000}
	want := *tr.outbound[k]

	for round := 1; round <= 2; round++ {
		clk.t = clk.t.Add(time.Minute)
		for _, sport := range []uint16{5000, 5001} {
			if _, err := translateOut(tr, udp4(inside, remote, sport, 80, "b")); err != nil {
				t.Fatal(err)
			}
		}
		tr.Restore()
		if len(tr.outbound) != 1 || len(tr.inbound) != 1 || len(tr.Log) != 1 || tr.Translated != 1 {
			t.Fatalf("round %d: after Restore %d outbound, %d inbound, %d log entries, %d translated; want 1 each",
				round, len(tr.outbound), len(tr.inbound), len(tr.Log), tr.Translated)
		}
		s := tr.outbound[k]
		if *s != want {
			t.Fatalf("round %d: session after Restore = %+v, want %+v", round, *s, want)
		}
		if tr.inbound[extKey{proto: packet.ProtoUDP, port: s.extPort}] != s {
			t.Fatalf("round %d: the inbound entry does not share the outbound entry's session", round)
		}
	}
}
