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
// session, then refreshes it, opens a second one and restores: the log,
// the counters and the session table must come back (the table's own
// copy is pinned in package napt), so a second round gives the same
// result.
func TestRestoreRewindsSessions(t *testing.T) {
	clk := newClock()
	tr := newT(t, clk)
	if _, err := translateOut(tr, udp4(inside, remote, 5000, 80, "a")); err != nil {
		t.Fatal(err)
	}
	tr.Checkpoint()
	var second uint16
	for round := 1; round <= 2; round++ {
		clk.t = clk.t.Add(time.Minute)
		for _, sport := range []uint16{5000, 5001} {
			out, err := translateOut(tr, udp4(inside, remote, sport, 80, "b"))
			if err != nil {
				t.Fatal(err)
			}
			var u packet.UDP
			if err := u.Decode(out.Payload, out.Src, out.Dst); err != nil {
				t.Fatal(err)
			}
			if sport == 5001 && round == 1 {
				second = u.SrcPort
			} else if sport == 5001 && u.SrcPort != second {
				t.Fatalf("round %d: second flow got port %d, want %d again", round, u.SrcPort, second)
			}
		}
		tr.Restore()
		if len(tr.Log) != 1 || tr.Translated != 1 || tr.SessionCount() != 1 {
			t.Fatalf("round %d: after Restore %d log entries, %d translated, %d sessions; want 1 each",
				round, len(tr.Log), tr.Translated, tr.SessionCount())
		}
	}
}

// TestPortWrapKeepsReopenedBinding is the port-wrap regression: on
// ports 40000–40002, binding A opens and expires, its inside endpoint
// re-opens as B, another client takes 40002, and a new flow wraps onto
// A's port. B must keep its binding: its next packet reuses B's port,
// three sessions stay live and the log holds one line per binding.
func TestPortWrapKeepsReopenedBinding(t *testing.T) {
	clk := newClock()
	tr := newT(t, clk)
	if err := tr.SetPortRange(40000, 40002); err != nil {
		t.Fatal(err)
	}
	other := netip.MustParseAddr("192.168.12.102")
	open := func(src netip.Addr, sport uint16) uint16 {
		t.Helper()
		out, err := translateOut(tr, udp4(src, remote, sport, 80, "x"))
		if err != nil {
			t.Errorf("%v:%d: %v", src, sport, err)
			return 0
		}
		var u packet.UDP
		if err := u.Decode(out.Payload, out.Src, out.Dst); err != nil {
			t.Fatal(err)
		}
		return u.SrcPort
	}
	open(inside, 5000) // A on 40000
	clk.t = clk.t.Add(6 * time.Minute)
	b := open(inside, 5000) // B
	open(other, 6000)
	if p := open(other, 6001); p != 40000 {
		t.Fatalf("wrapping flow got port %d, want A's port 40000", p)
	}
	if p := open(inside, 5000); p != b {
		t.Errorf("B's next packet left on port %d, want B's port %d", p, b)
	}
	if n := tr.SessionCount(); n != 3 {
		t.Errorf("SessionCount = %d, want 3", n)
	}
	if len(tr.Log) != 4 {
		t.Errorf("%d log entries, want 4 (A, B and two more bindings)", len(tr.Log))
	}
}
