package napt

import (
	"net/netip"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/packet"
)

var (
	inside = netip.MustParseAddr("2607:fb90:9bda:a425::50")
	other  = netip.MustParseAddr("2607:fb90:9bda:a425::51")
)

type clock struct{ t time.Time }

func newClock() *clock          { return &clock{t: time.Date(2024, 11, 17, 9, 0, 0, 0, time.UTC)} }
func (c *clock) now() time.Time { return c.t }

var idle = Timeouts{UDP: 5 * time.Minute, TCP: 2 * time.Hour, ICMP: time.Minute, TCPTrans: 4 * time.Minute}

func newTable(t *testing.T, clk *clock, portMin, portMax uint16) *Table {
	t.Helper()
	tb, err := New(portMin, portMax, idle, clk.now)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// checkShared fails unless every outbound entry's binding is also the
// inbound entry for its external port: the rule copyInto relies on to
// copy each binding once and share the copy between both entries.
func checkShared(t *testing.T, tb *Table) {
	t.Helper()
	for k, b := range tb.out {
		if in := tb.in[extPort{k.proto, b.ExtPort}]; in != b {
			t.Fatalf("outbound binding %+v has inbound entry %+v", *b, in)
		}
	}
}

// portsInUse returns the external ports of the table's live bindings.
func portsInUse(tb *Table) map[uint16]bool {
	out := make(map[uint16]bool)
	now := tb.now()
	for _, b := range tb.out {
		if !tb.expired(b, now) {
			out[b.ExtPort] = true
		}
	}
	return out
}

// TestRestoreRewindsSessions checkpoints a table holding a live
// binding, then refreshes it, opens a second one and restores: the
// maps and the cursor must come back, the binding shared by its
// outbound and inbound entry, and the saved copy untouched by the
// refresh, so a second Restore gives the same result.
func TestRestoreRewindsSessions(t *testing.T) {
	clk := newClock()
	tb := newTable(t, clk, 40000, 40009)
	if tb.Open(packet.ProtoUDP, inside, 5000) == nil {
		t.Fatal("Open failed on an empty table")
	}
	tb.Checkpoint()
	k := endpoint{packet.ProtoUDP, inside, 5000}
	want := *tb.out[k]

	for round := 1; round <= 2; round++ {
		clk.t = clk.t.Add(time.Minute)
		if tb.Lookup(packet.ProtoUDP, inside, 5000) == nil || tb.Open(packet.ProtoUDP, inside, 5001) == nil {
			t.Fatalf("round %d: refresh or second Open failed", round)
		}
		tb.Restore()
		if len(tb.out) != 1 || len(tb.in) != 1 || tb.next != 40001 {
			t.Fatalf("round %d: after Restore %d outbound, %d inbound, cursor %d; want 1, 1, 40001",
				round, len(tb.out), len(tb.in), tb.next)
		}
		if b := tb.out[k]; *b != want {
			t.Fatalf("round %d: binding after Restore = %+v, want %+v", round, *b, want)
		}
		checkShared(t, tb)
	}
}

// TestOpenWrapKeepsReopenedBinding wraps the cursor onto the ports of
// two expired bindings: A, whose inside endpoint has re-opened as B
// under another port, and E, whose endpoint has not. A's outbound entry
// belongs to B and must stay; E's must go with E.
func TestOpenWrapKeepsReopenedBinding(t *testing.T) {
	clk := newClock()
	tb := newTable(t, clk, 40000, 40002)
	tb.Open(packet.ProtoUDP, inside, 5000) // A on 40000
	tb.Open(packet.ProtoUDP, other, 7000)  // E on 40001
	clk.t = clk.t.Add(idle.UDP + time.Second)
	b := tb.Open(packet.ProtoUDP, inside, 5000) // B on 40002
	for _, want := range []uint16{40000, 40001} {
		if d := tb.Open(packet.ProtoUDP, other, want); d == nil || d.ExtPort != want {
			t.Fatalf("wrapping Open = %+v, want port %d", d, want)
		}
	}
	if got := tb.Lookup(packet.ProtoUDP, inside, 5000); got != b {
		t.Fatalf("re-opened endpoint looks up %+v, want its live binding %+v", got, *b)
	}
	if n := tb.Live(netip.Addr{}); n != 3 {
		t.Fatalf("Live = %d, want 3", n)
	}
	checkShared(t, tb)
}

// TestPortReuseAvoidanceProperty: under any interleaving of flow bursts
// and flushes against a near-full range, a port is never handed to a
// new binding while a binding created before the most recent flush
// could still be keyed to it by the peer — post-flush allocations avoid
// every pre-flush port until the cursor has consumed every never-used
// port in the range.
func TestPortReuseAvoidanceProperty(t *testing.T) {
	const poolMin, poolMax = 40000, 40015 // 16 ports
	f := func(ops []uint8) bool {
		tb, err := New(poolMin, poolMax, idle, newClock().now)
		if err != nil {
			return false
		}
		if len(ops) > 64 {
			ops = ops[:64]
		}
		sport := uint16(5000)
		preFlush := make(map[uint16]bool) // ports live at the last flush
		issuedSince := 0                  // allocations since the last flush
		for _, op := range ops {
			if op%8 == 0 {
				// Flush: every currently-issued port becomes one a peer
				// may still hold state for.
				for p := range portsInUse(tb) {
					preFlush[p] = true
				}
				tb.Flush()
				issuedSince = 0
				continue
			}
			sport++
			b := tb.Open(packet.ProtoUDP, inside, sport)
			if b == nil {
				continue
			}
			issuedSince++
			// The range has 16 ports; until 16 allocations have happened
			// since the flush, the cursor cannot have wrapped, so no
			// pre-flush port may reappear.
			if issuedSince <= poolMax-poolMin+1-len(preFlush) && preFlush[b.ExtPort] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestTimeoutsPerProtocol pins the expiry rule: each protocol idles out
// after its own timeout, and a closing TCP binding after TCPTrans.
func TestTimeoutsPerProtocol(t *testing.T) {
	clk := newClock()
	tb := newTable(t, clk, 40000, 40009)
	start := clk.t
	tcp := tb.Open(packet.ProtoTCP, inside, 1)
	closing := tb.Open(packet.ProtoTCP, inside, 2)
	closing.Closing = true
	tb.Open(packet.ProtoUDP, inside, 3)
	tb.Open(packet.ProtoICMP, inside, 4)
	for _, c := range []struct {
		after time.Duration
		live  int
	}{
		{idle.ICMP, 4}, {idle.ICMP + time.Second, 3},
		{idle.TCPTrans + time.Second, 2}, {idle.UDP + time.Second, 1},
		{idle.TCP + time.Second, 0},
	} {
		clk.t = start.Add(c.after)
		if n := tb.Live(netip.Addr{}); n != c.live {
			t.Errorf("after %v: %d live bindings, want %d", c.after, n, c.live)
		}
	}
	if tcp.LastSeen != start {
		t.Error("Live refreshed a binding")
	}
}

// TestLookupRefreshes pins that both lookups keep a binding alive: a
// binding used within every idle period never expires.
func TestLookupRefreshes(t *testing.T) {
	clk := newClock()
	tb := newTable(t, clk, 40000, 40009)
	b := tb.Open(packet.ProtoUDP, inside, 5000)
	for _, lookup := range []func() *Binding{
		func() *Binding { return tb.Lookup(packet.ProtoUDP, inside, 5000) },
		func() *Binding { return tb.Inbound(packet.ProtoUDP, b.ExtPort) },
	} {
		for i := 0; i < 3; i++ {
			clk.t = clk.t.Add(idle.UDP - time.Second)
			if lookup() != b {
				t.Fatalf("binding expired while in use, %v after its last lookup", idle.UDP-time.Second)
			}
		}
	}
	clk.t = clk.t.Add(idle.UDP + time.Second)
	if tb.Lookup(packet.ProtoUDP, inside, 5000) != nil || tb.Inbound(packet.ProtoUDP, b.ExtPort) != nil {
		t.Fatal("idle binding still found")
	}
}

// TestFlushDropsBindings pins a power cycle: no binding survives in
// either direction, and the cursor carries on past the flushed ports.
func TestFlushDropsBindings(t *testing.T) {
	tb := newTable(t, newClock(), 40000, 40009)
	b := tb.Open(packet.ProtoUDP, inside, 5000)
	tb.Flush()
	if tb.Live(netip.Addr{}) != 0 || tb.Lookup(packet.ProtoUDP, inside, 5000) != nil || tb.Inbound(packet.ProtoUDP, b.ExtPort) != nil {
		t.Fatal("a binding survived Flush")
	}
	if again := tb.Open(packet.ProtoUDP, inside, 5000); again.ExtPort != b.ExtPort+1 {
		t.Fatalf("first post-flush port %d, want %d", again.ExtPort, b.ExtPort+1)
	}
}
