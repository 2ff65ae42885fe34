package nat64

import (
	"errors"
	"net/netip"
	"testing"
	"time"

	"repro/internal/dns64"
	"repro/internal/nat64/napt"
	"repro/internal/packet"
)

// TestPerSourceQuotaRefusal pins the nat64-port-exhaustion mechanism:
// with MaxSessionsPerSource set, a source's first flow binds, its
// concurrent second flow is refused with ErrPortsExhausted, the refusal
// is counted, and a *different* source still binds — the quota is
// per-subscriber, not global.
func TestPerSourceQuotaRefusal(t *testing.T) {
	clk := newClock()
	tr := newT(t, clk)
	tr.MaxSessionsPerSource = 1

	if _, err := v6ToV4(tr, udp6(t, clientV6, 5000, 53, serverV4, "a")); err != nil {
		t.Fatalf("first flow: %v", err)
	}
	// The same flow refreshed is not a new session.
	if _, err := v6ToV4(tr, udp6(t, clientV6, 5000, 53, serverV4, "a2")); err != nil {
		t.Fatalf("same-flow refresh: %v", err)
	}
	if _, err := v6ToV4(tr, udp6(t, clientV6, 5001, 53, serverV4, "b")); !errors.Is(err, ErrPortsExhausted) {
		t.Fatalf("second concurrent flow: err = %v, want ErrPortsExhausted", err)
	}
	if tr.PortsExhausted != 1 {
		t.Fatalf("PortsExhausted = %d, want 1", tr.PortsExhausted)
	}

	other := netip.MustParseAddr("2607:fb90:9bda:a425::51")
	if _, err := v6ToV4(tr, udp6(t, other, 5000, 53, serverV4, "c")); err != nil {
		t.Fatalf("other source blocked by a per-source quota: %v", err)
	}

	// Recovery rides expiry: once the first session idles out, the same
	// source binds again.
	clk.t = clk.t.Add(tr.table.Timeouts().UDP + time.Second)
	if _, err := v6ToV4(tr, udp6(t, clientV6, 5001, 53, serverV4, "d")); err != nil {
		t.Fatalf("post-expiry flow: %v", err)
	}
}

// TestPortPoolExhaustionCounted pins the second refusal site: a full
// external pool (the table's Open finding no free port) also
// increments PortsExhausted.
func TestPortPoolExhaustionCounted(t *testing.T) {
	clk := newClock()
	tr, err := New(Config{
		Prefix: dns64.WellKnownPrefix, PublicV4: publicV4,
		PortMin: 40000, PortMax: 40001,
	}, clk.now)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := v6ToV4(tr, udp6(t, clientV6, uint16(5000+i), 53, serverV4, "x")); err != nil {
			t.Fatalf("flow %d: %v", i, err)
		}
	}
	if _, err := v6ToV4(tr, udp6(t, clientV6, 5002, 53, serverV4, "x")); !errors.Is(err, ErrPortsExhausted) {
		t.Fatalf("pool overflow: err = %v, want ErrPortsExhausted", err)
	}
	if tr.PortsExhausted != 1 {
		t.Fatalf("PortsExhausted = %d, want 1", tr.PortsExhausted)
	}
}

// TestSetPortRange pins the Budget hook's contract: validation of the
// bounds, and the cursor restarting at the new minimum.
func TestSetPortRange(t *testing.T) {
	clk := newClock()
	tr := newT(t, clk)
	if err := tr.SetPortRange(0, 100); err == nil {
		t.Error("min 0 accepted")
	}
	if err := tr.SetPortRange(200, 100); err == nil {
		t.Error("inverted range accepted")
	}
	if err := tr.SetPortRange(40000, 40003); err != nil {
		t.Fatal(err)
	}
	out, err := v6ToV4(tr, udp6(t, clientV6, 5000, 53, serverV4, "x"))
	if err != nil {
		t.Fatal(err)
	}
	if p := extPortOf(t, out); p != 40000 {
		t.Fatalf("first allocation after SetPortRange = %d, want 40000", p)
	}
}

// TestSetSessionTimeout pins the one timeout knob: a zero or negative
// timeout keeps the four RFC 6146 defaults, and a positive one sets
// all four, in New and in SetSessionTimeout alike.
func TestSetSessionTimeout(t *testing.T) {
	clk := newClock()
	tr := newT(t, clk)
	if got := tr.table.Timeouts(); got != defaultTimeouts {
		t.Errorf("default timeouts = %+v, want %+v", got, defaultTimeouts)
	}
	if got := tr.Config().SessionTimeout; got != 0 {
		t.Errorf("Config().SessionTimeout = %v under the defaults, want 0", got)
	}
	for _, d := range []time.Duration{0, -time.Second} {
		tr.SetSessionTimeout(d)
		if got := tr.table.Timeouts(); got != defaultTimeouts {
			t.Errorf("SetSessionTimeout(%v) changed the timeouts to %+v", d, got)
		}
	}
	all := napt.Timeouts{UDP: 5 * time.Second, TCP: 5 * time.Second, ICMP: 5 * time.Second, TCPTrans: 5 * time.Second}
	tr.SetSessionTimeout(5 * time.Second)
	if got := tr.table.Timeouts(); got != all {
		t.Errorf("SetSessionTimeout(5s) timeouts = %+v, want %+v", got, all)
	}
	if got := tr.Config().SessionTimeout; got != 5*time.Second {
		t.Errorf("Config().SessionTimeout = %v, want 5s", got)
	}

	cfg := tr.Config()
	cfg.SessionTimeout = time.Minute
	built, err := New(cfg, clk.now)
	if err != nil {
		t.Fatal(err)
	}
	if got := built.Config(); got != cfg {
		t.Errorf("New(%+v).Config() = %+v", cfg, got)
	}
}

// TestFlushPreservesPortCursor is the reuse-avoidance property, pinned
// deterministically: FlushSessions drops all bindings but must NOT
// reset the allocation cursor — external peers may associate pre-flush
// ports with dead sessions for minutes (RFC 6146 §3.5.1.1), so fresh
// allocations keep walking forward until the pool forces a wrap.
func TestFlushPreservesPortCursor(t *testing.T) {
	clk := newClock()
	tr, err := New(Config{
		Prefix: dns64.WellKnownPrefix, PublicV4: publicV4,
		PortMin: 40000, PortMax: 40007,
	}, clk.now)
	if err != nil {
		t.Fatal(err)
	}
	pre := make(map[uint16]bool)
	for i := 0; i < 5; i++ {
		out, err := v6ToV4(tr, udp6(t, clientV6, uint16(5000+i), 53, serverV4, "x"))
		if err != nil {
			t.Fatal(err)
		}
		pre[extPortOf(t, out)] = true
	}
	tr.FlushSessions() // gateway reboot
	for i := 0; i < 3; i++ {
		out, err := v6ToV4(tr, udp6(t, clientV6, uint16(6000+i), 53, serverV4, "y"))
		if err != nil {
			t.Fatal(err)
		}
		if p := extPortOf(t, out); pre[p] {
			t.Fatalf("post-flush allocation reissued pre-flush port %d", p)
		}
	}
}

// extPortOf extracts the external source port the translator stamped on
// an outbound UDP packet.
func extPortOf(t *testing.T, out *packet.IPv4) uint16 {
	t.Helper()
	var u packet.UDP
	err := u.Decode(out.Payload, out.Src, out.Dst)
	if err != nil {
		t.Fatal(err)
	}
	return u.SrcPort
}
