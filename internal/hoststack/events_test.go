package hoststack

import (
	"fmt"
	"math"
	"net/netip"
	"slices"
	"testing"
	"time"

	"repro/internal/ndp"
)

// TestEventJournalRendersLikeFmt records every event kind with edge-case
// operands and checks that Events renders each one exactly as
// fmt.Sprintf renders the kind's format with the same operands. Most
// kinds never appear in a golden output, so this is their only pin.
func TestEventJournalRendersLikeFmt(t *testing.T) {
	v4 := netip.MustParseAddr("192.168.12.34")
	v6 := netip.MustParseAddr("2607:fb90:9bda:a425:a8bb:ccff:fedd:eeff")
	mapped := netip.MustParseAddr("::ffff:192.0.2.1")
	var invalid netip.Addr
	pref64 := netip.MustParsePrefix("64:ff9b::/96")
	badPrefix := netip.PrefixFrom(v4, 33) // more bits than the family has
	cases := []struct {
		kind eventKind
		args []any
	}{
		{evIPv4Static, []any{v4, 24, v4}},
		{evIPv4Static, []any{invalid, 0, mapped}},
		{evIPv6Static, []any{v6, 64}},
		{evIPv6Static, []any{mapped, 128}},
		{evRouter, []any{netip.MustParseAddr("fe80::1"), ndp.PrefHigh}},
		{evRouter, []any{mapped, ndp.PrefLow}},
		{evRouter, []any{v6, ndp.RouterPreference(2)}}, // the reserved value
		{evDeprecatedPIO, []any{v6}},
		{evDeprecatedPIO, []any{mapped}},
		{evRePreferred, []any{v6}},
		{evSLAAC, []any{v6, netip.MustParseAddr("fe80::1")}},
		{evSLAAC, []any{mapped, invalid}},
		{evPREF64, []any{pref64}},
		{evPREF64, []any{badPrefix}},
		{evPREF64, []any{netip.Prefix{}}},
		{evRDNSS, []any{v4}},
		{evRDNSS, []any{mapped}},
		{evAddrExpired, []any{invalid}},
		{evDeprecatedExpired, []any{v6}},
		{evTCPUnreachable, []any{v6, uint16(0), uint8(0)}},
		{evTCPUnreachable, []any{mapped, uint16(math.MaxUint16), uint8(math.MaxUint8)}},
		{evDHCPDiscover, []any{uint32(0), false}},
		{evDHCPDiscover, []any{uint32(math.MaxUint32), true}},
		{evDHCPGaveUp, []any{9}},
		{evDHCPDiscoverRetry, []any{math.MaxInt}},
		{evDHCPRequestAbandoned, []any{math.MinInt}},
		{evDHCPRequestRetry, []any{0}},
		{evDHCPV6Only, []any{time.Duration(0)}},
		{evDHCPV6Only, []any{time.Duration(math.MaxInt64)}},
		{evDHCPV6Only, []any{time.Duration(math.MinInt64)}},
		{evDHCPRenewed, []any{v4}},
		{evDHCPBound, []any{v4, v4, []netip.Addr{}, ""}},
		{evDHCPBound, []any{v4, invalid, []netip.Addr(nil), "lab.example"}},
		{evDHCPBound, []any{v4, v4, []netip.Addr{v4, v6, mapped, invalid}, "quote\" tab\t é"}},
		{evDHCPNAK, nil},
		{evCLATStarted, []any{v6, pref64}},
		{evCLATStarted, []any{invalid, netip.Prefix{}}},
		{evNAT64Prefix, []any{netip.MustParsePrefix("2001:db8:64::/96")}},
		{evNAT64Prefix, []any{netip.PrefixFrom(mapped, 128)}},
		{evPMTU, []any{v6, 1280}},
	}

	h := &Host{}
	var want []string
	seen := make(map[eventKind]bool)
	for _, c := range cases {
		seen[c.kind] = true
		h.record(c.kind, c.args...)
		want = append(want, fmt.Sprintf(eventFormats[c.kind], c.args...))
	}
	for k := range numEventKinds {
		if !seen[k] {
			t.Errorf("event kind %d (%q) has no case", k, eventFormats[k])
		}
	}
	got := h.Events()
	if len(got) != len(want) {
		t.Fatalf("Events() returned %d lines, want %d:\n%q", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d:\n got %q\nwant %q", i, got[i], want[i])
		}
	}
}

// TestRecordingRAEventsAllocatesNothing pins the renumbering fan-out's
// journal cost: deprecate, re-prefer and SLAAC events recorded into a
// journal that already has room allocate nothing.
func TestRecordingRAEventsAllocatesNothing(t *testing.T) {
	addr := netip.MustParseAddr("2607:fb90:9bda:a425:a8bb:ccff:fedd:eeff")
	router := netip.MustParseAddr("fe80::1")
	h := &Host{hostState: hostState{journal: make([]byte, 0, 256)}}
	allocs := testing.AllocsPerRun(100, func() {
		h.journal = h.journal[:0]
		h.record(evDeprecatedPIO, addr)
		h.record(evRePreferred, addr)
		h.record(evSLAAC, addr, router)
	})
	if allocs != 0 {
		t.Errorf("recording three RA events allocates %.1f times, want 0", allocs)
	}
}

// TestRestoreRewindsEventJournal checks that Restore drops exactly the
// events recorded since the Checkpoint, and that recording resumes
// cleanly at the rewound position.
func TestRestoreRewindsEventJournal(t *testing.T) {
	h := New(newTestNet(), "h", serverBehavior())
	h.AddIPv6Static(netip.MustParseAddr("fd00:976a::1"), ulaPrefix)
	before := h.Events()
	if len(before) != 1 {
		t.Fatalf("a static host should have one event, has %q", before)
	}
	h.Checkpoint()

	addr := netip.MustParseAddr("2607:fb90:9bda:a425::1")
	h.record(evDeprecatedPIO, addr)
	h.record(evDHCPBound, addr, addr, []netip.Addr{addr}, "lab")
	if n := len(h.Events()); n != 3 {
		t.Fatalf("after two more events Events() has %d lines, want 3", n)
	}
	h.Restore()
	if got := h.Events(); !slices.Equal(got, before) {
		t.Fatalf("after Restore Events() = %q, want %q", got, before)
	}
	h.record(evRePreferred, addr)
	want := append(before, "re-preferred 2607:fb90:9bda:a425::1")
	if got := h.Events(); !slices.Equal(got, want) {
		t.Errorf("recording after Restore: Events() = %q, want %q", got, want)
	}
}
