package ndp

import (
	"net/netip"
	"testing"
	"time"
)

// TestDecodeAllocatesNothing pins the ND receive path: NS and NA decode
// into stack values, and an RA decoded into a long-lived value reuses
// its Prefixes and RDNSS storage, so once that storage has grown to the
// RA's size, decoding allocates nothing.
func TestDecodeAllocatesNothing(t *testing.T) {
	mac := [6]byte{2, 0, 0, 0, 0, 1}
	target := netip.MustParseAddr("fe80::1")
	ra := (&RouterAdvert{
		CurHopLimit: 64, RouterLifetime: 30 * time.Minute, SourceLinkAddr: mac, HasSourceLink: true, MTU: 1500,
		Prefixes: []PrefixInfo{
			{Prefix: netip.MustParsePrefix("2607:fb90:9bda:a425::/64"), OnLink: true, Autonomous: true,
				ValidLifetime: 2 * time.Hour, PreferredLifetime: time.Hour},
			{Prefix: netip.MustParsePrefix("2607:fb90:9bda:a426::/64"), OnLink: true, Autonomous: true,
				ValidLifetime: 2 * time.Hour},
		},
		RDNSS:         []netip.Addr{netip.MustParseAddr("fd00:976a::9"), netip.MustParseAddr("fd00:976a::10")},
		RDNSSLifetime: 30 * time.Minute,
		PREF64:        netip.MustParsePrefix("64:ff9b::/96"), PREF64Lifetime: 30 * time.Minute,
	}).Marshal()
	rs := (&RouterSolicit{SourceLinkAddr: mac, HasSourceLink: true}).Marshal()
	ns := (&NeighborSolicit{Target: target, SourceLinkAddr: mac, HasSourceLink: true}).Marshal()
	na := (&NeighborAdvert{Solicited: true, Target: target, TargetLinkAddr: mac, HasTargetLink: true}).Marshal()
	var reused RouterAdvert
	for _, c := range []struct {
		name   string
		decode func() error
	}{
		{"RA into a reused value", func() error { return reused.Decode(ra) }},
		{"RS", func() error { var m RouterSolicit; return m.Decode(rs) }},
		{"NS", func() error { var m NeighborSolicit; return m.Decode(ns) }},
		{"NA", func() error { var m NeighborAdvert; return m.Decode(na) }},
	} {
		var err error
		allocs := testing.AllocsPerRun(100, func() { err = c.decode() })
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if allocs != 0 {
			t.Errorf("%s decode allocates %.1f times, want 0", c.name, allocs)
		}
	}
	if len(reused.Prefixes) != 2 || len(reused.RDNSS) != 2 {
		t.Errorf("reused RA decoded %d prefixes and %d RDNSS servers, want 2 and 2",
			len(reused.Prefixes), len(reused.RDNSS))
	}
}

// TestDecodeReusedRAResetsStorage decodes a bare RA into a value that
// held a full one: nothing of the earlier RA may survive.
func TestDecodeReusedRAResetsStorage(t *testing.T) {
	full := (&RouterAdvert{
		RouterLifetime: time.Minute,
		SourceLinkAddr: [6]byte{2, 0, 0, 0, 0, 1},
		HasSourceLink:  true,
		MTU:            1280,
		Prefixes:       []PrefixInfo{{Prefix: netip.MustParsePrefix("2001:db8::/64"), Autonomous: true}},
		RDNSS:          []netip.Addr{netip.MustParseAddr("2001:db8::53")},
		RDNSSLifetime:  time.Minute,
		PREF64:         netip.MustParsePrefix("64:ff9b::/96"),
		PREF64Lifetime: 8 * time.Minute,
	}).Marshal()
	bare := (&RouterAdvert{RouterLifetime: time.Minute}).Marshal()
	var ra RouterAdvert
	if err := ra.Decode(full); err != nil {
		t.Fatal(err)
	}
	if err := ra.Decode(bare); err != nil {
		t.Fatal(err)
	}
	if len(ra.Prefixes) != 0 || len(ra.RDNSS) != 0 || ra.HasSourceLink || ra.MTU != 0 ||
		ra.PREF64.IsValid() || ra.RDNSSLifetime != 0 || ra.RouterLifetime != time.Minute {
		t.Errorf("bare RA decoded into a reused value kept earlier fields: %+v", ra)
	}
}
