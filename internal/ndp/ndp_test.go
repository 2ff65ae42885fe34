package ndp

import (
	"net/netip"
	"testing"
	"testing/quick"
	"time"
)

// gatewayRA models the paper's Fig. 3: the 5G gateway advertises a GUA
// prefix for SLAAC plus dead ULA RDNSS servers.
func gatewayRA() *RouterAdvert {
	return &RouterAdvert{
		CurHopLimit:    64,
		RouterLifetime: 1800 * time.Second,
		Preference:     PrefMedium,
		SourceLinkAddr: [6]byte{2, 0, 0x5e, 0, 0, 1},
		HasSourceLink:  true,
		MTU:            1500,
		Prefixes: []PrefixInfo{{
			Prefix:            netip.MustParsePrefix("2607:fb90:9bda:a425::/64"),
			OnLink:            true,
			Autonomous:        true,
			ValidLifetime:     2 * time.Hour,
			PreferredLifetime: time.Hour,
		}},
		RDNSS:         []netip.Addr{netip.MustParseAddr("fd00:976a::9"), netip.MustParseAddr("fd00:976a::10")},
		RDNSSLifetime: 1800 * time.Second,
	}
}

func TestRARoundTrip(t *testing.T) {
	in := gatewayRA()
	var out RouterAdvert
	err := out.Decode(in.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if out.CurHopLimit != 64 || out.RouterLifetime != 1800*time.Second {
		t.Errorf("header: %+v", out)
	}
	if !out.HasSourceLink || out.SourceLinkAddr != in.SourceLinkAddr {
		t.Error("source link addr lost")
	}
	if out.MTU != 1500 {
		t.Errorf("MTU = %d", out.MTU)
	}
	if len(out.Prefixes) != 1 {
		t.Fatalf("prefixes = %+v", out.Prefixes)
	}
	pi := out.Prefixes[0]
	if pi.Prefix != netip.MustParsePrefix("2607:fb90:9bda:a425::/64") || !pi.OnLink || !pi.Autonomous {
		t.Errorf("prefix info = %+v", pi)
	}
	if pi.ValidLifetime != 2*time.Hour || pi.PreferredLifetime != time.Hour {
		t.Errorf("lifetimes = %v/%v", pi.ValidLifetime, pi.PreferredLifetime)
	}
	if len(out.RDNSS) != 2 || out.RDNSS[0] != netip.MustParseAddr("fd00:976a::9") ||
		out.RDNSS[1] != netip.MustParseAddr("fd00:976a::10") {
		t.Errorf("RDNSS = %v", out.RDNSS)
	}
	if out.RDNSSLifetime != 1800*time.Second {
		t.Errorf("RDNSS lifetime = %v", out.RDNSSLifetime)
	}
}

func TestRAPreferenceRoundTrip(t *testing.T) {
	for _, pref := range []RouterPreference{PrefLow, PrefMedium, PrefHigh} {
		ra := &RouterAdvert{RouterLifetime: time.Minute, Preference: pref}
		var out RouterAdvert
		err := out.Decode(ra.Marshal())
		if err != nil {
			t.Fatal(err)
		}
		if out.Preference != pref {
			t.Errorf("preference %v round-tripped to %v", pref, out.Preference)
		}
	}
	if PrefLow.String() != "low" || PrefHigh.String() != "high" || PrefMedium.String() != "medium" {
		t.Error("preference names wrong")
	}
}

func TestRAManagedOtherFlags(t *testing.T) {
	ra := &RouterAdvert{Managed: true, OtherConfig: true}
	var out RouterAdvert
	err := out.Decode(ra.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !out.Managed || !out.OtherConfig {
		t.Errorf("M/O flags lost: %+v", out)
	}
}

func TestRATruncatedRejected(t *testing.T) {
	if err := new(RouterAdvert).Decode(make([]byte, 11)); err == nil {
		t.Error("11-byte RA accepted")
	}
	b := gatewayRA().Marshal()
	if err := new(RouterAdvert).Decode(b[:len(b)-5]); err == nil {
		t.Error("truncated option stream accepted")
	}
}

func TestRAZeroLengthOptionRejected(t *testing.T) {
	b := gatewayRA().Marshal()
	b[13] = 0 // zero out the length of the first option
	if err := new(RouterAdvert).Decode(b); err == nil {
		t.Error("zero-length option accepted (infinite loop risk)")
	}
}

func TestRSRoundTrip(t *testing.T) {
	rs := &RouterSolicit{SourceLinkAddr: [6]byte{2, 0, 0, 0, 0, 7}, HasSourceLink: true}
	b := rs.Marshal()
	mac, ok, err := linkAddrOption(b[4:], optSourceLinkAddr)
	if err != nil {
		t.Fatal(err)
	}
	if !ok || mac != rs.SourceLinkAddr {
		t.Errorf("RS source link-layer option = %v (present %v), want %v", mac, ok, rs.SourceLinkAddr)
	}
}

func TestNSNARoundTrip(t *testing.T) {
	target := netip.MustParseAddr("fd00:976a::9")
	ns := &NeighborSolicit{Target: target, SourceLinkAddr: [6]byte{2, 0, 0, 0, 0, 1}, HasSourceLink: true}
	var outNS NeighborSolicit
	err := outNS.Decode(ns.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if outNS.Target != target || !outNS.HasSourceLink {
		t.Errorf("NS = %+v", outNS)
	}

	na := &NeighborAdvert{
		Router: true, Solicited: true, Override: true,
		Target: target, TargetLinkAddr: [6]byte{2, 0, 0, 0, 0, 2}, HasTargetLink: true,
	}
	var outNA NeighborAdvert
	err = outNA.Decode(na.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if outNA.Target != target || !outNA.Router || !outNA.Solicited || !outNA.Override || !outNA.HasTargetLink {
		t.Errorf("NA = %+v", outNA)
	}
	if outNA.TargetLinkAddr != na.TargetLinkAddr {
		t.Error("NA target link addr lost")
	}
}

func TestEUI64(t *testing.T) {
	// Paper Fig. 7 shows Windows XP MAC 00:00:59:AA:C6:A3 forming
	// fd00:976a::200:59ff:feaa:c6a3.
	mac := [6]byte{0x00, 0x00, 0x59, 0xaa, 0xc6, 0xa3}
	got, err := EUI64(netip.MustParsePrefix("fd00:976a::/64"), mac)
	if err != nil {
		t.Fatal(err)
	}
	want := netip.MustParseAddr("fd00:976a::200:59ff:feaa:c6a3")
	if got != want {
		t.Errorf("EUI64 = %v, want %v", got, want)
	}
}

func TestEUI64RequiresSlash64(t *testing.T) {
	if _, err := EUI64(netip.MustParsePrefix("fd00::/48"), [6]byte{}); err == nil {
		t.Error("non-/64 prefix accepted")
	}
}

func TestLinkLocal(t *testing.T) {
	mac := [6]byte{0x00, 0x00, 0x59, 0xaa, 0xc6, 0xa3}
	want := netip.MustParseAddr("fe80::200:59ff:feaa:c6a3")
	if got := LinkLocal(mac); got != want {
		t.Errorf("LinkLocal = %v, want %v", got, want)
	}
}

func TestPREF64RoundTrip(t *testing.T) {
	for _, bits := range []int{96, 64, 56, 48, 40, 32} {
		pref := netip.PrefixFrom(netip.MustParseAddr("64:ff9b::"), bits)
		ra := &RouterAdvert{
			RouterLifetime: time.Minute,
			PREF64:         pref,
			PREF64Lifetime: 30 * time.Minute,
		}
		var out RouterAdvert
		err := out.Decode(ra.Marshal())
		if err != nil {
			t.Fatal(err)
		}
		if out.PREF64 != pref {
			t.Errorf("bits %d: PREF64 = %v, want %v", bits, out.PREF64, pref)
		}
		if out.PREF64Lifetime != 30*time.Minute {
			t.Errorf("bits %d: lifetime = %v", bits, out.PREF64Lifetime)
		}
	}
}

func TestPREF64UnsupportedLengthOmitted(t *testing.T) {
	ra := &RouterAdvert{
		RouterLifetime: time.Minute,
		PREF64:         netip.MustParsePrefix("64:ff9b::/95"), // no PLC for /95
		PREF64Lifetime: time.Minute,
	}
	var out RouterAdvert
	err := out.Decode(ra.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if out.PREF64.IsValid() {
		t.Errorf("unsupported prefix length emitted anyway: %v", out.PREF64)
	}
}

func TestAbsentPREF64StaysInvalid(t *testing.T) {
	var out RouterAdvert
	err := out.Decode((&RouterAdvert{RouterLifetime: time.Minute}).Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if out.PREF64.IsValid() {
		t.Errorf("phantom PREF64: %v", out.PREF64)
	}
}

// Property: RA with arbitrary RDNSS lists round-trips, including lists
// too long for one option's length byte (more than 127 addresses).
func TestRARDNSSProperty(t *testing.T) {
	roundTrips := func(addrs [][16]byte, lifetime uint16) bool {
		ra := &RouterAdvert{RouterLifetime: time.Minute, RDNSSLifetime: time.Duration(lifetime) * time.Second}
		for _, a := range addrs {
			ra.RDNSS = append(ra.RDNSS, netip.AddrFrom16(a))
		}
		var out RouterAdvert
		err := out.Decode(ra.Marshal())
		if err != nil {
			return false
		}
		if len(out.RDNSS) != len(ra.RDNSS) {
			return false
		}
		for i := range ra.RDNSS {
			if out.RDNSS[i] != ra.RDNSS[i] {
				return false
			}
		}
		return len(ra.RDNSS) == 0 || out.RDNSSLifetime == ra.RDNSSLifetime
	}
	f := func(addrs [][16]byte, lifetime uint16) bool {
		return roundTrips(addrs[:min(len(addrs), 8)], lifetime)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	long := make([][16]byte, 300)
	for i := range long {
		long[i][14], long[i][15] = byte(i>>8), byte(i)
	}
	if !roundTrips(long, 60) {
		t.Error("300-address RDNSS list does not round-trip")
	}
}

// Property: EUI64 is injective over MACs for a fixed prefix and always
// lands inside the prefix.
func TestEUI64Property(t *testing.T) {
	prefix := netip.MustParsePrefix("2607:fb90:9bda:a425::/64")
	f := func(m1, m2 [6]byte) bool {
		a1, err1 := EUI64(prefix, m1)
		a2, err2 := EUI64(prefix, m2)
		if err1 != nil || err2 != nil {
			return false
		}
		if !prefix.Contains(a1) || !prefix.Contains(a2) {
			return false
		}
		return (m1 == m2) == (a1 == a2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
