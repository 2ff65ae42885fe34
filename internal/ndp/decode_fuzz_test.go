package ndp_test

import (
	"bytes"
	"net/netip"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/hoststack"
	"repro/internal/httpsim"
	"repro/internal/ndp"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/profiles"
	"repro/internal/testbed"
)

// The fuzz targets below hold every ND decoder to three properties: it
// never panics, decode → encode → decode is stable, and decoding into a
// value that already holds another message — for an RA, Prefixes and
// RDNSS storage with entries in it — gives the same result as decoding
// into a fresh one. Seeds are the ND bodies that cross the managed
// switch in a default world while clients come up and browse.

// maxSeeds caps the seeds one target takes from the golden run.
const maxSeeds = 48

// goldenBodies runs the seed world once per test binary and returns the
// distinct ICMPv6 bodies that crossed its switch, keyed by ICMPv6 type.
var goldenBodies = sync.OnceValues(func() (map[uint8][][]byte, error) {
	tb, err := testbed.Build(testbed.DefaultTopology(testbed.DefaultOptions()))
	if err != nil {
		return nil, err
	}
	defer tb.Close()
	seen := make(map[string]bool)
	bodies := make(map[uint8][][]byte)
	tb.Switch.AddFilter(func(_ int, f netsim.Frame) bool {
		var p packet.IPv6
		var ic packet.ICMP
		if f.EtherType != netsim.EtherTypeIPv6 || p.Decode(f.Payload) != nil ||
			p.NextHeader != packet.ProtoICMPv6 || ic.DecodeV6(p.Payload, p.Src, p.Dst) != nil {
			return true
		}
		if key := string(ic.Body); !seen[key] {
			seen[key] = true
			bodies[ic.Type] = append(bodies[ic.Type], []byte(key))
		}
		return true
	})
	for _, b := range []hoststack.Behavior{profiles.IOS(), profiles.Android(), profiles.Windows10()} {
		c := tb.AddClient("seed-"+b.Name, b)
		_, _ = httpsim.Browse(c, "http://sc24.supercomputing.org/")
	}
	tb.Net.RunFor(30 * time.Second) // periodic beacons
	return bodies, nil
})

// addSeeds adds up to maxSeeds golden bodies of ICMPv6 type typ.
func addSeeds(f *testing.F, typ uint8) {
	f.Helper()
	bodies, err := goldenBodies()
	if err != nil {
		f.Fatal(err)
	}
	seeds := bodies[typ]
	if len(seeds) == 0 {
		f.Fatalf("golden run produced no ICMPv6 type %d bodies", typ)
	}
	for _, b := range seeds[:min(len(seeds), maxSeeds)] {
		f.Add(b)
	}
}

// codec is one ND message type under fuzz.
type codec[T any] struct {
	decode func(v *T, b []byte) error
	encode func(v *T) []byte
	// canon maps a decoded value to the form decoding its encoding
	// yields, and makes empty slices nil so reused and fresh storage
	// compare equal.
	canon func(v *T)
	// full is a valid body with every optional field set; the reuse
	// check decodes it into the reused value first.
	full []byte
}

// check runs the reuse and round-trip properties on input b; a panic
// anywhere fails the fuzz run by itself.
func (c codec[T]) check(t *testing.T, b []byte) {
	t.Helper()
	canon := func(v T) T {
		if c.canon != nil {
			c.canon(&v)
		}
		return v
	}
	var fresh T
	err := c.decode(&fresh, b)
	var reused T
	if e := c.decode(&reused, c.full); e != nil {
		t.Fatalf("full body does not decode: %v", e)
	}
	if e := c.decode(&reused, b); (e == nil) != (err == nil) {
		t.Fatalf("fresh decode error %v, reused decode error %v", err, e)
	}
	if err != nil {
		return
	}
	if !reflect.DeepEqual(canon(fresh), canon(reused)) {
		t.Fatalf("reused value differs from fresh:\nfresh  %+v\nreused %+v", fresh, reused)
	}
	wire := c.encode(&fresh)
	var again T
	if err := c.decode(&again, wire); err != nil {
		t.Fatalf("re-decoding the encoding failed: %v\nvalue %+v", err, fresh)
	}
	if !reflect.DeepEqual(canon(fresh), canon(again)) {
		t.Fatalf("decode → encode → decode changed the value:\nfirst  %+v\nsecond %+v", fresh, again)
	}
	if w := c.encode(&again); !bytes.Equal(w, wire) {
		t.Fatalf("encoding is not stable:\nfirst  %x\nsecond %x", wire, w)
	}
}

var (
	fullMAC    = [6]byte{2, 0, 0, 0, 0, 9}
	fullTarget = netip.MustParseAddr("fe80::9")
)

func FuzzRouterAdvertDecode(f *testing.F) {
	addSeeds(f, packet.ICMPv6RouterAdvert)
	full := &ndp.RouterAdvert{
		CurHopLimit: 64, Managed: true, OtherConfig: true, Preference: ndp.PrefHigh,
		RouterLifetime: time.Minute, SourceLinkAddr: fullMAC, HasSourceLink: true, MTU: 1280,
		Prefixes: []ndp.PrefixInfo{
			{Prefix: netip.MustParsePrefix("2001:db8:1::/64"), OnLink: true, Autonomous: true,
				ValidLifetime: time.Hour, PreferredLifetime: time.Minute},
			{Prefix: netip.MustParsePrefix("fd00:1::/64"), ValidLifetime: time.Hour},
		},
		RDNSS:         []netip.Addr{netip.MustParseAddr("2001:db8::53"), netip.MustParseAddr("fd00::53")},
		RDNSSLifetime: time.Hour,
		PREF64:        netip.MustParsePrefix("64:ff9b::/96"), PREF64Lifetime: 8 * time.Minute,
	}
	c := codec[ndp.RouterAdvert]{
		decode: (*ndp.RouterAdvert).Decode,
		encode: (*ndp.RouterAdvert).Marshal,
		canon: func(ra *ndp.RouterAdvert) {
			if len(ra.Prefixes) == 0 {
				ra.Prefixes = nil
			}
			if len(ra.RDNSS) == 0 {
				// An RDNSS option without addresses only carries a
				// lifetime, which the encoder has nothing to attach to.
				ra.RDNSS, ra.RDNSSLifetime = nil, 0
			}
		},
		full: full.Marshal(),
	}
	f.Fuzz(func(t *testing.T, b []byte) { c.check(t, b) })
}

func FuzzNeighborSolicitDecode(f *testing.F) {
	addSeeds(f, packet.ICMPv6NeighborSolicit)
	c := codec[ndp.NeighborSolicit]{
		decode: (*ndp.NeighborSolicit).Decode,
		encode: (*ndp.NeighborSolicit).Marshal,
		full: (&ndp.NeighborSolicit{
			Target: fullTarget, SourceLinkAddr: fullMAC, HasSourceLink: true,
		}).Marshal(),
	}
	f.Fuzz(func(t *testing.T, b []byte) { c.check(t, b) })
}

func FuzzNeighborAdvertDecode(f *testing.F) {
	addSeeds(f, packet.ICMPv6NeighborAdvert)
	c := codec[ndp.NeighborAdvert]{
		decode: (*ndp.NeighborAdvert).Decode,
		encode: (*ndp.NeighborAdvert).Marshal,
		full: (&ndp.NeighborAdvert{
			Router: true, Solicited: true, Override: true,
			Target: fullTarget, TargetLinkAddr: fullMAC, HasTargetLink: true,
		}).Marshal(),
	}
	f.Fuzz(func(t *testing.T, b []byte) { c.check(t, b) })
}
