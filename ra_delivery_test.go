package repro_test

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/hoststack"
	"repro/internal/ndp"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/profiles"
	"repro/internal/testbed"
)

// gatewayRAFixture builds the default world, brings an iOS client up
// through it and returns the world, the client and a copy of the
// gateway's periodic Router Advertisement as it crossed the managed
// switch: the frame every client on the floor receives each beacon.
func gatewayRAFixture(tb testing.TB) (*testbed.Testbed, *hoststack.Host, netsim.Frame) {
	tb.Helper()
	w, err := testbed.Build(testbed.DefaultTopology(testbed.DefaultOptions()))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(w.Close)
	gwMAC := w.Gateway.LANNIC().MAC()
	allNodes := netsim.MAC(packet.MulticastMAC(ndp.AllNodes))
	var ra netsim.Frame
	w.Switch.AddFilter(func(_ int, f netsim.Frame) bool {
		// An RA is ICMPv6 (next header, byte 6) of type 134 (the first
		// byte after the IPv6 header).
		if f.Src == gwMAC && f.Dst == allNodes && f.EtherType == netsim.EtherTypeIPv6 &&
			len(f.Payload) > packet.IPv6HeaderLen && f.Payload[6] == packet.ProtoICMPv6 &&
			f.Payload[packet.IPv6HeaderLen] == packet.ICMPv6RouterAdvert {
			ra = f
			ra.Payload = bytes.Clone(f.Payload)
		}
		return true
	})
	c := w.AddClient("ra-receiver", profiles.IOS())
	w.Net.RunFor(30 * time.Second) // several beacons: the client is warm
	if ra.Payload == nil {
		tb.Fatal("no gateway RA crossed the switch")
	}
	return w, c, ra
}

// TestRADeliveryAllocatesNothing pins the receive path the zero-copy
// decoders opened up: once a client has seen the gateway's RA, handling
// it again — IPv6, ICMPv6 and RA decode, router, SLAAC and RDNSS
// refresh — allocates nothing.
func TestRADeliveryAllocatesNothing(t *testing.T) {
	w, c, ra := gatewayRAFixture(t)
	if allocs := testing.AllocsPerRun(100, func() { c.HandleFrame(c.NIC, ra) }); allocs != 0 {
		t.Errorf("warmed RA delivery allocates %.1f times, want 0", allocs)
	}
	// The measured deliveries ran the whole path: a fresh delivery
	// refreshes the SLAAC address's valid lifetime to the RA's 2 h.
	w.Net.RunFor(time.Second)
	c.HandleFrame(c.NIC, ra)
	want := w.Net.Clock.Now().Add(2 * time.Hour)
	refreshed := false
	for _, a := range c.V6Addresses() {
		refreshed = refreshed || a.ValidUntil.Equal(want)
	}
	if !refreshed {
		t.Errorf("RA delivery did not refresh any SLAAC lifetime to %v: %+v", want, c.V6Addresses())
	}
}

// BenchmarkRADelivery is the per-receiver cost of a gateway beacon: a
// warmed client's HandleFrame on the periodic RA. Every client on a
// broadcast domain pays it once per beacon period, so a flood of it is
// the grid workload's commonest receive.
func BenchmarkRADelivery(b *testing.B) {
	_, c, ra := gatewayRAFixture(b)
	c.HandleFrame(c.NIC, ra)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.HandleFrame(c.NIC, ra)
	}
}
