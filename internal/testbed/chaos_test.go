package testbed

import (
	"net/netip"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/profiles"
)

func TestChaosSeedIsNameStable(t *testing.T) {
	// The seed must depend only on (base, name): attach order and MAC
	// assignment play no part, so shards agree with serial runs.
	a := chaosSeed(42, "client-007")
	b := chaosSeed(42, "client-007")
	if a != b {
		t.Fatalf("chaosSeed not deterministic: %x vs %x", a, b)
	}
	if chaosSeed(42, "client-008") == a {
		t.Error("distinct names share a seed")
	}
	if chaosSeed(43, "client-007") == a {
		t.Error("distinct base seeds share a per-client seed")
	}
}

func TestImpairedClientsStillJoin(t *testing.T) {
	// Moderate edge loss: retransmission and retry must still bring
	// clients fully up (the degradation matrix's mid-loss column).
	spec := DefaultTopology(DefaultOptions())
	spec.Impair = netsim.Impairment{Loss: 0.2}
	spec.ChaosSeed = 1
	tb, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	c := tb.AddClient("android", profiles.Android())
	if !c.NIC.Impaired() {
		t.Fatal("client NIC not impaired")
	}
	if len(c.IPv6GlobalAddrs()) == 0 {
		t.Error("impaired client formed no GUA")
	}
	// Drive enough traffic through the lossy edge for loss to bite.
	ok := 0
	for i := 0; i < 10; i++ {
		if _, err := c.Lookup("test-ipv6.com"); err == nil {
			ok++
		}
	}
	if ok == 0 {
		t.Error("every lookup failed through 20% loss despite retries")
	}
	if st := tb.Net.Stats(); st.FramesImpairLost == 0 {
		t.Error("no frames lost despite 20% loss")
	}
}

func TestChurnClientsReconverge(t *testing.T) {
	// The reboot-churn regression: after a gateway reboot the LAN
	// renumbers, and every IPv6-capable client must adopt an address in
	// the NEW GUA prefix — with the stale one deprecated — within one RA
	// beacon interval plus margin of bounded virtual time.
	spec := DefaultTopology(DefaultOptions())
	spec.Clients = []ClientSpec{
		{Name: "android", Behavior: profiles.Android()},
		{Name: "win11", Behavior: profiles.Windows11()},
		{Name: "mac", Behavior: profiles.MacOS()},
	}
	tb, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()

	oldPfx := tb.Gateway.CurrentGUAPrefix()
	// Clients joined during Build (2 s each, so 6 s after settle); the
	// reboot fires at settle+30 s. Run past it plus one RA interval
	// (10 s) + margin.
	tb.Net.Clock.AfterFunc(24*time.Second, tb.Gateway.Reboot)
	tb.Net.RunFor(45 * time.Second)

	if got := tb.Gateway.RebootCount(); got != 1 {
		t.Fatalf("RebootCount = %d, want 1", got)
	}
	newPfx := tb.Gateway.CurrentGUAPrefix()
	if newPfx == oldPfx {
		t.Fatal("gateway did not renumber")
	}
	for _, c := range tb.Clients {
		var fresh, staleDeprecated bool
		var freshAddr netip.Addr
		for _, a := range c.V6Addresses() {
			switch {
			case newPfx.Contains(a.Addr):
				fresh = !a.Deprecated
				freshAddr = a.Addr
			case oldPfx.Contains(a.Addr):
				staleDeprecated = a.Deprecated
			}
		}
		if !fresh {
			t.Errorf("%s: no preferred address in new prefix %v (addrs %+v)",
				c.Name(), newPfx, c.V6Addresses())
			continue
		}
		if !staleDeprecated {
			t.Errorf("%s: stale %v address not deprecated", c.Name(), oldPfx)
		}
		_ = freshAddr
	}
}
