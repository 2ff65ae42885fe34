package testbed

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/httpsim"
	"repro/internal/netsim"
	"repro/internal/profiles"
)

// TestFabricClientBringup materializes clients in two different access
// domains of a fabric world and checks the full paper pipeline still
// works through the trunked tier: DHCP option 108 → IPv6-only, RDNSS →
// healthy DNS64, browse over NAT64.
func TestFabricClientBringup(t *testing.T) {
	tb, err := Build(FabricTopology(DefaultOptions(), 4, 8))
	if err != nil {
		t.Fatalf("building fabric world: %v", err)
	}
	defer tb.Close()
	fb := tb.Fabric
	if fb == nil {
		t.Fatal("fabric world built without a Fabric runtime")
	}
	if _, got := fb.Rows(3); got != 32 {
		t.Fatalf("registered rows = %d, want 32", got)
	}

	for _, sw := range []int{0, 3} {
		lo, _ := fb.Rows(sw)
		c := fb.Materialize(lo, "fab-client", profiles.MacOS())
		if !c.IPv6OnlyActive() {
			t.Errorf("switch %d client: option 108 did not take effect", sw)
		}
		r, err := httpsim.Browse(c, "http://sc24.supercomputing.org/")
		if err != nil {
			t.Fatalf("switch %d client browse: %v", sw, err)
		}
		if r.Response.Status != 200 || !r.UsedAddr.Is6() {
			t.Errorf("switch %d client: status=%d used=%v, want 200 over IPv6",
				sw, r.Response.Status, r.UsedAddr)
		}
		fb.Park(lo)
		if _, ok := fb.active[lo]; ok {
			t.Errorf("switch %d client still active after Park", sw)
		}
	}
	if fb.ActiveCount() != 0 {
		t.Errorf("ActiveCount = %d after parking all", fb.ActiveCount())
	}
}

// TestFabricParkReleasesHost checks that parking frees the Host: a
// pass over a million-client world must hold one full Host at a time,
// not every Host it has parked. A Host costs several kilobytes; what a
// parked client may leave behind (its lease and its entries in the
// shared address tables) costs well under one.
func TestFabricParkReleasesHost(t *testing.T) {
	const n = 400
	tb, err := Build(FabricTopology(DefaultOptions(), 1, n))
	if err != nil {
		t.Fatalf("building fabric world: %v", err)
	}
	defer tb.Close()
	fb := tb.Fabric
	liveHeap := func() int64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}

	fb.Materialize(0, "fab-warm", profiles.MacOS())
	fb.Park(0)
	before := liveHeap()
	for row := 1; row < n; row++ {
		fb.Materialize(row, fmt.Sprintf("fab-%03d", row), profiles.MacOS())
		fb.Park(row)
	}
	if per := (liveHeap() - before) / (n - 1); per > 2048 {
		t.Errorf("each parked client still holds %d B of heap, want under 2 KiB", per)
	}
}

// TestFabricDomainLeaseScoping checks the DHCP-relay-style pools: a
// dual-stack client leases from its own domain's stripe of the Pi pool.
func TestFabricDomainLeaseScoping(t *testing.T) {
	spec := FabricTopology(Options{ // no option 108: clients keep IPv4
		Poison: PoisonWildcard, SnoopDHCP: true, SwitchULARA: true,
	}, 3, 4)
	tb, err := Build(spec)
	if err != nil {
		t.Fatalf("building fabric world: %v", err)
	}
	defer tb.Close()
	fb := tb.Fabric

	for sw := 0; sw < 3; sw++ {
		lo, _ := fb.Rows(sw)
		c := fb.Materialize(lo, "lease-probe", profiles.Windows10())
		addr := c.IPv4Addr()
		if !addr.IsValid() {
			t.Fatalf("domain %d client got no IPv4 lease", sw)
		}
		dom := fb.DomainOf(lo)
		p := domainPool(tb.Spec.Pis.PoolStart, dom, tb.Spec.Fabric.DomainStride)
		if p.Start.Compare(addr) > 0 || addr.Compare(p.End) > 0 {
			t.Errorf("domain %d lease %v outside its pool %v-%v", dom, addr, p.Start, p.End)
		}
		fb.Park(lo)
	}
}

// TestFabricFloodScoping verifies broadcast containment: nothing a
// domain-0 client emits during bring-up — DHCP DISCOVER broadcasts,
// Router Solicitations, ARP — may be delivered into a sibling access
// domain.
func TestFabricFloodScoping(t *testing.T) {
	tb, err := Build(FabricTopology(DefaultOptions(), 2, 4))
	if err != nil {
		t.Fatalf("building fabric world: %v", err)
	}
	defer tb.Close()
	fb := tb.Fabric

	// Materialize a listener in domain 1 first, and let its own bring-up
	// finish before arming the leak detector.
	lo1, _ := fb.Rows(1)
	listener := fb.Materialize(lo1, "fab-listener", profiles.Windows10())
	_ = listener

	var leaked []string
	fb.Switches[1].AddFilter(func(port int, f netsim.Frame) bool {
		leaked = append(leaked, f.Dst.String())
		return true
	})

	lo0, _ := fb.Rows(0)
	c := fb.Materialize(lo0, "fab-talker", profiles.MacOS())
	if _, err := httpsim.Browse(c, "http://sc24.supercomputing.org/"); err != nil {
		t.Fatalf("domain 0 client browse: %v", err)
	}

	if len(leaked) != 0 {
		t.Errorf("domain 1 saw %d frames during domain 0 activity (dsts %v)",
			len(leaked), leaked[:min(8, len(leaked))])
	}
}

// TestFlatWorldHasNoFabric pins the gating: a default topology must not
// construct any fabric machinery.
func TestFlatWorldHasNoFabric(t *testing.T) {
	tb, err := Build(DefaultTopology(DefaultOptions()))
	if err != nil {
		t.Fatalf("building flat world: %v", err)
	}
	defer tb.Close()
	if tb.Fabric != nil {
		t.Error("flat world constructed a Fabric runtime")
	}
	if tb.Spec.Fabric.Enabled() {
		t.Error("flat spec reports fabric enabled")
	}
}
