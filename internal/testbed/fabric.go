package testbed

import (
	"fmt"
	"net/netip"
	"sort"
	"time"

	"repro/internal/dhcp4"
	"repro/internal/hoststack"
	"repro/internal/netsim"
)

// This file is the hierarchical fabric tier: instead of one flat
// broadcast domain, clients hang off access switches trunked into the
// managed (distribution) switch, which scopes floods so broadcast-heavy
// protocol chatter stays inside its own access domain. A registered
// client is only a row index, costing nothing until Materialize builds
// its Host when it first acts, so a single process holds million-client
// worlds. Flat worlds — Fabric unset — never touch any of this code.

// FabricSpec describes the access tier of a Topology. The zero value
// (no access switches) means a flat world, byte-identical to the
// pre-fabric testbed.
type FabricSpec struct {
	// Access lists the access switches, each with its registered client
	// population.
	Access []AccessSwitchSpec
	// DomainStride is how many addresses each domain owns inside each
	// DHCP scope: domain d leases from [PoolStart+d*stride,
	// PoolStart+(d+1)*stride-1] of both the Pi and gateway pools
	// (default 1024). The stride — not the access-switch list — fixes a
	// domain's addressing, so a subtree world that keeps original
	// Domain values reproduces the full world's leases exactly.
	DomainStride int
}

// Enabled reports whether the spec describes a fabric world.
func (f FabricSpec) Enabled() bool { return len(f.Access) > 0 }

// AccessSwitchSpec is one access switch and its client population.
type AccessSwitchSpec struct {
	Name string
	// Domain is the switch's global access-domain index. It selects the
	// domain's DHCP sub-pools and seeds its per-domain profile stream,
	// so it must stay stable when a subtree world rebuilds only some of
	// the access switches.
	Domain int
	// Clients is how many lazily-materialized clients to register.
	Clients int
}

// FabricTopology provisions a fabric world of access×clientsPer
// registered clients: the LAN widens to 10.0.0.0/8, infrastructure
// moves to 10.0.0.x, both DHCP scopes become per-domain striped ranges,
// and — as in ScaleTopology — leases and NAT64 sessions outlive any
// run so outcomes are position-independent.
func FabricTopology(opt Options, access, clientsPer int) Topology {
	t := DefaultTopology(opt)
	t.LANPrefix = netip.MustParsePrefix("10.0.0.0/8")
	t.GatewayLANv4 = netip.MustParseAddr("10.0.0.1")
	t.Pis.DHCPV4 = netip.MustParseAddr("10.0.0.250")
	t.Pis.HealthyV4 = netip.MustParseAddr("10.0.0.251")
	t.Pis.PoisonV4 = netip.MustParseAddr("10.0.0.253")

	stride := 1024
	for stride < 2*clientsPer {
		stride *= 2
	}
	t.Pis.PoolStart = netip.MustParseAddr("10.32.0.0")
	t.Pis.PoolEnd = addrPlus(t.Pis.PoolStart, access*stride-1)
	t.Pis.LeaseTime = 240 * time.Hour
	t.Gateway.PoolStart = netip.MustParseAddr("10.160.0.0")
	t.Gateway.PoolEnd = addrPlus(t.Gateway.PoolStart, access*stride-1)
	t.Gateway.DHCPLeaseTime = 240 * time.Hour

	t.Gateway.NAT64SessionTimeout = 10 * 365 * 24 * time.Hour

	t.Fabric = FabricSpec{DomainStride: stride}
	for i := 0; i < access; i++ {
		t.Fabric.Access = append(t.Fabric.Access, AccessSwitchSpec{
			Name: fmt.Sprintf("access-%03d", i), Domain: i, Clients: clientsPer,
		})
	}
	return t
}

// SubtreeTopology returns a copy of a fabric spec keeping only the
// access switches whose position index is in keep — the world a
// subtree shard builds. Domain values (and with them pools, names and
// profile streams) are preserved from the full world.
func SubtreeTopology(full Topology, keep []int) Topology {
	sub := full
	sub.Fabric.Access = nil
	ks := append([]int(nil), keep...)
	sort.Ints(ks)
	for _, i := range ks {
		sub.Fabric.Access = append(sub.Fabric.Access, full.Fabric.Access[i])
	}
	return sub
}

// domainPool returns domain d's slice of a scope that starts at base.
func domainPool(base netip.Addr, d, stride int) dhcp4.DomainPool {
	return dhcp4.DomainPool{
		Start: addrPlus(base, d*stride),
		End:   addrPlus(base, (d+1)*stride-1),
	}
}

// validateFabric rejects fabric specs Build cannot assemble.
func (spec Topology) validateFabric() error {
	f := spec.Fabric
	if !f.Enabled() {
		return nil
	}
	if f.DomainStride <= 0 {
		return fmt.Errorf("testbed: fabric domain stride %d", f.DomainStride)
	}
	names := make(map[string]bool, len(f.Access))
	domains := make(map[int]bool, len(f.Access))
	for _, as := range f.Access {
		if as.Name == "" {
			return fmt.Errorf("testbed: access switch with empty name")
		}
		if names[as.Name] {
			return fmt.Errorf("testbed: duplicate access switch %q", as.Name)
		}
		names[as.Name] = true
		if as.Domain < 0 {
			return fmt.Errorf("testbed: access switch %q domain %d", as.Name, as.Domain)
		}
		if domains[as.Domain] {
			return fmt.Errorf("testbed: duplicate access domain %d", as.Domain)
		}
		domains[as.Domain] = true
		if as.Clients < 0 {
			return fmt.Errorf("testbed: access switch %q clients %d", as.Name, as.Clients)
		}
		for _, scope := range []struct {
			name       string
			start, end netip.Addr
		}{
			{"Pi", spec.Pis.PoolStart, spec.Pis.PoolEnd},
			{"gateway", spec.Gateway.PoolStart, spec.Gateway.PoolEnd},
		} {
			p := domainPool(scope.start, as.Domain, f.DomainStride)
			if scope.start.Compare(p.Start) > 0 || p.End.Compare(scope.end) > 0 {
				return fmt.Errorf("testbed: domain %d pool %v-%v outside %s scope %v-%v",
					as.Domain, p.Start, p.End, scope.name, scope.start, scope.end)
			}
		}
	}
	return nil
}

// Fabric is the runtime access tier of a fabric world. Its registered
// clients are the rows 0..n-1, numbered switch by switch in spec order;
// a row holds no state until Materialize builds its Host.
type Fabric struct {
	tb   *Testbed
	spec FabricSpec

	// Switches holds the access switches in spec order.
	Switches []*netsim.Switch
	// rowStart[i] is the first row of access switch i;
	// rowStart[len(Access)] is the number of registered clients.
	rowStart []int

	// fabricState holds the materialized clients; Checkpoint saves a
	// copy in saved and Restore copies it back (reset.go).
	fabricState
	saved *fabricState
}

// fabricState is the part of a Fabric that a run changes, on top of its
// access switches' own state.
type fabricState struct {
	active    map[int]*activeClient
	macDomain map[netsim.MAC]int
}

// activeClient is one materialized host and the port it occupies.
type activeClient struct {
	host *hoststack.Host
	sw   int
	port int
}

// buildFabric assembles the access tier: per-domain trunked switches,
// the client row ranges, flood scoping on the distribution switch, and
// per-domain lease scoping on both DHCP servers.
func (tb *Testbed) buildFabric(spec Topology) error {
	f := spec.Fabric
	fb := &Fabric{
		tb:       tb,
		spec:     f,
		rowStart: make([]int, 1, len(f.Access)+1),
		fabricState: fabricState{
			active:    make(map[int]*activeClient),
			macDomain: make(map[netsim.MAC]int),
		},
	}
	// The distribution switch never floods out a trunk: broadcast
	// chatter from one domain reaches the infrastructure but no sibling
	// domain, and infrastructure beacons stay in the spine. DHCP server
	// replies to address-less clients are the one broadcast that must
	// cross back — the snooping tier directs those at the learned port.
	tb.Switch.ScopeTrunks()
	tb.Switch.EnableDHCPDirectedBroadcast()
	// Infrastructure servers glean neighbors from client traffic; their
	// own multicast solicitations cannot reach scoped access domains.
	tb.HealthyPi.EnableNeighborGleaning()
	tb.PoisonPi.EnableNeighborGleaning()
	tb.DHCPPi.EnableNeighborGleaning()

	for _, as := range f.Access {
		asw := netsim.NewSwitch(tb.Net)
		aPort, dPort := netsim.ConnectSwitches(asw, tb.Switch.Switch)
		asw.MarkTrunk(aPort)
		tb.Switch.MarkTrunk(dPort)
		fb.Switches = append(fb.Switches, asw)
		fb.rowStart = append(fb.rowStart, fb.rowStart[len(fb.rowStart)-1]+as.Clients)
	}

	piPools := make(map[int]dhcp4.DomainPool, len(f.Access))
	gwPools := make(map[int]dhcp4.DomainPool, len(f.Access))
	for _, as := range f.Access {
		piPools[as.Domain] = domainPool(spec.Pis.PoolStart, as.Domain, f.DomainStride)
		gwPools[as.Domain] = domainPool(spec.Gateway.PoolStart, as.Domain, f.DomainStride)
	}
	if err := tb.DHCPServer.SetDomains(piPools, fb.domainOfMAC); err != nil {
		return fmt.Errorf("testbed: fabric pi pools: %w", err)
	}
	if err := tb.Gateway.ScopeLeases(gwPools, fb.domainOfMAC); err != nil {
		return fmt.Errorf("testbed: fabric gateway pools: %w", err)
	}
	tb.Fabric = fb
	return nil
}

// domainOfMAC is the DHCP servers' relay-style domain lookup; it knows
// only currently materialized clients (-1 otherwise, which falls back
// to whole-pool allocation).
func (fb *Fabric) domainOfMAC(ch [6]byte) int {
	if d, ok := fb.macDomain[netsim.MAC(ch)]; ok {
		return d
	}
	return -1
}

// SwitchIndexOf returns the position index of the access switch owning
// a row.
func (fb *Fabric) SwitchIndexOf(row int) int {
	return sort.Search(len(fb.rowStart)-1, func(i int) bool { return fb.rowStart[i+1] > row })
}

// DomainOf returns the access-domain index owning a row.
func (fb *Fabric) DomainOf(row int) int {
	return fb.spec.Access[fb.SwitchIndexOf(row)].Domain
}

// Rows returns the half-open row range [lo, hi) registered on access
// switch i.
func (fb *Fabric) Rows(i int) (lo, hi int) { return fb.rowStart[i], fb.rowStart[i+1] }

// ActiveCount reports how many clients are currently materialized.
func (fb *Fabric) ActiveCount() int { return len(fb.active) }

// Materialize allocates the full Host for a registered client, attaches
// it to its access switch (reusing detached port slots), applies the
// world's impairment keyed by name, and boots the stack — the lazy
// counterpart of AddClient. A row materialized again after Park boots
// a fresh Host, as a rebooted device does: its new MAC seeds a new
// DHCP transaction-ID range, and its DNS and ping IDs start over.
func (fb *Fabric) Materialize(row int, name string, b hoststack.Behavior) *hoststack.Host {
	if a, ok := fb.active[row]; ok {
		return a.host
	}
	tb := fb.tb
	sw := fb.SwitchIndexOf(row)
	h := hoststack.New(tb.Net, name, b)
	port := fb.Switches[sw].AttachPort(h.NIC)
	if tb.Spec.Impair.Enabled() {
		h.NIC.SetImpairment(tb.Spec.Impair, chaosSeed(tb.Spec.ChaosSeed, name))
	}
	fb.macDomain[h.MAC()] = fb.spec.Access[sw].Domain
	fb.active[row] = &activeClient{host: h, sw: sw, port: port}
	h.Start()
	tb.Net.RunFor(2 * time.Second)
	return h
}

// Park returns a materialized client to its stateless row: persistent
// timers stopped, the access port detached (its slot recycles), every
// switch forgets the MAC and the fabric drops the NIC from its ring
// list. The Host reference dies with the parked row, so a million
// registered clients never hold more than the active working set of
// full Hosts.
func (fb *Fabric) Park(row int) {
	a, ok := fb.active[row]
	if !ok {
		return
	}
	a.host.StopTimers()
	fb.Switches[a.sw].DetachPort(a.port)
	fb.tb.Net.ReleaseNIC(a.host.NIC)
	fb.tb.Switch.Unlearn(a.host.MAC())
	delete(fb.macDomain, a.host.MAC())
	delete(fb.active, row)
}
