// Package pathology is a pluggable registry of DNS/NAT64/delegation
// failure modes drawn from the IPv6-transition measurement literature.
// It is the protocol-semantics sibling of netsim.Impairment: where an
// impairment corrupts frames, a pathology corrupts *meaning* — a DNS64
// synthesizing into a prefix no translator serves, a NAT64 emitting
// broken checksums, a delegation whose nameserver cannot be reached, a
// middlebox eating one query type on one transport.
//
// Each Pathology is a named, documented, deterministic mutation of a
// built testbed. Install functions only flip switches on components the
// world already has, so a pathological world stays a pure function of
// (topology, pathology name) and the serial ≡ sharded equality contract
// of the scenario engine keeps holding with a pathology active.
//
// Stateful pathologies carry a Schedule — onset, active window, flap
// pattern — armed on the world's virtual clock (schedule.go), and may
// carry a Budget that sizes shared resource pools to the world's device
// count. Both are built so the determinism contract survives lifecycle
// state: flap patterns are anchored to the absolute trial-alignment
// grid, schedules registered for sweeps keep zero onset, and budgets
// split pro rata across shard worlds.
//
// Every registered pathology leaves a distinct signature on the mirror's
// 10-point readiness score across the canonical client profiles — its
// Fingerprint. fingerprint.go computes fingerprints and decodes an
// observed score vector back to the pathology that caused it; the
// catalog with sources and reproduction commands is PATHOLOGIES.md.
package pathology

import (
	"fmt"
	"net/netip"
	"sort"
	"time"

	"repro/internal/dns"
	"repro/internal/dnspoison"
	"repro/internal/dnswire"
	"repro/internal/testbed"
)

// exhaustionQuota is the nat64-port-exhaustion per-subscriber port
// block (RFC 7422-style deterministic NAT): one external port per
// source. A client's first flow binds its whole block, so any second
// concurrent flow is refused — the smallest budget that still lets a
// lone sequential prober look healthy between expiries.
const exhaustionQuota = 1

// exhaustionTimeout replaces all four NAT64 session timeouts under
// nat64-port-exhaustion. It must stay strictly under the ≥2 s
// inter-trial bring-up gap so every trial starts with an empty session
// table — the position-independence requirement.
const exhaustionTimeout = 1500 * time.Millisecond

// None is the name of the registered baseline pathology (a no-op
// install); sweeps include it so every matrix carries its own control
// row.
const None = "none"

// Pathology is one named failure mode. The three documentation fields
// are load-bearing: tools/doclint refuses registrations that leave
// Source or Mechanism empty, and PATHOLOGIES.md is generated from the
// same strings, so the catalog cannot drift from the code.
type Pathology struct {
	// Name is the registry key and the -pathology=<name> CLI argument.
	Name string
	// Source cites the measurement literature documenting this failure
	// mode in the wild.
	Source string
	// Mechanism describes what the install mutates and why clients
	// break the way they do.
	Mechanism string
	// Install mutates a built testbed in place. It must be
	// deterministic and must not depend on wall-clock time or
	// randomness — a pathological world replays bit-identically.
	// Exactly one of Install and InstallGated must be set.
	Install func(tb *testbed.Testbed) error

	// InstallGated is Install for stateful pathologies: the engine arms
	// Schedule on the world clock and hands the install the resulting
	// Gate, which the mechanism polls (Gate.Down) or subscribes to
	// (Gate.OnTransition). Exactly one of Install and InstallGated must
	// be set.
	InstallGated func(tb *testbed.Testbed, gate *Gate) error

	// Schedule is the lifecycle of a stateful pathology (onset, active
	// window, flap pattern). The zero Schedule armed through
	// InstallGated means "permanently active". Registered schedules
	// must be shard-safe: zero Onset/Active and a flap period
	// commensurable with the 10 s trial grid.
	Schedule Schedule

	// ScheduleDoc documents a stateful pathology's lifecycle — what
	// turns on when, how it recovers, and what state it leaves behind.
	// Register and tools/doclint both refuse stateful registrations
	// (any of InstallGated, Schedule, Budget set) that leave it empty.
	ScheduleDoc string

	// Budget, when set, sizes shared-resource pools to the world's
	// device count: FactorySized calls it with the device count
	// scenario.RunShardedSized passes each shard world, so a global pool
	// (the NAT64 external-port pool) is split pro rata and serial ≡
	// sharded holds even for a capacity-driven failure mode.
	Budget func(tb *testbed.Testbed, devices int) error
}

// Stateful reports whether the pathology carries run-time lifecycle
// state: a gated install, a non-zero schedule, or a device-budgeted
// resource pool.
func (p Pathology) Stateful() bool {
	return p.InstallGated != nil || p.Budget != nil || p.Schedule.Stateful()
}

var (
	registry = map[string]Pathology{}
	ordered  []string
)

// Register adds p to the registry. Registration fails on duplicate or
// empty names and on missing documentation fields — every pathology
// must say what it reproduces and where it was measured.
func Register(p Pathology) error {
	if p.Name == "" {
		return fmt.Errorf("pathology: empty name")
	}
	if p.Source == "" || p.Mechanism == "" {
		return fmt.Errorf("pathology %q: Source and Mechanism are required", p.Name)
	}
	if p.Install == nil && p.InstallGated == nil {
		return fmt.Errorf("pathology %q: nil Install", p.Name)
	}
	if p.Install != nil && p.InstallGated != nil {
		return fmt.Errorf("pathology %q: Install and InstallGated are mutually exclusive", p.Name)
	}
	if p.Stateful() {
		if p.ScheduleDoc == "" {
			return fmt.Errorf("pathology %q: stateful pathology requires a non-empty ScheduleDoc", p.Name)
		}
		if err := p.Schedule.validate(); err != nil {
			return fmt.Errorf("pathology %q: %w", p.Name, err)
		}
		if !p.Schedule.shardSafe() {
			return fmt.Errorf("pathology %q: registered schedules must keep Onset and Active zero (position independence)", p.Name)
		}
	}
	if _, dup := registry[p.Name]; dup {
		return fmt.Errorf("pathology %q: already registered", p.Name)
	}
	registry[p.Name] = p
	ordered = append(ordered, p.Name)
	return nil
}

// MustRegister is Register for init-time built-ins; it panics on error.
func MustRegister(p Pathology) {
	if err := Register(p); err != nil {
		panic(err)
	}
}

// Get looks up a pathology by name.
func Get(name string) (Pathology, bool) {
	p, ok := registry[name]
	return p, ok
}

// Names returns every registered name with "none" first and the rest
// sorted — the canonical row order of every matrix and test table.
func Names() []string {
	rest := make([]string, 0, len(ordered))
	for _, n := range ordered {
		if n != None {
			rest = append(rest, n)
		}
	}
	sort.Strings(rest)
	return append([]string{None}, rest...)
}

// Apply installs the named pathology into a built testbed. Stateful
// pathologies are armed with their registered schedule; their Budget
// (if any) is not invoked — use ApplySized when the world's device
// count is known.
func Apply(tb *testbed.Testbed, name string) error {
	p, ok := registry[name]
	if !ok {
		return fmt.Errorf("pathology: unknown %q (have %v)", name, Names())
	}
	return installWith(tb, p, p.Schedule)
}

// ApplySized is Apply plus resource budgeting: after the install it
// calls the pathology's Budget with the number of devices this world
// will run, so per-shard pools are split pro rata. The sharded engines
// pass each shard's own device count; serial runs pass the full
// population.
func ApplySized(tb *testbed.Testbed, name string, devices int) error {
	p, ok := registry[name]
	if !ok {
		return fmt.Errorf("pathology: unknown %q (have %v)", name, Names())
	}
	if err := installWith(tb, p, p.Schedule); err != nil {
		return err
	}
	if p.Budget != nil {
		return p.Budget(tb, devices)
	}
	return nil
}

// installWith runs the pathology's install under the given schedule
// (the registered one, or ComputeTimeline's probe-window override). For
// gated installs it arms the schedule on the world clock and records
// the world's trial-alignment period on the testbed, which is how the
// scenario engine learns to grid-align trials for this world.
func installWith(tb *testbed.Testbed, p Pathology, sched Schedule) error {
	if p.InstallGated == nil {
		return p.Install(tb)
	}
	gate := sched.Arm(tb.Net.Clock)
	if ap := sched.AlignPeriod(); ap > tb.AlignPeriod {
		tb.AlignPeriod = ap
	}
	return p.InstallGated(tb, gate)
}

// FactorySized wraps a world factory so every world it builds comes up
// with the named pathology installed. The returned factory takes the
// number of devices the world will run and forwards it to the
// pathology's Budget, so scenario.RunShardedSized can split a global
// resource pool across shard worlds pro rata. The result is assignable
// to scenario.SizedWorldFactory, which is how a pathology rides through
// the sharded engine without this package importing it.
func FactorySized(base func() (*testbed.Testbed, error), name string) func(devices int) (*testbed.Testbed, error) {
	return func(devices int) (*testbed.Testbed, error) {
		tb, err := base()
		if err != nil {
			return nil, err
		}
		if err := ApplySized(tb, name, devices); err != nil {
			tb.Close()
			return nil, err
		}
		return tb, nil
	}
}

// MismatchedPrefix is the /96 the dns64-prefix-mismatch pathology makes
// the DNS64 synthesize into. No translator serves it, so synthesized
// AAAAs route natively to the WAN and black-hole.
var MismatchedPrefix = netip.MustParsePrefix("2001:db8:64::/96")

func init() {
	MustRegister(Pathology{
		Name:      None,
		Source:    "baseline (no pathology) — control row for every sweep",
		Mechanism: "no mutation; the testbed behaves exactly as built",
		Install:   func(*testbed.Testbed) error { return nil },
	})

	MustRegister(Pathology{
		Name: "dns64-prefix-mismatch",
		Source: "Hsu et al., \"A First Look at NAT64 Deployment in the Wild\" " +
			"(broken DNS64/NAT64 pairs: resolvers synthesizing into prefixes no local translator serves)",
		Mechanism: "the healthy DNS64 synthesizes AAAAs into 2001:db8:64::/96 while the gateway " +
			"translates only 64:ff9b::/96; synthesized addresses are routed natively to the WAN " +
			"and black-hole, so DNS64-dependent clients time out per AAAA while CLAT clients " +
			"survive via their own well-known-prefix translation of the A record",
		Install: func(tb *testbed.Testbed) error {
			tb.Healthy64.Prefix = MismatchedPrefix
			return nil
		},
	})

	MustRegister(Pathology{
		Name: "nat64-checksum-corruption",
		Source: "Hsu et al., \"A First Look at NAT64 Deployment in the Wild\" " +
			"(translators emitting invalid L4 checksums after address rewriting)",
		Mechanism: "the gateway NAT64 flips the L4 checksum of every translated v6→v4 packet; " +
			"receivers verify and silently discard, so every translated path (synthesized AAAA " +
			"and CLAT alike) stalls while native IPv6 stays healthy",
		Install: func(tb *testbed.Testbed) error {
			tb.Gateway.NAT64.CorruptChecksums = true
			return nil
		},
	})

	MustRegister(Pathology{
		Name: "nat64-mtu-blackhole",
		Source: "Hsu et al., \"A First Look at NAT64 Deployment in the Wild\"; RFC 4821 §1 " +
			"(ICMP black holes breaking path MTU discovery)",
		Mechanism: "the gateway drops oversized packets without emitting ICMPv6 Packet Too Big " +
			"in either direction; PMTUD never converges, so small transfers work and anything " +
			"larger than the constrained 5G MTU stalls — the mirror's large-packet probe is the " +
			"only subtest that dies",
		Install: func(tb *testbed.Testbed) error {
			tb.Gateway.SuppressPTB(true)
			return nil
		},
	})

	MustRegister(Pathology{
		Name: "delegation-no-aaaa",
		Source: "Streibelt et al., \"How Ready Is DNS for an IPv6-Only World?\" " +
			"(zones delegated to nameservers without AAAA or glue are unresolvable from v6-only resolvers)",
		Mechanism: "the mirror zone is delegated to an in-bailiwick nameserver with neither an " +
			"AAAA record nor glue; the healthy resolver's authoritative transport is IPv6-only, " +
			"so every query under the zone — A and AAAA alike — answers SERVFAIL, while the " +
			"wildcard poisoner keeps fabricating A answers without ever consulting upstream",
		Install: func(tb *testbed.Testbed) error {
			d := dns.NewDelegated(tb.Healthy64.Inner)
			d.V6OnlyTransport = true
			d.Delegate(tb.Mirror.Name, dns.NSProfile{
				Name:    "ns6." + tb.Mirror.Name,
				HasAAAA: false,
				HasGlue: false,
			})
			tb.Healthy64.Inner = d
			return nil
		},
	})

	MustRegister(Pathology{
		Name: "dns-v4-interference",
		Source: "Martiny et al. (transport-asymmetric resolver interference: middleboxes " +
			"discarding one record type on the IPv4 path)",
		Mechanism: "an on-path middlebox silently eats AAAA queries on the IPv4-transport " +
			"(poisoned) resolver path; clients preferring that resolver get only the poisoned A " +
			"answer after an AAAA timeout and are herded to the intervention page, while " +
			"RDNSS-preferring clients never notice",
		Install: func(tb *testbed.Testbed) error {
			tb.PoisonLog.Inner = dnspoison.NewInterference(tb.PoisonLog.Inner, dnswire.TypeAAAA)
			return nil
		},
	})

	MustRegister(Pathology{
		Name: "nat64-port-exhaustion",
		Source: "Hsu et al., \"A First Look at NAT64 Deployment in the Wild\"; Boswell et al., " +
			"\"Measuring NAT64 Usage in the Wild\" (translators with small per-subscriber port " +
			"budgets refusing new flows under connection churn)",
		Mechanism: "the gateway NAT64 shrinks to an RFC 7422-style per-subscriber port block of " +
			fmt.Sprint(exhaustionQuota) + " external port and shortens every session timeout to " +
			"1.5 s; a client's first flow binds its whole block, any concurrent second flow is " +
			"refused with ICMPv6 Destination Unreachable (RFC 6146 §3.5.1.1), and capacity " +
			"returns as idle sessions expire",
		ScheduleDoc: "permanently armed (zero Schedule): the block size switches on at install " +
			"via Gate.OnTransition and never recovers on its own — recovery is per-flow, riding " +
			"the 1.5 s session idle-timeout expiry, so every 10 s-aligned trial starts with an " +
			"empty session table and observes an identical exhaustion curve. Budget sizes the " +
			"external port pool to block × devices, so shard worlds split the serial pool pro rata",
		InstallGated: func(tb *testbed.Testbed, gate *Gate) error {
			nat := tb.Gateway.NAT64
			nat.SetSessionTimeout(exhaustionTimeout)
			gate.OnTransition(func(active bool) {
				if active {
					nat.MaxSessionsPerSource = exhaustionQuota
				} else {
					nat.MaxSessionsPerSource = 0
				}
			})
			// Live-session totals are now dominated by expiry, not load;
			// sample them per trial so serial and sharded runs agree.
			tb.SampleNAT64PerTrial = true
			return nil
		},
		Budget: func(tb *testbed.Testbed, devices int) error {
			nat := tb.Gateway.NAT64
			cfg := nat.Config()
			maxPort := min(int(cfg.PortMin)+exhaustionQuota*devices-1, int(cfg.PortMax))
			return nat.SetPortRange(cfg.PortMin, uint16(maxPort))
		},
	})

	MustRegister(Pathology{
		Name: "dns64-flapping",
		Source: "Boswell et al., \"Measuring NAT64 Usage in the Wild\" (resolvers with " +
			"intermittent DNS64 function: AAAA synthesis present in some measurements of the " +
			"same resolver and absent in others)",
		Mechanism: "the healthy resolver's DNS64 stage intermittently wedges: during a " +
			"down-window every AAAA query is silently dropped (the daemon's IPv6 path hangs) " +
			"while A queries keep answering, so names flicker between resolving and timing " +
			"out — and because each timeout burns client-visible seconds, one probe suite " +
			"samples several flap phases and no two subtests need agree",
		ScheduleDoc: "flaps forever: every 2 s period carries one 900 ms down-window whose " +
			"offset is drawn once from the seeded splitmix64 stream and anchored to the " +
			"absolute 10 s trial grid — for this stream the draw lands the window at the " +
			"start of each period, the phase every grid-aligned probe samples. The install " +
			"caps SynthTTL and the resolver cache's negative TTL at 1 s so no cached answer " +
			"outlives the window that produced it",
		Schedule: Schedule{FlapEvery: 2 * time.Second, FlapDown: 900 * time.Millisecond,
			Seed: ScheduleSeed("dns64-flapping")},
		InstallGated: func(tb *testbed.Testbed, gate *Gate) error {
			tb.Healthy64.Suppress = gate.Down
			tb.Healthy64.SynthTTL = 1
			tb.HealthyCache.NegativeTTL = time.Second
			return nil
		},
	})

	MustRegister(Pathology{
		Name: "gateway-ra-outage",
		Source: "paper §IV (the 5G gateway's RA behavior is the testbed's weakest link); " +
			"RFC 4861 §6.2.5 / RFC 4862 §5.5.3 (router and address lifetimes decaying when " +
			"advertisements stop)",
		Mechanism: "the gateway goes RA-silent on a schedule: beacons and RS answers are " +
			"swallowed, and advertised lifetimes are shortened (valid 40 s, preferred 20 s, " +
			"router 15 s) so the silence bites — hosts joining inside the window never SLAAC, " +
			"hosts that joined before it lose their default route mid-window, and recovery is " +
			"the first beacon after the window reopens (renumbering-safe: the RA carries the " +
			"same prefix)",
		ScheduleDoc: "flaps forever: every 30 s period carries one 21.2 s silence window drawn " +
			"from the seeded splitmix64 stream, anchored to the absolute grid — for this " +
			"stream the draw lands the window at the start of each period, covering all " +
			"three 10 s beacon instants and every grid-aligned join. Trials align to the " +
			"full 30 s period (AlignPeriod) so each one observes the same outage phase, " +
			"keeping serial ≡ sharded intact",
		Schedule: Schedule{FlapEvery: 30 * time.Second, FlapDown: 21200 * time.Millisecond,
			Seed: ScheduleSeed("gateway-ra-outage")},
		InstallGated: func(tb *testbed.Testbed, gate *Gate) error {
			tb.Gateway.SetRAGate(gate.Down)
			tb.Gateway.SetRALifetimes(40*time.Second, 20*time.Second, 15*time.Second)
			return nil
		},
	})

	MustRegister(Pathology{
		Name: "dns-v6-interference",
		Source: "Martiny et al. (transport-asymmetric resolver interference: the IPv6 path " +
			"degraded while IPv4 resolution keeps working)",
		Mechanism: "the mirror-image middlebox eats AAAA queries on the RDNSS (IPv6-transport) " +
			"resolver path; clients with an IPv4-transport fallback resolver recover after the " +
			"timeout, but RDNSS-only clients are left with A-only answers (CLAT keeps them " +
			"partially alive) or nothing at all",
		Install: func(tb *testbed.Testbed) error {
			tb.HealthyLog.Inner = dnspoison.NewInterference(tb.HealthyLog.Inner, dnswire.TypeAAAA)
			return nil
		},
	})
}
