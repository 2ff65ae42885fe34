package testbed

import (
	"errors"

	"repro/internal/dhcp4"
	"repro/internal/dns"
	"repro/internal/gateway5g"
	"repro/internal/hoststack"
	"repro/internal/mgmtswitch"
	"repro/internal/netsim"
)

// This file is the world-reuse lifecycle. Building a world is cheap at
// small scale but dominates sweep cells at large scale: every cell of a
// chaos or pathology grid used to rebuild the full topology just to run
// a few hundred device trials in it. Checkpoint captures a built
// world's exact post-Build state — scheduler mark, every component's
// dynamic tables and counters, the pending beacon deadlines — and Reset
// rewinds to it, so a pooled world replays the next run byte-identically
// to a freshly built one (the Reset-vs-fresh golden digest test pins
// this).
//
// The contract is deliberately narrow: Checkpoint must be taken at the
// quiescent instant right after Build (plus any pathology install),
// before any client acts. At that instant the only pending timers are
// the two RA beacons, which their owners re-arm; everything else is
// state with no events in flight.

// ErrClientsBuilt is returned by Checkpoint for worlds whose spec
// populates Clients at build time: those hosts hold live DHCP timers
// that a clock rewind cannot reconstruct. Scenario worlds register
// clients per trial and never trip this.
var ErrClientsBuilt = errors.New("testbed: cannot checkpoint a world with built clients")

// ErrNoCheckpoint is returned by Reset when Checkpoint was never taken.
var ErrNoCheckpoint = errors.New("testbed: no checkpoint captured")

// checkpoint is the saved post-Build state of every mutable component.
type checkpoint struct {
	mark netsim.Mark

	gateway *gateway5g.Checkpoint
	mgmtsw  *mgmtswitch.Checkpoint
	access  []*netsim.SwitchSnapshot

	internetHost *hoststack.HostCheckpoint
	healthyPi    *hoststack.HostCheckpoint
	poisonPi     *hoststack.HostCheckpoint
	dhcpPi       *hoststack.HostCheckpoint
	dhcpServer   *dhcp4.Checkpoint

	healthyCache  *dns.CacheCheckpoint
	healthyLogLen int
	poisonLogLen  int
	activePoison  resolverBox
}

// Checkpoint captures the world's complete dynamic state at the current
// (quiescent) instant so Reset can rewind to it. It must be called
// before any client attaches; worlds built with spec.Clients populated
// return ErrClientsBuilt.
func (tb *Testbed) Checkpoint() error {
	if len(tb.Clients) > 0 {
		return ErrClientsBuilt
	}
	cp := &checkpoint{
		mark: tb.Net.Mark(),

		gateway: tb.Gateway.Checkpoint(),
		mgmtsw:  tb.Switch.Checkpoint(),

		internetHost: tb.Internet.Host.Checkpoint(),
		healthyPi:    tb.HealthyPi.Checkpoint(),
		poisonPi:     tb.PoisonPi.Checkpoint(),
		dhcpPi:       tb.DHCPPi.Checkpoint(),
		dhcpServer:   tb.DHCPServer.Checkpoint(),

		healthyCache:  tb.HealthyCache.Checkpoint(),
		healthyLogLen: tb.HealthyLog.Len(),
		poisonLogLen:  tb.PoisonLog.Len(),
		activePoison:  tb.poisonSwitch.active.Load().(resolverBox),
	}
	if tb.Fabric != nil {
		for _, asw := range tb.Fabric.Switches {
			cp.access = append(cp.access, asw.Snapshot())
		}
	}
	tb.cp = cp
	return nil
}

// Checkpointed reports whether Checkpoint has captured this world's
// post-Build state (i.e. whether Reset can rewind it).
func (tb *Testbed) Checkpointed() bool { return tb.cp != nil }

// Reset rewinds the world to its captured checkpoint: pending events
// and timers are dropped and re-armed, every component's dynamic tables
// and counters restore, run clients detach, and the virtual clock (and
// with it every pathology gate's phase and every PRNG-derived stream)
// lands back on the checkpoint instant. A reset world runs the next
// scenario byte-identically to a freshly built one.
func (tb *Testbed) Reset() error {
	cp := tb.cp
	if cp == nil {
		return ErrNoCheckpoint
	}
	tb.Net.ResetTo(cp.mark)

	// Re-arm order mirrors Build: gateway beacon, then switch beacon.
	// Relative timer order decides same-instant ties, so this must not
	// change.
	tb.Gateway.Restore(cp.gateway)
	tb.Switch.Restore(cp.mgmtsw)

	tb.Internet.Host.Restore(cp.internetHost)
	tb.HealthyPi.Restore(cp.healthyPi)
	tb.PoisonPi.Restore(cp.poisonPi)
	tb.DHCPPi.Restore(cp.dhcpPi)
	tb.DHCPServer.Restore(cp.dhcpServer)

	tb.HealthyCache.Restore(cp.healthyCache)
	tb.HealthyLog.Restore(cp.healthyLogLen)
	tb.PoisonLog.Restore(cp.poisonLogLen)
	tb.poisonSwitch.active.Store(cp.activePoison)

	if tb.Fabric != nil {
		for i, asw := range tb.Fabric.Switches {
			asw.RestoreSnapshot(cp.access[i])
		}
		tb.Fabric.Table.ResetRows()
		clear(tb.Fabric.active)
		clear(tb.Fabric.macDomain)
	}

	// Nil the slots before truncating: the backing array would otherwise
	// keep every finished Host (NIC, caches, TCP state, event journal)
	// reachable until a later run overwrites its slot.
	clear(tb.Clients)
	tb.Clients = tb.Clients[:0]
	return nil
}
