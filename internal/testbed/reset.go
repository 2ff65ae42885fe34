package testbed

import (
	"errors"

	"repro/internal/netsim"
)

// This file is the world-reuse lifecycle. Building a world is cheap at
// small scale but dominates sweep cells at large scale: every cell of a
// chaos or pathology grid used to rebuild the full topology just to run
// a few hundred device trials in it. Checkpoint captures a built
// world's exact post-Build state and Reset rewinds to it, so a pooled
// world replays the next run byte-identically to a freshly built one
// (the Reset-vs-fresh golden digest test pins this).
//
// Every checkpointed component keeps what a run changes in one state
// struct (DESIGN.md §3h): its Checkpoint saves a copy inside the
// component and its Restore copies it back. The testbed only lists the
// components, in Build order, and walks the list.
//
// The contract is deliberately narrow: Checkpoint must be taken at the
// quiescent instant right after Build (plus any pathology install),
// before any client acts. At that instant the only pending timers are
// the two RA beacons, which the network clock re-arms; everything else is
// state with no events in flight.

// ErrClientsBuilt is returned by Checkpoint when a client joined the
// world (AddClient) before it: the client's host holds live DHCP
// timers that a clock rewind cannot reconstruct. Scenario worlds add
// clients per trial, after the checkpoint, and never trip this.
var ErrClientsBuilt = errors.New("testbed: cannot checkpoint a world with built clients")

// ErrNoCheckpoint is returned by Reset when Checkpoint was never taken.
var ErrNoCheckpoint = errors.New("testbed: no checkpoint captured")

// component is one checkpointed part of the world: Checkpoint saves its
// state inside it and Restore copies that state back.
type component interface {
	Checkpoint()
	Restore()
}

// Checkpoint captures the world's complete dynamic state at the current
// (quiescent) instant so Reset can rewind to it. It must be called
// before any client joins; a world a client already joined returns
// ErrClientsBuilt.
func (tb *Testbed) Checkpoint() error {
	if len(tb.Clients) > 0 {
		return ErrClientsBuilt
	}
	// Build order. No Restore depends on another's: the network clock
	// re-arms the timers pending at the checkpoint (the two RA beacons)
	// with their original arm order, so devices re-arm nothing.
	tb.components = []component{
		tb.Net, tb.Internet.Host, tb.Gateway, tb.Switch,
		tb.HealthyPi, tb.Healthy64, tb.HealthyLog, tb.HealthyCache,
		tb.PoisonPi,
	}
	switch {
	case tb.Wildcard != nil:
		tb.components = append(tb.components, tb.Wildcard)
	case tb.RPZ != nil:
		tb.components = append(tb.components, tb.RPZ)
	}
	tb.components = append(tb.components, tb.poisonSwitch, tb.PoisonLog, tb.DHCPPi, tb.DHCPServer)
	if tb.Fabric != nil {
		tb.components = append(tb.components, tb.Fabric)
	}
	for _, c := range tb.components {
		c.Checkpoint()
	}
	return nil
}

// Reset rewinds the world to its captured checkpoint: pending events
// and timers are dropped and re-armed, every component's dynamic tables
// and counters restore, run clients detach, and the virtual clock (and
// with it every pathology gate's phase and every PRNG-derived stream)
// lands back on the checkpoint instant. A reset world runs the next
// scenario byte-identically to a freshly built one.
func (tb *Testbed) Reset() error {
	if tb.components == nil {
		return ErrNoCheckpoint
	}
	for _, c := range tb.components {
		c.Restore()
	}
	// Nil the slots before truncating: the backing array would otherwise
	// keep every finished Host (NIC, caches, TCP state, event journal)
	// reachable until a later run overwrites its slot.
	clear(tb.Clients)
	tb.Clients = tb.Clients[:0]
	return nil
}

// Checkpoint saves the resolver the poisoned Pi answers through.
func (s *switchableResolver) Checkpoint() { s.saved = s.active.Load() }

// Restore swaps the checkpoint's resolver back in.
func (s *switchableResolver) Restore() { s.active.Store(s.saved) }

// Checkpoint saves the fabric's materialized-client tables and its
// access switches' state. The rows themselves hold no state to save.
func (fb *Fabric) Checkpoint() {
	fb.saved = new(fabricState)
	fb.fabricState.copyInto(fb.saved)
	for _, asw := range fb.Switches {
		asw.Checkpoint()
	}
}

// Restore rewinds the access tier to its checkpoint, forgetting the
// run's materialized clients.
func (fb *Fabric) Restore() {
	fb.saved.copyInto(&fb.fabricState)
	for _, asw := range fb.Switches {
		asw.Restore()
	}
}

func (s *fabricState) copyInto(dst *fabricState) {
	dst.active = netsim.RefillMap(dst.active, s.active)
	dst.macDomain = netsim.RefillMap(dst.macDomain, s.macDomain)
}
