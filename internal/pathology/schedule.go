package pathology

import (
	"fmt"
	"time"

	"repro/internal/ndp"
	"repro/internal/netsim"
)

// Schedule describes the lifecycle of a stateful pathology in virtual
// time: an onset delay before the failure activates, an active-phase
// length after which it recovers, and an optional flap pattern that
// makes the failure intermittent while active. The flap down-window's
// position inside each period is drawn once, at arm time, from the
// repo's seeded splitmix64 stream — the same PRNG family behind
// netsim.Impairment — so the pattern is identical in every world built
// from the same spec.
//
// The zero Schedule is "permanently active from install": Down() is
// true forever once armed. Registered pathologies must keep Onset and
// Active zero (a mid-run onset measured from install time would differ
// between a serial world and a shard world, breaking position
// independence); ComputeTimeline overrides them with canonical probe
// windows on fresh single-probe worlds, where absolute time is private
// to the measurement.
type Schedule struct {
	// Onset is the delay from arm (install) time until the failure
	// activates. Must be zero on registered pathologies.
	Onset time.Duration
	// Active is the active-phase length; after Onset+Active the failure
	// recovers for good. Zero means the failure never recovers on its
	// own. Must be zero on registered pathologies.
	Active time.Duration
	// FlapEvery is the flap period while active: each period contains
	// one FlapDown-long outage window. Zero means the failure is solid
	// for the whole active phase. Must divide the 10 s beacon grid or be
	// a multiple of it.
	FlapEvery time.Duration
	// FlapDown is the outage-window length inside each flap period.
	FlapDown time.Duration
	// Seed selects the splitmix64 stream that positions the down-window
	// inside the period; ScheduleSeed derives one from a pathology name.
	Seed uint64
}

// ScheduleSeed derives a schedule's PRNG seed from a pathology name
// with the same FNV-1a + splitmix64-finalizer recipe the testbed uses
// for per-client chaos seeds, so the flap pattern is a pure function of
// the name.
func ScheduleSeed(name string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 0x100000001b3
	}
	z := h + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// splitmix64 is the repo's standard tiny deterministic PRNG (identical
// to netsim's unexported copy); schedules use it to place the flap
// down-window.
type splitmix64 struct{ state uint64 }

func (s *splitmix64) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Stateful reports whether the schedule carries any lifecycle at all.
func (s Schedule) Stateful() bool { return s != (Schedule{}) }

// AlignPeriod is the trial-alignment period a world running this
// schedule needs: the beacon grid itself, or the flap period when it is
// a multiple of the grid. Trials aligned to this period always observe
// the same schedule phase.
func (s Schedule) AlignPeriod() time.Duration {
	if s.FlapEvery > ndp.RAInterval {
		return s.FlapEvery
	}
	return ndp.RAInterval
}

// validate checks the flap pattern's internal consistency and its
// commensurability with the beacon grid (ndp.RAInterval, the period
// trials are aligned to): FlapEvery must divide it or be a multiple of
// it, so that every grid-aligned trial observes the same schedule
// phase — the precondition for serial ≡ sharded equality with a
// flapping pathology active.
func (s Schedule) validate() error {
	if s.FlapEvery < 0 || s.FlapDown < 0 || s.Onset < 0 || s.Active < 0 {
		return fmt.Errorf("pathology: negative schedule durations")
	}
	if s.FlapEvery == 0 {
		if s.FlapDown != 0 {
			return fmt.Errorf("pathology: FlapDown without FlapEvery")
		}
		return nil
	}
	if s.FlapDown <= 0 || s.FlapDown >= s.FlapEvery {
		return fmt.Errorf("pathology: FlapDown %v must be inside (0, FlapEvery %v)", s.FlapDown, s.FlapEvery)
	}
	if ndp.RAInterval%s.FlapEvery != 0 && s.FlapEvery%ndp.RAInterval != 0 {
		return fmt.Errorf("pathology: FlapEvery %v is incommensurable with the %v beacon grid", s.FlapEvery, ndp.RAInterval)
	}
	return nil
}

// shardSafe reports whether the schedule may be registered: only
// grid-commensurable flap patterns with zero Onset/Active phases keep a
// trial's view of the schedule independent of its position in the run.
func (s Schedule) shardSafe() bool {
	return s.Onset == 0 && s.Active == 0 && s.validate() == nil
}

// Gate is an armed Schedule on one world's virtual clock. Mechanisms
// poll Down at decision points (should this RA be suppressed? should
// this AAAA go unsynthesized?); phase transitions additionally fire as
// deterministic netsim timer events for hooks registered with
// OnTransition (a quota that switches on at onset and off at recovery).
type Gate struct {
	sched  Schedule
	now    func() time.Time
	armed  time.Time
	anchor time.Time
	offset time.Duration
	hooks  []func(active bool)
}

// Arm installs the schedule on a world clock: it draws the flap
// down-window offset from the seeded splitmix64 stream and schedules
// the onset/recovery transitions as virtual-time events. The flap
// pattern is anchored to the absolute alignment grid (all worlds share
// one clock epoch), so two worlds armed at different build instants
// still agree on which wall instants are down — the property fabric
// subtree worlds need.
func (s Schedule) Arm(clk *netsim.Clock) *Gate {
	g := &Gate{sched: s, now: clk.Now, armed: clk.Now()}
	// Anchor to the alignment grid in Unix time — the same arithmetic
	// the scenario engine's trial aligner uses — so an aligned trial
	// start always sits at flap phase zero.
	g.anchor = g.armed.Add(-time.Duration(g.armed.UnixNano() % int64(s.AlignPeriod())))
	if span := s.FlapEvery - s.FlapDown; span > 0 {
		prng := splitmix64{state: s.Seed}
		// Quantize the offset to 100 ms slots: coarse enough to document,
		// fine enough that patterns with different seeds rarely collide.
		const slot = 100 * time.Millisecond
		slots := uint64(span/slot) + 1
		g.offset = time.Duration(prng.next()%slots) * slot
	}
	if s.Onset > 0 {
		clk.AfterFunc(s.Onset, func() { g.fire(true) })
	}
	if s.Active > 0 {
		clk.AfterFunc(s.Onset+s.Active, func() { g.fire(false) })
	}
	return g
}

// OnTransition registers fn to run at the onset and recovery events;
// it is invoked immediately with the current phase state so installs
// running after onset (the registered Onset=0 case) start correct.
func (g *Gate) OnTransition(fn func(active bool)) {
	g.hooks = append(g.hooks, fn)
	fn(g.phaseActive())
}

func (g *Gate) fire(active bool) {
	for _, fn := range g.hooks {
		fn(active)
	}
}

// phaseActive reports whether virtual time sits inside the active phase
// (ignoring the flap pattern).
func (g *Gate) phaseActive() bool {
	el := g.now().Sub(g.armed)
	if el < g.sched.Onset {
		return false
	}
	return g.sched.Active == 0 || el < g.sched.Onset+g.sched.Active
}

// Down reports whether the failure is biting right now: inside the
// active phase and — when a flap pattern is set — inside the current
// period's down-window. It is a pure function of virtual time, so
// polling callers need no event ordering guarantees.
func (g *Gate) Down() bool {
	if !g.phaseActive() {
		return false
	}
	if g.sched.FlapEvery == 0 {
		return true
	}
	ph := g.now().Sub(g.anchor) % g.sched.FlapEvery
	return ph >= g.offset && ph < g.offset+g.sched.FlapDown
}
