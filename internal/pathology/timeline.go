package pathology

import (
	"fmt"
	"time"

	"repro/internal/httpsim"
	"repro/internal/portal"
	"repro/internal/testbed"
)

// Canonical probe windows for ComputeTimeline: the pathology's own flap
// pattern is kept, but Onset/Active are overridden so one run observes
// all three lifecycle phases. The active probe lands one full slack
// after onset — 70 s, an instant on the 10 s beacon grid, so it sits at
// flap phase zero for grid-dividing periods and inside the down-window
// for grid-multiple ones, and decayed router lifetimes have expired.
const (
	timelineOnset  = 60 * time.Second
	timelineActive = 120 * time.Second
	timelineSlack  = 10 * time.Second
)

// Timeline is a stateful pathology's fingerprint sampled across its
// lifecycle: before onset (healthy baseline), inside the active phase
// (the failure biting), and after recovery. A recovered vector equal to
// the pre-onset one is itself diagnostic — the failure left no scar —
// while the active vector is what distinguishes pathologies from each
// other.
type Timeline struct {
	PreOnset  Fingerprint
	Active    Fingerprint
	Recovered Fingerprint
}

// String renders the three phase vectors, e.g.
// "pre=10/9/9/9/2/8 active=2/2/2/2/2/0 recovered=10/9/9/9/2/8".
func (t Timeline) String() string {
	return fmt.Sprintf("pre=%s active=%s recovered=%s", t.PreOnset, t.Active, t.Recovered)
}

// ComputeTimeline measures the named stateful pathology's phase-tagged
// fingerprints: one world per canonical profile, the pathology armed
// with its flap pattern but the canonical Onset/Active probe windows,
// and the *same* client probed in all three phases — so the recovered
// vector reflects genuine recovery of accumulated state (expired
// sessions, re-learned routes), not a fresh world. Budgets are not
// applied: the pool sizing is a sharding concern, and the timeline
// isolates the schedule's effect. Stateless pathologies have no
// timeline; use Compute.
func ComputeTimeline(name string) (Timeline, error) {
	var tl Timeline
	p, ok := registry[name]
	if !ok {
		return tl, fmt.Errorf("pathology: unknown %q (have %v)", name, Names())
	}
	if !p.Stateful() {
		return tl, fmt.Errorf("pathology %q: stateless pathologies have no timeline; use Compute", name)
	}
	sched := p.Schedule
	sched.Onset = timelineOnset
	sched.Active = timelineActive
	for i, prof := range FingerprintProfiles() {
		tb := testbed.New(testbed.DefaultOptions())
		if err := installWith(tb, p, sched); err != nil {
			tb.Close()
			return tl, err
		}
		// Probe instants are scheduled off the aligned grid instant, not
		// raw arm time: build costs a little virtual time, and only
		// grid instants are guaranteed to sit inside flap down-windows.
		// A pathology without a gated install sets no grid and joins
		// unaligned.
		if tb.AlignPeriod > 0 {
			tb.AlignTrial()
		}
		aligned := tb.Net.Clock.Now()
		c := tb.AddClient("probe", prof)
		probe := func(f *Fingerprint) {
			res := portal.Run(httpsim.Fetcher(c), tb.Mirror)
			f.Points[i] = portal.ScoreFixed(res).Points
			f.Codes[i] = res.OutcomeCodes()
		}
		runTo := func(target time.Time) {
			if d := target.Sub(tb.Net.Clock.Now()); d > 0 {
				tb.Net.RunFor(d)
			}
		}
		probe(&tl.PreOnset)
		runTo(aligned.Add(timelineOnset + timelineSlack))
		probe(&tl.Active)
		runTo(aligned.Add(timelineOnset + timelineActive + timelineSlack))
		probe(&tl.Recovered)
		tb.Close()
	}
	return tl, nil
}
