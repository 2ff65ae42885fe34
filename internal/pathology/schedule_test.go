package pathology

import (
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/testbed"
)

func TestScheduleSeedDeterministic(t *testing.T) {
	if ScheduleSeed("dns64-flapping") != ScheduleSeed("dns64-flapping") {
		t.Fatal("ScheduleSeed not deterministic")
	}
	if ScheduleSeed("dns64-flapping") == ScheduleSeed("gateway-ra-outage") {
		t.Fatal("ScheduleSeed collides across names")
	}
}

func TestScheduleValidate(t *testing.T) {
	cases := []struct {
		name string
		s    Schedule
		want string // substring of the error, "" for valid
	}{
		{"zero", Schedule{}, ""},
		{"onset only", Schedule{Onset: time.Second}, ""},
		{"solid active", Schedule{Onset: time.Second, Active: time.Minute}, ""},
		{"grid-dividing flap", Schedule{FlapEvery: 2 * time.Second, FlapDown: 900 * time.Millisecond}, ""},
		{"grid-multiple flap", Schedule{FlapEvery: 30 * time.Second, FlapDown: 21200 * time.Millisecond}, ""},
		{"negative onset", Schedule{Onset: -time.Second}, "negative"},
		{"negative flap", Schedule{FlapEvery: -time.Second}, "negative"},
		{"down without period", Schedule{FlapDown: time.Second}, "FlapDown without FlapEvery"},
		{"down too long", Schedule{FlapEvery: 2 * time.Second, FlapDown: 2 * time.Second}, "inside"},
		{"down zero", Schedule{FlapEvery: 2 * time.Second}, "inside"},
		{"incommensurable", Schedule{FlapEvery: 3 * time.Second, FlapDown: time.Second}, "incommensurable"},
		{"incommensurable multiple", Schedule{FlapEvery: 25 * time.Second, FlapDown: time.Second}, "incommensurable"},
	}
	for _, tc := range cases {
		err := tc.s.validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: validate() = %v, want nil", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: validate() = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

func TestScheduleAlignPeriod(t *testing.T) {
	cases := []struct {
		s    Schedule
		want time.Duration
	}{
		{Schedule{}, 10 * time.Second},
		{Schedule{FlapEvery: 2 * time.Second, FlapDown: time.Second}, 10 * time.Second},
		{Schedule{FlapEvery: 30 * time.Second, FlapDown: time.Second}, 30 * time.Second},
	}
	for _, tc := range cases {
		if got := tc.s.AlignPeriod(); got != tc.want {
			t.Errorf("AlignPeriod(%+v) = %v, want %v", tc.s, got, tc.want)
		}
	}
}

// TestRegisterStatefulValidation checks the stateful registration
// contract: ScheduleDoc required, only shard-safe schedules accepted,
// and exactly one install flavor.
func TestRegisterStatefulValidation(t *testing.T) {
	gated := func(*testbed.Testbed, *Gate) error { return nil }
	install := func(*testbed.Testbed) error { return nil }
	cases := []struct {
		name string
		p    Pathology
		want string
	}{
		{"missing ScheduleDoc", Pathology{Name: "x-stateful", Source: "s", Mechanism: "m",
			InstallGated: gated}, "ScheduleDoc"},
		{"both installs", Pathology{Name: "x-both", Source: "s", Mechanism: "m",
			Install: install, InstallGated: gated, ScheduleDoc: "d"}, "mutually exclusive"},
		{"onset not shard-safe", Pathology{Name: "x-onset", Source: "s", Mechanism: "m",
			InstallGated: gated, ScheduleDoc: "d",
			Schedule: Schedule{Onset: time.Minute}}, "Onset and Active zero"},
		{"active not shard-safe", Pathology{Name: "x-active", Source: "s", Mechanism: "m",
			InstallGated: gated, ScheduleDoc: "d",
			Schedule: Schedule{Active: time.Minute}}, "Onset and Active zero"},
		{"invalid flap", Pathology{Name: "x-flap", Source: "s", Mechanism: "m",
			InstallGated: gated, ScheduleDoc: "d",
			Schedule: Schedule{FlapEvery: 3 * time.Second, FlapDown: time.Second}}, "incommensurable"},
		{"budget without doc", Pathology{Name: "x-budget", Source: "s", Mechanism: "m",
			Install: install,
			Budget:  func(*testbed.Testbed, int) error { return nil }}, "ScheduleDoc"},
	}
	for _, tc := range cases {
		if err := Register(tc.p); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Register = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

// TestGateZeroSchedule checks "permanently active from install": the
// zero Schedule's gate is down from arm time onward, and OnTransition
// hooks learn the active state immediately.
func TestGateZeroSchedule(t *testing.T) {
	clk := netsim.NewClock()
	g := Schedule{}.Arm(clk)
	if !g.Down() {
		t.Fatal("zero schedule not down at arm time")
	}
	var state bool
	g.OnTransition(func(active bool) { state = active })
	if !state {
		t.Fatal("OnTransition not invoked immediately with active state")
	}
}

// TestGateOnsetRecovery drives a gate through its lifecycle on a world
// clock: inactive before onset, down during the active window, and
// recovered for good after it — with the transition hook firing at both
// edges as deterministic timer events.
func TestGateOnsetRecovery(t *testing.T) {
	tb := testbed.New(testbed.DefaultOptions())
	defer tb.Close()
	clk := tb.Net.Clock
	g := Schedule{Onset: 5 * time.Second, Active: 10 * time.Second}.Arm(clk)
	var transitions []bool
	g.OnTransition(func(active bool) { transitions = append(transitions, active) })

	if g.Down() {
		t.Fatal("down before onset")
	}
	tb.Net.RunFor(6 * time.Second) // inside the active window
	if !g.Down() {
		t.Fatal("not down inside the active window")
	}
	tb.Net.RunFor(10 * time.Second) // past onset+active
	if g.Down() {
		t.Fatal("still down after recovery")
	}
	want := []bool{false, true, false} // immediate invoke, onset, recovery
	if len(transitions) != len(want) {
		t.Fatalf("transitions = %v, want %v", transitions, want)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Fatalf("transitions = %v, want %v", transitions, want)
		}
	}
}

// TestGateFlapAnchoredToGrid checks the anchor contract that makes
// serial ≡ sharded hold under flapping: the down-window pattern is a
// function of absolute grid time, not of arm time, so two gates armed
// at different instants agree on which wall instants are down.
func TestGateFlapAnchoredToGrid(t *testing.T) {
	sched := Schedule{FlapEvery: 2 * time.Second, FlapDown: 900 * time.Millisecond,
		Seed: ScheduleSeed("dns64-flapping")}

	tb := testbed.New(testbed.DefaultOptions())
	defer tb.Close()
	early := sched.Arm(tb.Net.Clock)
	tb.Net.RunFor(3700 * time.Millisecond) // mid-period, mid-window arm point
	late := sched.Arm(tb.Net.Clock)

	// Sample both gates at 100 ms steps across two periods: they must
	// agree everywhere, and the pattern must show one 900 ms down-window
	// per 2 s period.
	downs := 0
	for i := 0; i < 40; i++ {
		e, l := early.Down(), late.Down()
		if e != l {
			t.Fatalf("step %d: gates disagree (early=%v late=%v)", i, e, l)
		}
		if e {
			downs++
		}
		tb.Net.RunFor(100 * time.Millisecond)
	}
	if downs != 2*9 {
		t.Fatalf("down samples = %d over two periods, want 18 (2 × 900 ms at 100 ms steps)", downs)
	}
}

// TestGateRegisteredOffsetsCoverGridPhase pins the seed-engineered
// property the fingerprint tables rely on: both registered flapping
// schedules draw offset zero, so a grid-aligned instant (phase 0) sits
// inside the down-window.
func TestGateRegisteredOffsetsCoverGridPhase(t *testing.T) {
	for _, name := range []string{"dns64-flapping", "gateway-ra-outage"} {
		p, ok := Get(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		tb := testbed.New(testbed.DefaultOptions())
		g := p.Schedule.Arm(tb.Net.Clock)
		tb.AlignPeriod = p.Schedule.AlignPeriod()
		tb.AlignTrial()
		if !g.Down() {
			t.Errorf("%s: grid-aligned instant not inside the down-window", name)
		}
		tb.Close()
	}
}
