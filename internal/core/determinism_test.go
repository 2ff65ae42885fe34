package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/profiles"
	"repro/internal/testbed"
)

// The simulator's headline property: identical inputs produce identical
// runs — same outcomes, same frame counts, same DNS traffic — because
// all scheduling happens on the virtual clock in (time, seq) order.

func fingerprint(tb *testbed.Testbed) string {
	s := fmt.Sprintf("frames=%d healthy=%d poison=%d snoop=%d ras=%d nat64=%d",
		tb.Net.Stats().FramesDelivered, tb.HealthyLog.Len(), tb.PoisonLog.Len(),
		tb.Switch.SnoopedDrops, tb.Gateway.RAsSent, tb.Gateway.NAT64.SessionCount())
	for _, c := range tb.Clients {
		o := Evaluate(tb, c)
		s += fmt.Sprintf("|%s:%s:%s:%s", o.Profile, o.Class, o.BuggyScore, o.FixedScore)
	}
	return s
}

func runOnce() string {
	tb := testbed.New(testbed.DefaultOptions())
	tb.AddClient("mac", profiles.MacOS())
	tb.AddClient("win10", profiles.Windows10())
	tb.AddClient("xp", profiles.WindowsXP())
	tb.AddClient("console", profiles.NintendoSwitch())
	return fingerprint(tb)
}

func TestSimulationIsDeterministic(t *testing.T) {
	a := runOnce()
	b := runOnce()
	if a != b {
		t.Errorf("two identical runs diverged:\n  %s\n  %s", a, b)
	}
}

func TestDNSCacheServesRepeatLookups(t *testing.T) {
	tb := testbed.New(testbed.DefaultOptions())
	c := tb.AddClient("linux", profiles.Linux())

	if _, err := c.Lookup("sc24.supercomputing.org"); err != nil {
		t.Fatal(err)
	}
	upstream := tb.HealthyLog.Len()
	// Repeat lookups hit the healthy Pi's TTL cache: the inner resolver
	// (and its DNS64 synthesis) is not consulted again.
	for i := 0; i < 5; i++ {
		if _, err := c.Lookup("sc24.supercomputing.org"); err != nil {
			t.Fatal(err)
		}
	}
	if got := tb.HealthyLog.Len(); got != upstream {
		t.Errorf("cache miss on repeats: inner queries %d -> %d", upstream, got)
	}

	// After the record TTL (300s), the cache refreshes from upstream.
	tb.Net.RunFor(11 * time.Minute)
	if _, err := c.Lookup("sc24.supercomputing.org"); err != nil {
		t.Fatal(err)
	}
	if got := tb.HealthyLog.Len(); got == upstream {
		t.Error("cache never expired")
	}
}
