package scenario

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/profiles"
	"repro/internal/testbed"
)

func TestPopulationDeterministic(t *testing.T) {
	a := Population(42, 50, DefaultMix())
	b := Population(42, 50, DefaultMix())
	if len(a) != 50 || len(b) != 50 {
		t.Fatalf("sizes %d/%d", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Profile.Name != b[i].Profile.Name {
			t.Fatalf("population not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := Population(43, 50, DefaultMix())
	same := true
	for i := range a {
		if a[i].Profile.Name != c[i].Profile.Name {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical populations")
	}
}

func TestPopulationCoversMix(t *testing.T) {
	devs := Population(7, 300, DefaultMix())
	seen := map[string]int{}
	for _, d := range devs {
		seen[d.Profile.Name]++
	}
	// With 300 draws every profile in the mix should appear.
	for _, m := range DefaultMix() {
		if seen[m.Profile.Name] == 0 {
			t.Errorf("profile %q never drawn", m.Profile.Name)
		}
	}
	// The heaviest profile should be drawn most often among the top few.
	if seen["Windows 10"] < seen["Windows XP"] {
		t.Errorf("weights not respected: %v", seen)
	}
}

func TestScenarioSC23VsSC24Counting(t *testing.T) {
	devices := Population(1, 30, DefaultMix())

	// SC23 baseline: no DNS intervention.
	optBase := testbed.DefaultOptions()
	optBase.Poison = testbed.PoisonOff
	base := Run(testbed.New(optBase), devices)

	// SC24: wildcard intervention.
	sc24 := Run(testbed.New(testbed.DefaultOptions()), devices)

	if base.Joined != 30 || sc24.Joined != 30 {
		t.Fatalf("joined %d/%d", base.Joined, sc24.Joined)
	}
	// At the baseline nobody is informed; with the intervention, exactly
	// the IPv4-only browsers are.
	if base.Informed != 0 {
		t.Errorf("baseline informed = %d", base.Informed)
	}
	v4onlyBrowsers := 0
	for _, d := range devices {
		if d.Profile.IPv4Only() && !d.EcholinkOnly {
			v4onlyBrowsers++
		}
	}
	if sc24.Informed != v4onlyBrowsers {
		t.Errorf("sc24 informed = %d, want %d (the IPv4-only browsers)", sc24.Informed, v4onlyBrowsers)
	}
	// Counting accuracy improves: overcount shrinks (v4-only clients left
	// the SSID) but need not hit zero (Echolink literal users remain).
	if sc24.Overcount > base.Overcount {
		t.Errorf("overcount got worse: %d -> %d", base.Overcount, sc24.Overcount)
	}
	if sc24.ReportedSSIDClients != 30-sc24.Informed {
		t.Errorf("reported = %d", sc24.ReportedSSIDClients)
	}
	// Everyone not informed still has working internet in both worlds.
	if base.InternetOK != 30 {
		t.Errorf("baseline internet = %d/30", base.InternetOK)
	}
	if sc24.InternetOK != 30-sc24.Informed {
		t.Errorf("sc24 internet = %d, want %d", sc24.InternetOK, 30-sc24.Informed)
	}
}

func TestAdoptionMixWeights(t *testing.T) {
	total := func(mix []MixEntry) int {
		n := 0
		for _, m := range mix {
			n += m.Weight
		}
		return n
	}
	base := total(AdoptionMix(0))
	for _, f := range []float64{0, 0.25, 0.5, 0.75, 1, -1, 2} {
		if got := total(AdoptionMix(f)); got != base {
			t.Errorf("AdoptionMix(%v) total weight = %d, want %d", f, got, base)
		}
	}
	// At 0: no RFC 8925 Windows; at 1: no legacy Windows.
	for _, m := range AdoptionMix(0) {
		if m.Profile.Name == "Windows 11 (RFC 8925)" {
			t.Error("refreshed profile present at fraction 0")
		}
	}
	for _, m := range AdoptionMix(1) {
		if (m.Profile.Name == "Windows 10" && !m.EcholinkOnly) || m.Profile.Name == "Windows 11" {
			t.Errorf("legacy Windows %q present at fraction 1", m.Profile.Name)
		}
	}
	// The v4-DNS-preferring Windows 11 builds are refreshed first.
	for _, m := range AdoptionMix(0.5) {
		if m.Profile.Name == "Windows 11" {
			t.Error("Windows 11 (v4 DNS) should be fully refreshed at 50%")
		}
	}
}

func TestAdoptionSweepReducesPoisonedExposure(t *testing.T) {
	run := func(frac float64) int {
		devices := Population(2, 25, AdoptionMix(frac))
		tb := testbed.New(testbed.DefaultOptions())
		Run(tb, devices)
		return tb.PoisonLog.Len()
	}
	unrefreshed := run(0)
	refreshed := run(1)
	if refreshed >= unrefreshed {
		t.Errorf("poisoned exposure did not shrink: %d -> %d", unrefreshed, refreshed)
	}
}

func TestNATBurdenCounters(t *testing.T) {
	devices := []DeviceSpec{
		{Name: "console", Profile: profiles.NintendoSwitch()},
		{Name: "phone", Profile: profiles.IOS()},
	}
	rep := Run(testbed.New(testbed.DefaultOptions()), devices)
	if rep.NAT44LogEntries == 0 {
		t.Error("the IPv4-only console's intervention fetch should have logged NAT44 sessions")
	}
	if rep.NAT64Sessions == 0 {
		t.Error("the RFC 8925 phone should have NAT64 sessions")
	}
}

func TestEcholinkOnlyDeviceStillPollutesCount(t *testing.T) {
	// Fig. 2's lesson: a DNS intervention cannot stop IPv4-literal
	// applications, so an Echolink-only device keeps working and keeps
	// counting toward the SSID statistic even at SC24.
	devices := []DeviceSpec{
		{Name: "ham-laptop", Profile: profiles.Windows10(), EcholinkOnly: true},
	}
	rep := Run(testbed.New(testbed.DefaultOptions()), devices)
	if rep.Informed != 0 {
		t.Error("literal-only device was informed (DNS intervention should not touch it)")
	}
	if rep.InternetOK != 1 {
		t.Error("echolink stopped working under the DNS intervention")
	}
	if rep.Overcount != 1 {
		t.Errorf("overcount = %d, want 1 (the v4-literal user is still counted)", rep.Overcount)
	}
	if rep.Devices[0].Class != metrics.ClassV4Only {
		t.Errorf("class = %s, want ipv4-only", rep.Devices[0].Class)
	}
}
