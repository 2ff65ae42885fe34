// Package scenario generates synthetic conference-floor device
// populations (the SC23v6/SC24v6 wireless network in miniature) and
// runs them against a testbed configuration. It produces the client
// counting numbers behind the paper's §III.A motivation: how accurate
// is the "IPv6-only client count" with and without the IPv4 DNS
// intervention, and how IPv4-literal applications (Fig. 2's Echolink
// station) pollute the statistic either way.
//
// Run brings a population up serially on one world; RunShardedSized
// splits it across K independently built worlds (a SizedWorldFactory
// supplies them) and folds the per-shard reports with MergeReports — on
// a position-independent topology the merged aggregates equal the
// serial run's exactly, which the tests pin byte for byte. RunFabric
// does the same over the access-switch subtrees of a fabric topology,
// through the same shard executor. RunOptions layers fault injection on
// every engine: per-device gateway reboots with re-convergence probing,
// over link impairment carried by the world's topology spec (ChaosSpec
// builds one). The package is only the engine: the sweeps that drive it
// over loss, churn and pathology grids live in cmd/experiments.
package scenario

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/hoststack"
	"repro/internal/httpsim"
	"repro/internal/metrics"
	"repro/internal/profiles"
	"repro/internal/testbed"
)

// DeviceSpec is one attendee device.
type DeviceSpec struct {
	Name    string
	Profile hoststack.Behavior
	// EcholinkOnly devices join solely for an IPv4-literal service
	// (the paper's Fig. 2 amateur-radio laptop); they never browse.
	EcholinkOnly bool
}

// MixEntry weights one profile in the population.
type MixEntry struct {
	Profile      hoststack.Behavior
	Weight       int
	EcholinkOnly bool
}

// DefaultMix approximates an SC show-floor population: mostly modern
// RFC 8925-capable phones and laptops, a tail of legacy devices, and a
// couple of IPv4-literal specialists.
func DefaultMix() []MixEntry {
	return []MixEntry{
		{Profile: profiles.IOS(), Weight: 20},
		{Profile: profiles.Android(), Weight: 15},
		{Profile: profiles.MacOS(), Weight: 15},
		{Profile: profiles.Windows10(), Weight: 25},
		{Profile: profiles.Windows11(), Weight: 10},
		{Profile: profiles.Linux(), Weight: 6},
		{Profile: profiles.NintendoSwitch(), Weight: 4},
		{Profile: profiles.WindowsXP(), Weight: 2},
		{Profile: profiles.Windows10(), Weight: 3, EcholinkOnly: true},
	}
}

// Population draws n devices from the mix, deterministically for a seed.
// Entries with non-positive weight are ignored; a mix whose total weight
// is zero or negative (or an empty mix) deterministically yields an
// empty population instead of panicking inside the RNG.
func Population(seed int64, n int, mix []MixEntry) []DeviceSpec {
	return population(rand.New(rand.NewSource(seed)), n, mix)
}

// population is Population drawing from rng, which the caller has
// seeded; fabric runs reseed one rng per domain instead of building a
// source per draw.
func population(rng *rand.Rand, n int, mix []MixEntry) []DeviceSpec {
	total := 0
	for _, m := range mix {
		if m.Weight > 0 {
			total += m.Weight
		}
	}
	if total <= 0 || n <= 0 {
		return []DeviceSpec{}
	}
	out := make([]DeviceSpec, 0, n)
	for i := 0; i < n; i++ {
		pick := rng.Intn(total)
		for _, m := range mix {
			if m.Weight <= 0 {
				continue
			}
			if pick < m.Weight {
				name := fmt.Sprintf("dev%03d-%s", i, shortName(m.Profile.Name))
				out = append(out, DeviceSpec{Name: name, Profile: m.Profile, EcholinkOnly: m.EcholinkOnly})
				break
			}
			pick -= m.Weight
		}
	}
	return out
}

func shortName(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			out = append(out, r)
		case r >= 'A' && r <= 'Z':
			out = append(out, r+32)
		}
	}
	return string(out)
}

// DeviceResult records one device's experience.
type DeviceResult struct {
	Spec     DeviceSpec
	Class    metrics.Class
	Informed bool // landed on the intervention page
	Internet bool // reached real content
	UsedIPv6 bool // the successful path was IPv6

	// Churned reports whether this device went through a reboot trial
	// (chaos runs with RunOptions.RebootsPerDevice > 0 probe only
	// devices whose initial workload had a definitive outcome).
	Churned bool
	// Reconverged reports whether the device re-established a working
	// outcome after the reboot storm within ConvergeTimeout.
	Reconverged bool
	// ConvergeTime is the virtual time from the last reboot until the
	// device's workload succeeded again (meaningful when Reconverged).
	ConvergeTime time.Duration

	// Flows accounts this device's heavy-traffic streaming workload
	// (zero unless the run set RunOptions.Traffic and the device had
	// working internet access).
	Flows FlowStats
}

// ProfileCount tallies one client profile's outcomes across a run.
type ProfileCount struct {
	Devices    int
	InternetOK int
}

// Report aggregates a scenario run. Every aggregate field folds
// incrementally as trials finish (O(1) state per trial), so a report
// stays exact even when Devices is discarded via
// RunOptions.DiscardDevices or streamed out through RunOptions.Sink.
type Report struct {
	// Devices retains every per-device result in trial order. Runs with
	// DiscardDevices leave it empty; the aggregate fields below are
	// complete either way.
	Devices []DeviceResult

	// Joined is the population size; Informed counts devices that hit the
	// intervention; InternetOK counts devices with working access.
	Joined     int
	Informed   int
	InternetOK int

	// ReportedSSIDClients models the venue statistic: informed devices
	// leave the SSID, everyone else stays and is counted.
	ReportedSSIDClients int
	// TrueIPv6Only counts remaining devices whose data traffic was
	// exclusively IPv6.
	TrueIPv6Only int
	// Overcount = reported - true: the inaccuracy the paper wants to
	// drive to zero (IPv4-literal users keep it nonzero even at SC24).
	Overcount int

	// NAT44LogEntries counts the M-21-31-mandated translation log lines
	// the gateway accumulated — the compliance burden the paper cites as
	// a reason Argonne avoids NAT on internet-accessible networks.
	NAT44LogEntries int
	// NAT64Sessions is the live NAT64 binding count after the run.
	NAT64Sessions int

	// Classes tallies every joined device by its observed traffic class.
	Classes map[metrics.Class]int

	// Profiles tallies devices and internet-ok outcomes per client
	// profile name. Always populated, so profile-resolved matrices (the
	// pathology sweep's String) render without the Devices slice.
	Profiles map[string]ProfileCount

	// PoisonedQueries / HealthyQueries are the two DNS servers' query
	// counts after the run. Poisoned-server queries arrive
	// uncached, so the count is a per-device sum and merges exactly
	// across shards; the healthy server sits behind a shared cache whose
	// dedup depends on which devices share a world, so its count is
	// reported but excluded from the shard-equality contract.
	PoisonedQueries int
	HealthyQueries  int

	// Convergence aggregates re-convergence after reboot churn by
	// traffic class (nil unless the run used RebootsPerDevice > 0).
	// Every field merges associatively across shards: counts sum, the
	// worst-case time takes the max.
	Convergence map[metrics.Class]ClassConvergence

	// Traffic aggregates the heavy-traffic streaming workload (nil
	// unless the run set RunOptions.Traffic). Every field merges
	// associatively across shards.
	Traffic *TrafficReport

	// Shards describes how the run was partitioned: one entry per world
	// of a RunShardedSized or RunFabric call (a serial RunFabric reports
	// one shard), nil after Run or RunWith.
	Shards []ShardInfo
}

// ClassConvergence summarizes how one traffic class weathered reboot
// churn. Devices counts only devices that had a working outcome before
// the churn trial (a device that never worked has nothing to re-converge
// to and is excluded).
type ClassConvergence struct {
	Devices     int
	Reconverged int
	// MaxTime is the worst per-device virtual re-convergence time;
	// TotalTime sums them (mean = TotalTime / Reconverged).
	MaxTime   time.Duration
	TotalTime time.Duration
}

// RunOptions parameterizes a chaos run. The zero value reproduces the
// classic Run behaviour exactly.
type RunOptions struct {
	// RebootsPerDevice injects that many gateway reboots after each
	// device's workload, then probes until the device re-establishes a
	// working outcome. Reboots are per-device trials rather than
	// wall-schedule events so a sharded run — where each shard's world
	// reboots on its own devices — aggregates to the same report as the
	// serial run.
	RebootsPerDevice int
	// ConvergeTimeout bounds the virtual time a device is given to
	// re-converge after the reboot storm (default 60s).
	ConvergeTimeout time.Duration
	// Traffic, when non-nil, layers the heavy streaming workload on top
	// of the connectivity check: devices with working internet stream
	// CDN flows with per-flow byte accounting (see TrafficOptions).
	Traffic *TrafficOptions

	// Sink, when non-nil, receives one Row per device trial the moment
	// it finishes (see stream.go). The shard executor behind
	// RunShardedSized and RunFabric serializes a shared sink and stamps
	// each row's shard index.
	Sink RowSink
	// DiscardDevices leaves Report.Devices empty: rows flow only
	// through Sink (if any) and the aggregate fields, which fold
	// incrementally and stay exact. This is what bounds a
	// million-client run's memory.
	DiscardDevices bool

	// rowShard is the shard index stamped onto streamed rows; the
	// shard executor sets it per world.
	rowShard int
}

// DefaultConvergeTimeout bounds post-reboot probing when
// RunOptions.ConvergeTimeout is zero.
const DefaultConvergeTimeout = 60 * time.Second

// Run executes the workload for each device on a fresh client attached
// to tb and returns the aggregate report.
func Run(tb *testbed.Testbed, devices []DeviceSpec) *Report {
	return RunWith(tb, devices, RunOptions{})
}

// attempt runs one device workload pass and reports the outcome.
func attempt(c *hoststack.Host, spec DeviceSpec) (informed, internet, usedV6 bool) {
	if spec.EcholinkOnly {
		resp, err := c.Query(testbed.EcholinkV4, testbed.EcholinkPort, []byte("cq"), time.Second)
		return false, err == nil && len(resp) > 0, false
	}
	switch core.Classify(httpsim.Browse(c, core.ProbeURL)) {
	case core.Informed:
		return true, false, false
	case core.TranslatedInternet:
		return false, true, true
	case core.NativeV4Internet:
		return false, true, false
	default:
		return false, false, false // no connectivity at all
	}
}

// RunWith executes the workload for each device, optionally wrapping
// every device in a reboot-churn trial, and returns the aggregate
// report. With churn enabled each trial is: join → workload → sample
// translator-state deltas → RebootsPerDevice gateway reboots →
// re-converge probe (repeat the workload with exponential virtual
// backoff until it succeeds or ConvergeTimeout lapses) → cleanup
// reboots that flush translator state and realign the GUA rotation, so
// the next device starts from the same world conditions regardless of
// which shard or position it runs in.
func RunWith(tb *testbed.Testbed, devices []DeviceSpec, opt RunOptions) *Report {
	r := newTrialRunner(tb, opt)
	for _, spec := range devices {
		spec := spec
		r.runTrial(spec, func() *hoststack.Host {
			return tb.AddClient(spec.Name, spec.Profile)
		})
	}
	return r.finish()
}

// trialRunner is the per-world engine both execution shapes share: the
// flat path (RunWith attaches every device to the single switch) and
// the fabric path (RunFabric materializes registered rows on their
// access switches). It owns the SSID monitor, the per-trial chaos machinery
// and the report under construction; only how a device joins the world
// differs, which runTrial takes as a closure.
type trialRunner struct {
	tb              *testbed.Testbed
	mon             *metrics.SSIDMonitor
	opt             RunOptions
	churn           bool
	align           bool
	convergeTimeout time.Duration
	rep             *Report

	// rows counts emitted trials (the Index of the next streamed Row).
	rows int
	// flows / flowsPerClass fold the heavy-traffic accounting
	// incrementally (used instead of re-walking rep.Devices, which may
	// be discarded).
	flows         FlowStats
	flowsPerClass map[metrics.Class]FlowStats
}

func newTrialRunner(tb *testbed.Testbed, opt RunOptions) *trialRunner {
	mon := metrics.NewSSIDMonitor()
	mon.Exclude(tb.Gateway.LANNIC().MAC())
	mon.Exclude(tb.HealthyPi.MAC())
	mon.Exclude(tb.PoisonPi.MAC())
	mon.Exclude(tb.DHCPPi.MAC())
	tb.Switch.AddFilter(mon.Filter())

	churn := opt.RebootsPerDevice > 0
	convergeTimeout := opt.ConvergeTimeout
	if convergeTimeout <= 0 {
		convergeTimeout = DefaultConvergeTimeout
	}
	r := &trialRunner{
		tb:    tb,
		mon:   mon,
		opt:   opt,
		churn: churn,
		// Impaired, churned or stateful-pathology trials are aligned to
		// the trial grid (Testbed.AlignTrial): that keeps impaired runs
		// position-independent, the precondition for serial ≡ sharded
		// reports. With every knob off the classic run is reproduced
		// untouched.
		align:           churn || tb.Spec.Impair.Enabled() || tb.AlignPeriod > 0 || tb.SampleNAT64PerTrial,
		convergeTimeout: convergeTimeout,
		rep: &Report{
			Classes:  make(map[metrics.Class]int),
			Profiles: make(map[string]ProfileCount),
		},
	}
	if churn {
		r.rep.Convergence = make(map[metrics.Class]ClassConvergence)
	}
	if opt.Traffic != nil {
		r.flowsPerClass = make(map[metrics.Class]FlowStats)
	}
	return r
}

// runTrial runs one device trial: align, sample translator baselines,
// join the world through the supplied closure, run the workload, and —
// under churn — reboot, re-converge and clean up. The join closure runs
// after the baseline sampling so per-device translator deltas account
// bring-up traffic too.
func (r *trialRunner) runTrial(spec DeviceSpec, join func() *hoststack.Host) {
	tb := r.tb
	if r.align {
		tb.AlignTrial()
	}
	nat44Before := len(tb.Gateway.NAT44.Log)
	// SessionCount walks every session, so take the NAT64 baseline only
	// where the churn delta below reads it.
	var nat64Before int
	if r.churn && !tb.SampleNAT64PerTrial {
		nat64Before = tb.Gateway.NAT64.SessionCount()
	}

	c := join()
	dr := DeviceResult{Spec: spec}
	dr.Informed, dr.Internet, dr.UsedIPv6 = attempt(c, spec)

	if r.opt.Traffic != nil && dr.Internet && !spec.EcholinkOnly {
		dr.Flows = runFlows(c, r.opt.Traffic)
	}

	if tb.SampleNAT64PerTrial {
		// Short session timeouts (a stateful exhaustion pathology) mean
		// the end-of-run total would be near zero and the churn delta
		// would race expiry; the position-independent measure is the
		// live-session count at each trial's end — every prior trial's
		// sessions have idled out across the ≥2 s bring-up gap.
		r.rep.NAT64Sessions += tb.Gateway.NAT64.SessionCount()
	}
	if r.churn {
		// Sample this device's translator footprint before reboots
		// wipe it, so per-device deltas sum identically across any
		// shard partition.
		r.rep.NAT44LogEntries += len(tb.Gateway.NAT44.Log) - nat44Before
		if !tb.SampleNAT64PerTrial {
			r.rep.NAT64Sessions += tb.Gateway.NAT64.SessionCount() - nat64Before
		}

		if dr.Informed || dr.Internet {
			dr.Churned = true
			for i := 0; i < r.opt.RebootsPerDevice; i++ {
				tb.Gateway.Reboot()
			}
			dr.Reconverged, dr.ConvergeTime = probeConvergence(tb, c, spec, r.convergeTimeout)
		}
		cleanupReboots(tb)
	}

	dr.Class = r.mon.ClassOf(c.MAC())
	r.fold(dr)
	if r.opt.Sink != nil {
		r.opt.Sink.ObserveRow(Row{Shard: r.opt.rowShard, Index: r.rows, DeviceResult: dr})
	}
	r.rows++
	if !r.opt.DiscardDevices {
		r.rep.Devices = append(r.rep.Devices, dr)
	}
}

// fold accumulates one finished trial into the report's aggregate
// fields — O(1) state per trial, no dependence on the retained Devices
// slice, and the exact same arithmetic the legacy end-of-run derivation
// performed (the stream ≡ legacy goldens pin the equality).
func (r *trialRunner) fold(dr DeviceResult) {
	rep := r.rep
	rep.Joined++
	if dr.Internet {
		rep.InternetOK++
	}
	if dr.Informed {
		rep.Informed++
	} else {
		// Informed devices leave the SSID; everyone else is counted.
		rep.ReportedSSIDClients++
		if dr.Class == metrics.ClassV6Only {
			rep.TrueIPv6Only++
		}
	}
	rep.Classes[dr.Class]++
	pc := rep.Profiles[dr.Spec.Profile.Name]
	pc.Devices++
	if dr.Internet {
		pc.InternetOK++
	}
	rep.Profiles[dr.Spec.Profile.Name] = pc

	if r.churn && dr.Churned {
		cc := rep.Convergence[dr.Class]
		cc.Devices++
		if dr.Reconverged {
			cc.Reconverged++
			cc.TotalTime += dr.ConvergeTime
			if dr.ConvergeTime > cc.MaxTime {
				cc.MaxTime = dr.ConvergeTime
			}
		}
		rep.Convergence[dr.Class] = cc
	}
	if r.opt.Traffic != nil && dr.Flows != (FlowStats{}) {
		r.flows.add(dr.Flows)
		cs := r.flowsPerClass[dr.Class]
		cs.add(dr.Flows)
		r.flowsPerClass[dr.Class] = cs
	}
}

// finish seals the report: the per-trial folds already hold every
// device-derived aggregate, so only the world-level reads remain (the
// translator totals, the query counts and the drained traffic stats).
func (r *trialRunner) finish() *Report {
	tb, rep := r.tb, r.rep
	rep.Overcount = rep.ReportedSSIDClients - rep.TrueIPv6Only
	if !r.churn {
		// Translator state survives the whole run: read the totals once
		// (unless per-trial sampling already accumulated them).
		rep.NAT44LogEntries = len(tb.Gateway.NAT44.Log)
		if !tb.SampleNAT64PerTrial {
			rep.NAT64Sessions = tb.Gateway.NAT64.SessionCount()
		}
	}
	if r.opt.Traffic != nil {
		rep.Traffic = buildTrafficReport(tb, r.flows, r.flowsPerClass, r.opt.Traffic)
	}
	rep.PoisonedQueries = tb.PoisonLog.Len()
	rep.HealthyQueries = tb.HealthyLog.Len()
	return rep
}

// probeConvergence re-runs the device workload with exponential virtual
// backoff until it succeeds or the timeout lapses, returning the
// virtual time from the last reboot to the first success.
func probeConvergence(tb *testbed.Testbed, c *hoststack.Host, spec DeviceSpec, timeout time.Duration) (bool, time.Duration) {
	start := tb.Net.Clock.Now()
	// Let the post-reboot RA reach the LAN before the first attempt.
	tb.Net.RunFor(50 * time.Millisecond)
	backoff := time.Second
	for {
		informed, internet, _ := attempt(c, spec)
		if informed || internet {
			return true, tb.Net.Clock.Now().Sub(start)
		}
		if elapsed := tb.Net.Clock.Now().Sub(start); elapsed+backoff > timeout {
			return false, 0
		}
		tb.Net.RunFor(backoff)
		backoff *= 2
	}
}

// cleanupReboots flushes per-trial translator state and realigns the
// gateway to the first GUA prefix, so every device trial starts from
// identical world conditions — the invariant behind serial ≡ sharded
// reports under churn.
func cleanupReboots(tb *testbed.Testbed) {
	rotation := len(tb.Spec.Gateway.GUAPrefixes)
	tb.Gateway.Reboot()
	for rotation > 0 && tb.Gateway.RebootCount()%rotation != 0 {
		tb.Gateway.Reboot()
	}
	// Let the final RA propagate so the next client SLAACs the realigned
	// prefix immediately.
	tb.Net.RunFor(50 * time.Millisecond)
}

// AdoptionMix returns DefaultMix with the given fraction (0..1) of the
// Windows population already refreshed to Windows 11 with RFC 8925 —
// the paper §VII "Windows 10 end-of-life as a catalyst" projection. The
// unrefreshed population keeps DefaultMix's 25:10 split of Windows 10
// (RDNSS-preferring) and Windows 11 builds that prefer the poisoned
// DHCPv4 resolver.
func AdoptionMix(refreshed float64) []MixEntry {
	if refreshed < 0 {
		refreshed = 0
	}
	if refreshed > 1 {
		refreshed = 1
	}
	const win10Weight, win11Weight = 25, 10
	newWin := int(refreshed*(win10Weight+win11Weight) + 0.5)
	// Refresh the Windows 11 (v4-DNS-preferring) builds first, then the
	// Windows 10 fleet.
	old11 := win11Weight - newWin
	old10 := win10Weight
	if old11 < 0 {
		old10 += old11 // spill the refresh into the Win10 pool
		old11 = 0
	}
	mix := []MixEntry{
		{Profile: profiles.IOS(), Weight: 20},
		{Profile: profiles.Android(), Weight: 15},
		{Profile: profiles.MacOS(), Weight: 15},
		{Profile: profiles.Linux(), Weight: 6},
		{Profile: profiles.NintendoSwitch(), Weight: 4},
		{Profile: profiles.WindowsXP(), Weight: 2},
		{Profile: profiles.Windows10(), Weight: 3, EcholinkOnly: true},
	}
	if old10 > 0 {
		mix = append(mix, MixEntry{Profile: profiles.Windows10(), Weight: old10})
	}
	if old11 > 0 {
		mix = append(mix, MixEntry{Profile: profiles.Windows11(), Weight: old11})
	}
	if newWin > 0 {
		mix = append(mix, MixEntry{Profile: profiles.Windows11RFC8925(), Weight: newWin})
	}
	return mix
}
