// Command experiments regenerates every figure and table of the paper's
// evaluation on the simulated testbed and prints paper-vs-measured
// reports. Run it with no arguments for everything, or name experiments
// (fig2 fig3 ... fig11 tabA tabB ablA ablB) to run a subset.
package main

import (
	"cmp"
	"fmt"
	"io"
	"net/netip"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dnswire"
	"repro/internal/httpsim"
	"repro/internal/metrics"
	"repro/internal/pathology"
	"repro/internal/portal"
	"repro/internal/profiles"
	"repro/internal/scenario"
	"repro/internal/testbed"
)

type experiment struct {
	id    string
	title string
	run   func(w io.Writer)
}

// exps is the single source of truth for the experiment set; usageText
// renders it, so the README flags reference (pinned by TestUsagePinnedInREADME)
// cannot drift from this table.
var exps = []experiment{
	{"fig2", "IPv4-literal application on the v6 SSID (Echolink)", fig2},
	{"fig3", "5G gateway RA with dead ULA RDNSS", fig3},
	{"fig4", "full testbed topology bring-up", fig4},
	{"fig5", "erroneous test-ipv6 10/10 via poisoned DNS", fig5},
	{"fig6", "IPv4-only Nintendo Switch receives the intervention", fig6},
	{"fig7", "Windows XP works via poisoned DNS64 + NAT64", fig7},
	{"fig8", "VPN split-tunnel vs restricted IPv4", fig8},
	{"fig9", "poisoned answers for non-existent FQDNs", fig9},
	{"fig10", "resolver preference decides exposure to poisoning", fig10},
	{"fig11", "0/10 test-ipv6 score over the VPN", fig11},
	{"tabA", "device-class outcome matrix (paper §V)", tabA},
	{"tabB", "SC23 vs SC24 client counting accuracy (paper §III.A)", tabB},
	{"ablA", "ablation: dnsmasq wildcard vs BIND9 RPZ poisoning", ablA},
	{"ablB", "ablation: buggy vs fixed mirror scoring", ablB},
	{"tabC", "M-21-31 NAT44 logging burden vs IPv6 adoption", tabC},
	{"tabD", "Windows 11 refresh (RFC 8925) adoption sweep (paper §VII)", tabD},
	{"scale", "sharded vs serial conference-floor run (equality + timing)", scale},
	{"fabric", "hierarchical fabric sweep: access switches × clients per switch (DESIGN.md §3e)", fabric},
	{"chaos", "loss × gateway-reboot degradation matrix (DESIGN.md §3b)", chaos},
	{"traffic", "heavy streaming flows through every translator (DESIGN.md §3d)", traffic},
	{"pathology", "pathology × profile degradation matrix + fingerprints (DESIGN.md §3f)", pathologyExp},
	{"stateful", "stateful pathology timelines + budgeted port-pool exhaustion (DESIGN.md §3g)", statefulExp},
}

// usageText is the generated flags reference. It is printed for
// -h/-help/help and pinned verbatim inside README.md's
// experiments-flags block, so the docs and the binary cannot diverge
// silently.
func usageText() string {
	var b strings.Builder
	b.WriteString("usage: experiments [experiment ...]\n\n")
	b.WriteString("Runs every experiment when invoked with no arguments, or the named subset:\n\n")
	for _, e := range exps {
		fmt.Fprintf(&b, "  %-11s %s\n", e.id, e.title)
	}
	b.WriteString("\nFlags:\n")
	fmt.Fprintf(&b, "  -grid=<file>       run the experiments.json grid instead: the cross-product of\n")
	fmt.Fprintf(&b, "                     populations x shards x loss_levels x reboot_levels x\n")
	fmt.Fprintf(&b, "                     pathologies, `repeats` times each, streaming one CSV/JSONL\n")
	fmt.Fprintf(&b, "                     row per device to `output` while pooled worlds are reused\n")
	fmt.Fprintf(&b, "                     across repeats via the testbed Checkpoint/Reset lifecycle\n")
	fmt.Fprintf(&b, "  -pathology=<name>  fingerprint a single registered pathology and decode it\n")
	fmt.Fprintf(&b, "                     (the PATHOLOGIES.md repro command); names: %s\n",
		strings.Join(pathology.Names(), ", "))
	fmt.Fprintf(&b, "  -h, -help          print this reference\n")
	return b.String()
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
}

// run executes the experiments named in args (every one when args names
// none) and writes their reports to stdout. -pathology=<name> swaps the
// pathology sweep for one pathology's fingerprint, and -grid=<file>
// runs that grid instead, with its progress on stderr.
func run(args []string, stdout io.Writer) error {
	want := map[string]bool{}
	// pathologyTarget is the <name> of -pathology=<name>; empty means the
	// full sweep. gridFile is the <file> of -grid=<file>.
	var pathologyTarget, gridFile string
	for _, a := range args {
		a = strings.TrimLeft(a, "-")
		if a == "h" || a == "help" {
			fmt.Fprint(stdout, usageText())
			return nil
		}
		if k, v, ok := strings.Cut(a, "="); ok {
			switch k {
			case "pathology":
				pathologyTarget = v
				a = k
			case "grid":
				gridFile = v
				a = k
			}
		}
		want[a] = true
	}
	if gridFile != "" {
		if err := runGrid(gridFile, stdout, os.Stderr); err != nil {
			return fmt.Errorf("grid: %w", err)
		}
		return nil
	}
	for _, e := range exps {
		if len(want) > 0 && !want[e.id] {
			continue
		}
		fmt.Fprintf(stdout, "== %s: %s ==\n", e.id, e.title)
		if e.id == "pathology" && pathologyTarget != "" {
			pathologyDetail(stdout, pathologyTarget)
		} else {
			e.run(stdout)
		}
		fmt.Fprintln(stdout)
	}
	return nil
}

func fig2(w io.Writer) {
	fmt.Fprintln(w, "paper: a dual-stack laptop running Echolink (IPv4 literals) worked on SC23v6")
	fmt.Fprintln(w, "       and polluted the IPv6-only client statistics")
	tb := testbed.New(testbed.DefaultOptions())
	devices := []scenario.DeviceSpec{
		{Name: "ham-laptop", Profile: profiles.Windows10(), EcholinkOnly: true},
		{Name: "attendee1", Profile: profiles.MacOS()},
		{Name: "attendee2", Profile: profiles.IOS()},
	}
	rep := scenario.Run(tb, devices)
	for _, d := range rep.Devices {
		fmt.Fprintf(w, "measured: %-12s class=%-10s internet=%v informed=%v\n",
			d.Spec.Name, d.Class, d.Internet, d.Informed)
	}
	fmt.Fprintf(w, "measured: reported SSID clients=%d, truly IPv6-only=%d, overcount=%d\n",
		rep.ReportedSSIDClients, rep.TrueIPv6Only, rep.Overcount)
	fmt.Fprintln(w, "shape: the literal-only device still works and still inflates the count — DNS")
	fmt.Fprintln(w, "       interventions cannot reach applications that never resolve names")
}

func fig3(w io.Writer) {
	fmt.Fprintln(w, "paper: the gateway's RA advertises RDNSS fd00:976a::9/::10, which are dead;")
	fmt.Fprintln(w, "       a managed-switch low-priority ULA RA makes them reachable")
	opt := testbed.DefaultOptions()
	opt.SwitchULARA = false
	tb := testbed.New(opt)
	c := tb.AddClient("probe", profiles.IPv6OnlyLinux())
	_, err := c.Lookup("sc24.supercomputing.org")
	fmt.Fprintf(w, "measured: without switch RA: lookup error = %v\n", err)

	tb2 := testbed.New(testbed.DefaultOptions())
	c2 := tb2.AddClient("probe", profiles.IPv6OnlyLinux())
	res, err := c2.Lookup("sc24.supercomputing.org")
	if err != nil {
		fmt.Fprintf(w, "measured: with switch RA: UNEXPECTED error %v\n", err)
		return
	}
	best, _ := res.BestAddr()
	fmt.Fprintf(w, "measured: with switch RA: resolver=%v answered %v\n", res.Resolver, best)
}

func fig4(w io.Writer) {
	fmt.Fprintln(w, "paper: Fig. 4 topology — gateway + managed switch + three Raspberry Pi roles")
	tb := testbed.New(testbed.DefaultOptions())
	for _, prof := range []string{"macOS", "Windows 10", "Windows XP", "Nintendo Switch"} {
		for _, b := range profiles.All() {
			if b.Name != prof {
				continue
			}
			c := tb.AddClient("probe-"+prof, b)
			o := core.Evaluate(tb, c)
			used := o.UsedAddr
			if used == "" {
				used = "n/a"
			}
			fmt.Fprintf(w, "measured: %-18s -> %-18s (used %s)\n", prof, o.Class, used)
		}
	}
	fmt.Fprintf(w, "measured: switch snooped %d gateway DHCP frames; gateway sent %d RAs\n",
		tb.Switch.SnoopedDrops, tb.Gateway.RAsSent)
}

func fig5(w io.Writer) {
	fmt.Fprintln(w, "paper: IPv6-disabled Windows 10 + poisoned DNS pointing at test-ipv6.com's v4")
	fmt.Fprintln(w, "       address erroneously scored 10/10; target then switched to ip6.me")
	opt := testbed.DefaultOptions()
	opt.RedirectV4 = testbed.MirrorV4
	tb := testbed.New(opt)
	tb.AddClient("win10-nov6", profiles.Windows10NoV6())
	res := portal.Run(httpsim.Fetcher(tb.Clients[0]), tb.Mirror)
	fmt.Fprintf(w, "measured: redirect=test-ipv6.com  buggy=%v  fixed=%v\n",
		portal.ScoreBuggy(res), portal.ScoreFixed(res))

	tb2 := testbed.New(testbed.DefaultOptions())
	tb2.AddClient("win10-nov6", profiles.Windows10NoV6())
	res2 := portal.Run(httpsim.Fetcher(tb2.Clients[0]), tb2.Mirror)
	r, err := httpsim.Browse(tb2.Clients[0], "http://ds.test-ipv6.com/")
	landed := err == nil && strings.Contains(string(r.Response.Body), "lack of IPv6 support")
	fmt.Fprintf(w, "measured: redirect=ip6.me        buggy=%v  fixed=%v  intervention-page=%v\n",
		portal.ScoreBuggy(res2), portal.ScoreFixed(res2), landed)
}

func fig6(w io.Writer) {
	fmt.Fprintln(w, "paper: an IPv4-only Nintendo Switch reports no connectivity and displays the")
	fmt.Fprintln(w, "       ip6.me redirection; changing DNS to a known-good server restores IPv4")
	tb := testbed.New(testbed.DefaultOptions())
	c := tb.AddClient("console", profiles.NintendoSwitch())
	r, err := httpsim.Browse(c, "http://sc24.supercomputing.org/")
	if err != nil {
		fmt.Fprintf(w, "measured: browse error %v\n", err)
		return
	}
	fmt.Fprintf(w, "measured: intervention page shown = %v\n",
		strings.Contains(string(r.Response.Body), "lack of IPv6 support"))

	// The escape hatch the paper notes: manually set a known-good resolver.
	c.DNSOverride = []netip.Addr{testbed.HealthyV4}
	r, err = httpsim.Browse(c, "http://sc24.supercomputing.org/")
	if err != nil {
		fmt.Fprintf(w, "measured: after DNS override: error %v\n", err)
		return
	}
	fmt.Fprintf(w, "measured: after DNS override: via %v -> %q\n", r.UsedAddr, firstLine(r.Response.Body))
}

func fig7(w io.Writer) {
	fmt.Fprintln(w, "paper: Windows XP (IPv4-transport DNS only) browses IPv4-only sites via")
	fmt.Fprintln(w, "       NAT64/DNS64 through the poisoned server's healthy AAAA path")
	tb := testbed.New(testbed.DefaultOptions())
	xp := tb.AddClient("xp", profiles.WindowsXP())
	res, err := xp.Lookup("sc24.supercomputing.org")
	if err != nil {
		fmt.Fprintf(w, "measured: lookup error %v\n", err)
		return
	}
	best, _ := res.BestAddr()
	pr, perr := xp.Ping(best, time.Second)
	r, berr := httpsim.Browse(xp, "http://sc24.supercomputing.org/")
	fmt.Fprintf(w, "measured: resolver=%v (the poisoned server)  AAAA=%v\n", res.Resolver, best)
	fmt.Fprintf(w, "measured: ping reply from %v (err=%v)\n", pr.From, perr)
	if berr == nil {
		fmt.Fprintf(w, "measured: browse via %v -> %q\n", r.UsedAddr, firstLine(r.Response.Body))
	}
}

func fig8(w io.Writer) {
	fmt.Fprintln(w, "paper: split-tunnel VPN clients using IPv4 literals lose their VTC when IPv4")
	fmt.Fprintln(w, "       internet is further restricted")
	tb := testbed.New(testbed.DefaultOptions())
	tb.InstallVPN()
	c := tb.AddClient("laptop", profiles.Windows10())
	vc := tb.NewVPNClient(c)
	if err := vc.Connect(); err != nil {
		fmt.Fprintf(w, "measured: vpn connect failed: %v\n", err)
		return
	}
	_, err := vc.Fetch("http://" + testbed.VTCV4.String() + "/")
	fmt.Fprintf(w, "measured: VTC via split tunnel (IPv4 allowed):    err=%v\n", err)
	tb.RestrictIPv4Internet()
	_, err = vc.Fetch("http://" + testbed.VTCV4.String() + "/")
	fmt.Fprintf(w, "measured: VTC via split tunnel (IPv4 restricted): err=%v\n", err)
	_, err = c.Lookup("sc24.supercomputing.org")
	fmt.Fprintf(w, "measured: IPv6 path unaffected by the ACL: lookup err=%v\n", err)
}

func fig9(w io.Writer) {
	fmt.Fprintln(w, "paper: nslookup receives a poisoned A for the non-existent suffixed FQDN;")
	fmt.Fprintln(w, "       ping still gets the valid AAAA")
	tb := testbed.New(testbed.DefaultOptions())
	c := tb.AddClient("win11", profiles.Windows11())
	ns, err := c.NSLookup("vpn.anl.gov", dnswire.TypeA)
	if err == nil {
		fmt.Fprintf(w, "measured: nslookup answer name=%s addrs=%v\n", ns.Name, ns.Addrs)
	}
	res, err := c.Lookup("vpn.anl.gov")
	if err == nil {
		best, _ := res.BestAddr()
		fmt.Fprintf(w, "measured: getaddrinfo best=%v (suffix applied=%v)\n", best, res.SuffixApplied)
	}
}

func fig10(w io.Writer) {
	fmt.Fprintln(w, "paper: Windows 10/Linux prefer the RDNSS resolver and never touch the")
	fmt.Fprintln(w, "       poisoned server; some Windows 11 builds prefer the DHCPv4 resolver")
	tb := testbed.New(testbed.DefaultOptions())
	win10 := tb.AddClient("win10", profiles.Windows10())
	before := tb.PoisonLog.Len()
	_, _ = win10.Lookup("sc24.supercomputing.org")
	fmt.Fprintf(w, "measured: Windows 10 poisoned-server queries: %d\n", tb.PoisonLog.Len()-before)

	win11 := tb.AddClient("win11", profiles.Windows11())
	before = tb.PoisonLog.Len()
	_, _ = win11.Lookup("sc24.supercomputing.org")
	fmt.Fprintf(w, "measured: Windows 11 poisoned-server queries: %d\n", tb.PoisonLog.Len()-before)
}

func fig11(w io.Writer) {
	fmt.Fprintln(w, "paper: Argonne VPN users scored 0/10 on the SC23 test-ipv6 mirror")
	tb := testbed.New(testbed.DefaultOptions())
	tb.InstallVPN()
	c := tb.AddClient("laptop", profiles.Windows10())
	vc := tb.NewVPNClient(c)
	if err := vc.Connect(); err != nil {
		fmt.Fprintf(w, "measured: connect err=%v\n", err)
		return
	}
	res := portal.Run(vc.Fetch, tb.Mirror)
	fmt.Fprintf(w, "measured: over VPN: buggy=%v fixed=%v\n", portal.ScoreBuggy(res), portal.ScoreFixed(res))
}

func tabA(w io.Writer) {
	fmt.Fprintln(w, "paper §V: per-device-class outcomes under the SC24v6 configuration")
	rows := core.Matrix(testbed.DefaultOptions())
	for _, r := range rows {
		fmt.Fprintln(w, "measured:", r)
	}
	counts := core.CountClasses(rows)
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, string(k))
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "measured: %-18s %d\n", k, counts[core.OutcomeClass(k)])
	}
}

func tabB(w io.Writer) {
	fmt.Fprintln(w, "paper §III.A: accurate IPv6-only client counting, SC23 vs SC24")
	devices := scenario.Population(1, 60, scenario.DefaultMix())

	optBase := testbed.DefaultOptions()
	optBase.Poison = testbed.PoisonOff
	base := scenario.Run(testbed.New(optBase), devices)
	sc24 := scenario.Run(testbed.New(testbed.DefaultOptions()), devices)

	fmt.Fprintf(w, "measured: %-8s joined=%-3d informed=%-3d internet=%-3d reported=%-3d true-v6only=%-3d overcount=%d\n",
		"SC23", base.Joined, base.Informed, base.InternetOK, base.ReportedSSIDClients, base.TrueIPv6Only, base.Overcount)
	fmt.Fprintf(w, "measured: %-8s joined=%-3d informed=%-3d internet=%-3d reported=%-3d true-v6only=%-3d overcount=%d\n",
		"SC24", sc24.Joined, sc24.Informed, sc24.InternetOK, sc24.ReportedSSIDClients, sc24.TrueIPv6Only, sc24.Overcount)
}

func ablA(w io.Writer) {
	fmt.Fprintln(w, "paper §VI: RPZ would fix the non-existent-FQDN pathology at the cost of an")
	fmt.Fprintln(w, "          upstream existence check per A query")
	for _, policy := range []struct {
		name string
		p    testbed.PoisonPolicy
	}{{"wildcard", testbed.PoisonWildcard}, {"rpz", testbed.PoisonRPZ}} {
		opt := testbed.DefaultOptions()
		opt.Poison = policy.p
		tb := testbed.New(opt)
		c := tb.AddClient("win11", profiles.Windows11())
		ns, err := c.NSLookup("vpn.anl.gov", dnswire.TypeA)
		if err != nil {
			fmt.Fprintf(w, "measured: %-8s error %v\n", policy.name, err)
			continue
		}
		var upstreamChecks uint64
		switch policy.p {
		case testbed.PoisonWildcard:
			upstreamChecks = tb.Wildcard.Forwarded
		case testbed.PoisonRPZ:
			upstreamChecks = tb.RPZ.Forwarded
		}
		fmt.Fprintf(w, "measured: %-8s nslookup answer=%s (bogus suffixed answer=%v), upstream queries so far=%d\n",
			policy.name, ns.Name, ns.Name != "vpn.anl.gov.", upstreamChecks)
	}
}

func ablB(w io.Writer) {
	fmt.Fprintln(w, "paper §VI: only RFC 8925 clients should score 10/10")
	tb := testbed.New(testbed.DefaultOptions())
	for i, b := range []struct {
		name string
		p    string
	}{{"RFC8925+CLAT", "macOS"}, {"dual-stack", "Windows 10"}, {"IPv4-only", "Nintendo Switch"}} {
		for _, prof := range profiles.All() {
			if prof.Name != b.p {
				continue
			}
			tb.AddClient(fmt.Sprintf("probe%d", i), prof)
			res := portal.Run(httpsim.Fetcher(tb.Clients[len(tb.Clients)-1]), tb.Mirror)
			fmt.Fprintf(w, "measured: %-14s buggy=%v fixed=%v\n", b.name, portal.ScoreBuggy(res), portal.ScoreFixed(res))
		}
	}
}

func tabC(w io.Writer) {
	fmt.Fprintln(w, "paper §II: OMB M-21-31 requires logging every NAT translation — a burden Argonne")
	fmt.Fprintln(w, "          cites for avoiding NAT; IPv6-first networks shift flows onto NAT64")
	devices := scenario.Population(1, 60, scenario.DefaultMix())
	for _, pol := range []struct {
		name   string
		poison testbed.PoisonPolicy
	}{{"SC23", testbed.PoisonOff}, {"SC24", testbed.PoisonWildcard}} {
		opt := testbed.DefaultOptions()
		opt.Poison = pol.poison
		rep := scenario.Run(testbed.New(opt), devices)
		fmt.Fprintf(w, "measured: %-5s nat44-log-entries=%-4d nat64-sessions=%-4d internet=%d/%d\n",
			pol.name, rep.NAT44LogEntries, rep.NAT64Sessions, rep.InternetOK, rep.Joined)
	}
	fmt.Fprintln(w, "shape: per-flow NAT44 log lines exist only for the legacy-IPv4 tail; every")
	fmt.Fprintln(w, "       IPv6-capable client rides NAT64/native v6 with no M-21-31 log entry")
}

func tabD(w io.Writer) {
	fmt.Fprintln(w, "paper §VII: the Windows 10 EOL refresh cycle as a catalyst — as the Windows")
	fmt.Fprintln(w, "           population gains RFC 8925, exposure to the poisoned resolver and the")
	fmt.Fprintln(w, "           counting overcount both shrink")
	for _, frac := range []float64{0, 0.25, 0.5, 0.75, 1} {
		devices := scenario.Population(2, 40, scenario.AdoptionMix(frac))
		tb := testbed.New(testbed.DefaultOptions())
		rep := scenario.Run(tb, devices)
		fmt.Fprintf(w, "measured: refreshed=%3.0f%%  overcount=%-3d poisoned-queries=%-4d informed=%-2d internet=%d/%d\n",
			frac*100, rep.Overcount, tb.PoisonLog.Len(), rep.Informed, rep.InternetOK, rep.Joined)
	}
}

func scale(w io.Writer) {
	fmt.Fprintln(w, "engine: the same population run serially on one world and sharded across 8")
	fmt.Fprintln(w, "        independent worlds must produce identical reports (see DESIGN.md §3a)")
	const n = 240
	devices := scenario.Population(1, n, scenario.DefaultMix())
	fac := testbed.Factory{Spec: testbed.ScaleTopology(testbed.DefaultOptions(), n)}

	world, err := fac.Build()
	if err != nil {
		fmt.Fprintf(w, "measured: build error %v\n", err)
		return
	}
	start := time.Now()
	serial := scenario.Run(world, devices)
	serialTook := time.Since(start)
	world.Close()

	start = time.Now()
	build := func(int) (*testbed.Testbed, error) { return fac.Build() }
	sharded, err := scenario.RunShardedSized(build, devices, scenario.ShardOptions{Shards: 8, Seed: 1})
	if err != nil {
		fmt.Fprintf(w, "measured: sharded run error %v\n", err)
		return
	}
	shardedTook := time.Since(start)

	for _, row := range []struct {
		name string
		r    *scenario.Report
		d    time.Duration
	}{{"serial", serial, serialTook}, {"sharded-8", sharded, shardedTook}} {
		fmt.Fprintf(w, "measured: %-10s joined=%-4d informed=%-3d internet=%-4d overcount=%-3d nat64=%-4d poisoned-queries=%-4d wall=%v\n",
			row.name, row.r.Joined, row.r.Informed, row.r.InternetOK,
			row.r.Overcount, row.r.NAT64Sessions, row.r.PoisonedQueries, row.d.Round(time.Millisecond))
	}
	equal := serial.Joined == sharded.Joined && serial.Informed == sharded.Informed &&
		serial.InternetOK == sharded.InternetOK && serial.Overcount == sharded.Overcount &&
		serial.NAT64Sessions == sharded.NAT64Sessions && serial.PoisonedQueries == sharded.PoisonedQueries
	fmt.Fprintf(w, "measured: reports equal=%v  speedup=%.1fx (broadcast-domain work is quadratic\n",
		equal, float64(serialTook)/float64(shardedTook))
	fmt.Fprintln(w, "          in clients-per-switch, so 8 worlds of n/8 clients flood ~1/8 as much)")
}

func fabric(w io.Writer) {
	fmt.Fprintln(w, "engine: the hierarchical fabric tier — clients live behind access switches")
	fmt.Fprintln(w, "        trunked into the distribution switch, floods stay inside their access")
	fmt.Fprintln(w, "        domain, and a registered client holds no state until it acts")
	for _, shape := range []struct{ access, per int }{{2, 250}, {4, 1000}, {8, 4000}} {
		spec := testbed.FabricTopology(testbed.DefaultOptions(), shape.access, shape.per)
		start := time.Now()
		rep, err := scenario.RunFabric(spec, scenario.FabricOptions{Seed: 1, ActorsPerDomain: 2})
		if err != nil {
			fmt.Fprintf(w, "measured: %dx%d fabric run error %v\n", shape.access, shape.per, err)
			return
		}
		fmt.Fprintf(w, "measured: %2d sw × %-5d registered=%-6d acting=%-3d informed=%-2d internet=%-3d overcount=%-2d wall=%v\n",
			shape.access, shape.per, shape.access*shape.per, rep.Joined,
			rep.Informed, rep.InternetOK, rep.Overcount, time.Since(start).Round(time.Millisecond))
	}

	// A shard is a fabric subtree: rerunning the middle shape split into
	// per-subtree worlds must reproduce the serial report exactly.
	spec := testbed.FabricTopology(testbed.DefaultOptions(), 4, 1000)
	opt := scenario.FabricOptions{Seed: 1, ActorsPerDomain: 2}
	serial, err := scenario.RunFabric(spec, opt)
	if err != nil {
		fmt.Fprintf(w, "measured: serial fabric run error %v\n", err)
		return
	}
	opt.Shards = 4
	sharded, err := scenario.RunFabric(spec, opt)
	if err != nil {
		fmt.Fprintf(w, "measured: subtree-sharded run error %v\n", err)
		return
	}
	equal := serial.Joined == sharded.Joined && serial.Informed == sharded.Informed &&
		serial.InternetOK == sharded.InternetOK && serial.Overcount == sharded.Overcount &&
		serial.NAT64Sessions == sharded.NAT64Sessions && serial.PoisonedQueries == sharded.PoisonedQueries
	fmt.Fprintf(w, "measured: serial == subtree-sharded (4 worlds, one per access switch): %v\n", equal)
	fmt.Fprintln(w, "shape: per-domain DHCP pools, name-keyed impairment and per-domain profile")
	fmt.Fprintln(w, "       streams make a domain's outcomes a pure function of (seed, domain),")
	fmt.Fprintln(w, "       so any subtree partition folds back to the serial report")
}

func chaos(w io.Writer) {
	fmt.Fprintln(w, "engine: sweep the loss × gateway-reboot grid over impaired worlds; every value")
	fmt.Fprintln(w, "        is a counter or virtual-clock duration, so this output is deterministic")
	fmt.Fprintln(w, "        and documented verbatim in EXPERIMENTS.md §chaos")
	const n, seed = 24, 1
	devices := scenario.Population(seed, n, scenario.DefaultMix())
	fmt.Fprintf(w, "degradation matrix: n=%d devices per cell, seed %d\n", n, seed)
	fmt.Fprintf(w, "%-6s %8s %10s %10s %12s %14s\n",
		"loss", "reboots", "internet", "informed", "reconverged", "worst-converge")
	// The per-class detail of the churned cells prints after the matrix.
	var classes strings.Builder
	cell := 0 // row-major over (loss, reboots); seeds each cell's impairment
	for _, loss := range []float64{0, 0.10, 0.30} {
		for _, reboots := range []int{0, 1, 2} {
			spec := scenario.ChaosSpec(seed, n, cell, loss, 0)
			cell++
			build := func(int) (*testbed.Testbed, error) { return testbed.Build(spec) }
			rep, err := scenario.RunShardedSized(build, devices, scenario.ShardOptions{
				Shards: 4,
				Seed:   seed,
				Run:    scenario.RunOptions{RebootsPerDevice: reboots},
			})
			if err != nil {
				fmt.Fprintf(w, "measured: chaos cell loss=%.0f%% reboots=%d error %v\n", loss*100, reboots, err)
				return
			}
			conv, worst := "-", "-"
			if reboots > 0 {
				keys := make([]metrics.Class, 0, len(rep.Convergence))
				for cls := range rep.Convergence {
					keys = append(keys, cls)
				}
				sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
				if len(keys) > 0 {
					fmt.Fprintf(&classes, "loss=%.0f%% reboots=%d:\n", loss*100, reboots)
				}
				var probed, recon int
				var slowest time.Duration
				for _, cls := range keys {
					cc := rep.Convergence[cls]
					probed += cc.Devices
					recon += cc.Reconverged
					slowest = max(slowest, cc.MaxTime)
					mean := time.Duration(0)
					if cc.Reconverged > 0 {
						mean = cc.TotalTime / time.Duration(cc.Reconverged)
					}
					fmt.Fprintf(&classes, "  %-10s %2d/%2d reconverged, mean %v, worst %v\n",
						cls, cc.Reconverged, cc.Devices,
						mean.Round(time.Millisecond), cc.MaxTime.Round(time.Millisecond))
				}
				conv = fmt.Sprintf("%d/%d", recon, probed)
				worst = slowest.Round(time.Millisecond).String()
			}
			fmt.Fprintf(w, "%5.0f%% %8d %10d %10d %12s %14s\n",
				loss*100, reboots, rep.InternetOK, rep.Informed, conv, worst)
		}
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "per-class re-convergence after gateway reboots:")
	fmt.Fprint(w, classes.String())
	fmt.Fprintln(w, "shape: loss hurts the v4-only tail first (DHCP retransmission vs RA beacons);")
	fmt.Fprintln(w, "       churned devices that had internet re-converge within the RA/DHCP retry")
	fmt.Fprintln(w, "       budget, and the renumbered prefix never strands an RFC 4862 host")
}

func traffic(w io.Writer) {
	fmt.Fprintln(w, "engine: every internet-capable device streams paced CDN flows (plus churned")
	fmt.Fprintln(w, "        ones torn down mid-transfer) from the IPv4-only cdn.example.com, so")
	fmt.Fprintln(w, "        each class crosses its translator: DNS64+NAT64 for v6-only, CLAT for")
	fmt.Fprintln(w, "        464XLAT, NAT44 for legacy v4. Counters are deterministic (seed 1).")
	const n = 24
	devices := scenario.Population(1, n, scenario.DefaultMix())
	fac := testbed.Factory{Spec: testbed.ScaleTopology(testbed.DefaultOptions(), n)}
	opt := scenario.RunOptions{Traffic: &scenario.TrafficOptions{
		FlowsPerDevice: 4,
		FlowBytes:      32 << 10,
		Pace:           2 * time.Millisecond,
		ChurnFlows:     1,
	}}
	world, err := fac.Build()
	if err != nil {
		fmt.Fprintf(w, "measured: build error %v\n", err)
		return
	}
	rep := scenario.RunWith(world, devices, opt)
	world.Close()
	fmt.Fprint(w, "measured: "+strings.ReplaceAll(rep.Traffic.String(), "\n", "\n          "))
	fmt.Fprintln(w)
	classes := make([]metrics.Class, 0, len(rep.Traffic.PerClass))
	for cls := range rep.Traffic.PerClass {
		classes = append(classes, cls)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
	for _, cls := range classes {
		fs := rep.Traffic.PerClass[cls]
		fmt.Fprintf(w, "measured: %-14s opened=%-3d completed=%-3d aborted=%-3d down=%d bytes\n",
			cls, fs.Opened, fs.Completed, fs.Aborted, fs.BytesDown)
	}
	fmt.Fprintln(w, "shape: downloads dominate NAT64 inbound bytes; churned flows stop generating")
	fmt.Fprintln(w, "       at the server's next pace tick; every per-class byte count merges")
	fmt.Fprintln(w, "       shard-exactly (TestTrafficShardedMatchesSerial)")
}

// profileHeads abbreviates the profile names of scenario.DefaultMix
// into the pathology matrix's column headers.
var profileHeads = map[string]string{
	"iOS": "iOS", "Android": "Andr", "macOS": "mac", "Windows 10": "W10", "Windows 11": "W11",
	"Linux": "Lnx", "Nintendo Switch": "NSw", "Windows XP": "XP",
}

func pathologyExp(w io.Writer) {
	fmt.Fprintln(w, "engine: install each registered DNS/NAT64/delegation failure mode into fresh")
	fmt.Fprintln(w, "        worlds and sweep the default population across it; every cell is a")
	fmt.Fprintln(w, "        deterministic sharded run, documented verbatim in EXPERIMENTS.md §bench6")
	const n, seed = 24, 1
	mix := scenario.DefaultMix()
	devices := scenario.Population(seed, n, mix)
	// One column per distinct profile of the mix, in mix order.
	var cols []string
	for _, e := range mix {
		if !slices.Contains(cols, e.Profile.Name) {
			cols = append(cols, e.Profile.Name)
		}
	}
	fmt.Fprintf(w, "pathology degradation matrix: n=%d devices per cell, seed %d (internet-ok/devices per profile)\n", n, seed)
	fmt.Fprintf(w, "%-26s %8s %9s", "pathology", "internet", "informed")
	for _, p := range cols {
		fmt.Fprintf(w, " %6s", cmp.Or(profileHeads[p], p))
	}
	fmt.Fprintln(w)
	base := testbed.Factory{Spec: testbed.ScaleTopology(testbed.DefaultOptions(), n)}.Build
	for _, name := range pathology.Names() {
		rep, err := scenario.RunShardedSized(pathology.FactorySized(base, name), devices,
			scenario.ShardOptions{Shards: 4, Seed: seed})
		if err != nil {
			fmt.Fprintf(w, "measured: pathology cell %q error %v\n", name, err)
			return
		}
		fmt.Fprintf(w, "%-26s %8d %9d", name, rep.InternetOK, rep.Informed)
		for _, p := range cols {
			pc := rep.Profiles[p]
			fmt.Fprintf(w, " %6s", fmt.Sprintf("%d/%d", pc.InternetOK, pc.Devices))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "mirror fingerprints (ScoreFixed points per canonical profile, PATHOLOGIES.md):")
	fingerprintTable(w)
	fmt.Fprintln(w, "shape: checksum corruption guts ordinary browsing; v4-path interference and the")
	fmt.Fprintln(w, "       mismatched DNS64 prefix only flip the v4-DNS-preferring tail onto the")
	fmt.Fprintln(w, "       intervention page; delegation and PTB failures are invisible to plain page")
	fmt.Fprintln(w, "       fetches — only the mirror's probe suite (the fingerprint) exposes them")
}

func fingerprintTable(w io.Writer) {
	fmt.Fprintf(w, "measured: %-26s %-13s %s\n", "pathology", "mac/W10/W11/XP/NSw/v6Lnx", "codes")
	for _, name := range pathology.Names() {
		f, err := pathology.Compute(name)
		if err != nil {
			fmt.Fprintf(w, "measured: %-26s error %v\n", name, err)
			continue
		}
		fmt.Fprintf(w, "measured: %-26s %-13s %s\n", name, f.String(), strings.Join(f.Codes[:], " "))
	}
}

func pathologyDetail(w io.Writer, name string) {
	p, ok := pathology.Get(name)
	if !ok {
		fmt.Fprintf(w, "unknown pathology %q; registered: %s\n", name, strings.Join(pathology.Names(), ", "))
		return
	}
	fmt.Fprintf(w, "pathology: %s\n", p.Name)
	fmt.Fprintf(w, "source:    %s\n", p.Source)
	fmt.Fprintf(w, "mechanism: %s\n", p.Mechanism)
	if p.Stateful() {
		fmt.Fprintf(w, "schedule:  %s\n", p.ScheduleDoc)
	}
	f, err := pathology.Compute(name)
	if err != nil {
		fmt.Fprintf(w, "measured: fingerprint error %v\n", err)
		return
	}
	profs := pathology.FingerprintProfiles()
	for i, prof := range profs {
		fmt.Fprintf(w, "measured: %-18s score=%-2d codes=%s\n", prof.Name, f.Points[i], f.Codes[i])
	}
	fmt.Fprintf(w, "measured: fingerprint vector %s\n", f.String())
	if p.Stateful() {
		tl, err := pathology.ComputeTimeline(name)
		if err != nil {
			fmt.Fprintf(w, "measured: timeline error %v\n", err)
		} else {
			fmt.Fprintf(w, "measured: timeline %s\n", tl)
		}
	}
	d, err := pathology.NewDecoder()
	if err != nil {
		fmt.Fprintf(w, "measured: decoder error %v\n", err)
		return
	}
	decoded, err := d.Decode(f.Points)
	if err != nil {
		fmt.Fprintf(w, "measured: decoder error %v\n", err)
		return
	}
	fmt.Fprintf(w, "measured: decoder maps the vector back to %q\n", decoded)
}

func statefulExp(w io.Writer) {
	fmt.Fprintln(w, "engine: arm each stateful pathology on the canonical probe windows (onset 60s,")
	fmt.Fprintln(w, "        active 120s, registered flap pattern kept) and fingerprint the same")
	fmt.Fprintln(w, "        client before onset, mid-failure and after recovery; then run the")
	fmt.Fprintln(w, "        budgeted port-pool exhaustion under the heavy-traffic workload serial")
	fmt.Fprintln(w, "        vs sharded to show the pro-rata split keeps the merge exact")
	fmt.Fprintf(w, "measured: %-22s %-14s %-14s %s\n", "pathology", "pre-onset", "active", "recovered")
	for _, name := range pathology.Names() {
		p, _ := pathology.Get(name)
		if !p.Stateful() {
			continue
		}
		tl, err := pathology.ComputeTimeline(name)
		if err != nil {
			fmt.Fprintf(w, "measured: %-22s timeline error %v\n", name, err)
			continue
		}
		fmt.Fprintf(w, "measured: %-22s %-14s %-14s %s\n", name, tl.PreOnset, tl.Active, tl.Recovered)
	}

	const n = 24
	devices := scenario.Population(1, n, scenario.DefaultMix())
	base := testbed.Factory{Spec: testbed.ScaleTopology(testbed.DefaultOptions(), n)}.Build
	fac := pathology.FactorySized(base, "nat64-port-exhaustion")
	run := scenario.RunOptions{Traffic: &scenario.TrafficOptions{
		FlowsPerDevice: 4,
		FlowBytes:      32 << 10,
		Pace:           2 * time.Millisecond,
		ChurnFlows:     1,
	}}
	serial, err := scenario.RunShardedSized(fac, devices, scenario.ShardOptions{Shards: 1, Seed: 1, Run: run})
	if err != nil {
		fmt.Fprintf(w, "measured: serial run error %v\n", err)
		return
	}
	sharded, err := scenario.RunShardedSized(fac, devices, scenario.ShardOptions{Shards: 4, Seed: 1, Run: run})
	if err != nil {
		fmt.Fprintf(w, "measured: sharded run error %v\n", err)
		return
	}
	line := func(tag string, r *scenario.Report) {
		fmt.Fprintf(w, "measured: %-7s internet=%-2d informed=%-2d nat64-sessions=%-3d ports-exhausted=%-4d flows completed=%d aborted=%d\n",
			tag, r.InternetOK, r.Informed, r.NAT64Sessions,
			r.Traffic.Gateway.NAT64PortsExhausted, r.Traffic.Flows.Completed, r.Traffic.Flows.Aborted)
	}
	line("serial", serial)
	line("K=4", sharded)
	match := serial.InternetOK == sharded.InternetOK && serial.Informed == sharded.Informed &&
		serial.NAT64Sessions == sharded.NAT64Sessions &&
		serial.Traffic.Gateway.NAT64PortsExhausted == sharded.Traffic.Gateway.NAT64PortsExhausted &&
		serial.Traffic.Flows == sharded.Traffic.Flows
	fmt.Fprintf(w, "measured: serial == sharded: %v\n", match)
	fmt.Fprintln(w, "shape: the quota bites hardest on parallel probe bursts; refused flows get the")
	fmt.Fprintln(w, "       RFC 6146 ICMPv6 unreachable and fail fast, and every counter above folds")
	fmt.Fprintln(w, "       shard-exactly because each world's port pool is quota × its own devices")
}

func firstLine(b []byte) string {
	s := string(b)
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
