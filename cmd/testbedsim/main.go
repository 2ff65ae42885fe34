// Command testbedsim assembles the paper's Fig. 4 testbed with
// selectable interventions, attaches one client per OS profile, and
// prints what each device experiences — optionally with the full
// per-host event traces.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net/netip"
	"os"

	"repro/internal/core"
	"repro/internal/hoststack"
	"repro/internal/netsim"
	"repro/internal/profiles"
	"repro/internal/testbed"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintf(os.Stderr, "testbedsim: %v\n", err)
		os.Exit(2)
	}
}

// run parses args, builds the testbed they select, probes it with one
// client per OS profile and writes the report to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("testbedsim", flag.ContinueOnError)
	poison := fs.String("poison", "wildcard", "IPv4 DNS intervention: off | wildcard | rpz")
	redirect := fs.String("redirect", "", "poisoned A answer (default ip6.me's address)")
	noSnoop := fs.Bool("no-snoop", false, "disable DHCPv4 snooping on the managed switch")
	noSwitchRA := fs.Bool("no-switch-ra", false, "disable the managed switch's ULA RA")
	noOption108 := fs.Bool("no-option108", false, "disable RFC 8925 on the Pi DHCP server")
	restrictV4 := fs.Bool("restrict-v4", false, "apply the §VI ACL blocking IPv4 internet")
	events := fs.Bool("events", false, "dump per-host event traces")
	pcap := fs.Int("pcap", 0, "print up to N tcpdump-style lines from the access switch")
	loss := fs.Float64("loss", 0, "per-client link loss probability (0..1), seeded deterministically")
	churn := fs.Int("churn", 0, "reboot the 5G gateway N times after the probes and re-evaluate")
	chaosSeed := fs.Uint64("chaos-seed", 1, "seed for the per-client impairment streams")
	fabric := fs.Int("fabric", 0, "build a hierarchical fabric with N access switches instead of the flat Fig. 4 LAN")
	clientsPer := fs.Int("clients-per", 64, "registered clients per access switch (with -fabric)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	opt := testbed.DefaultOptions()
	switch *poison {
	case "off":
		opt.Poison = testbed.PoisonOff
	case "wildcard":
		opt.Poison = testbed.PoisonWildcard
	case "rpz":
		opt.Poison = testbed.PoisonRPZ
	default:
		return fmt.Errorf("unknown poison policy %q", *poison)
	}
	if *redirect != "" {
		a, err := netip.ParseAddr(*redirect)
		if err != nil {
			return fmt.Errorf("bad redirect address: %w", err)
		}
		opt.RedirectV4 = a
	}
	opt.SnoopDHCP = !*noSnoop
	opt.SwitchULARA = !*noSwitchRA
	opt.Option108 = !*noOption108
	opt.RestrictIPv4 = *restrictV4

	fmt.Fprintf(stdout, "testbed: poison=%s redirect=%v option108=%v snoop=%v switch-ra=%v restrict-v4=%v loss=%.0f%% churn=%d fabric=%d\n\n",
		*poison, opt.RedirectV4, opt.Option108, opt.SnoopDHCP, opt.SwitchULARA, opt.RestrictIPv4, *loss*100, *churn, *fabric)

	spec := testbed.DefaultTopology(opt)
	if *fabric > 0 {
		spec = testbed.FabricTopology(opt, *fabric, *clientsPer)
	}
	if *loss > 0 {
		spec.Impair = netsim.Impairment{Loss: *loss}
		spec.ChaosSeed = *chaosSeed
	}
	tb, err := testbed.Build(spec)
	if err != nil {
		return fmt.Errorf("building testbed: %w", err)
	}
	var tap *trace.Tap
	if *pcap > 0 {
		tap = &trace.Tap{Max: *pcap}
		tb.Switch.AddFilter(tap.Filter())
	}
	// In fabric mode the probes materialize from the registered rows,
	// round-robin across access domains; on the flat LAN they attach to
	// the managed switch directly. Either way each probe is evaluated
	// right after it joins, and clients collects them for the churn
	// re-evaluation.
	var clients []*hoststack.Host
	probe := func(c *hoststack.Host) {
		clients = append(clients, c)
		o := core.Evaluate(tb, c)
		fmt.Fprintln(stdout, core.MatrixRow{Outcome: o})
		if *events {
			for _, e := range c.Events() {
				fmt.Fprintf(stdout, "    %s\n", e)
			}
		}
	}
	if fb := tb.Fabric; fb != nil {
		_, rows := fb.Rows(len(fb.Switches) - 1)
		fmt.Fprintf(stdout, "fabric: %d access switches × %d registered clients (%d table rows)\n",
			*fabric, *clientsPer, rows)
		for i, b := range profiles.All() {
			sw := i % *fabric
			lo, hi := fb.Rows(sw)
			row := lo + i / *fabric
			if row >= hi {
				return fmt.Errorf("access switch %d has no free row for probe %q (raise -clients-per)", sw, b.Name)
			}
			probe(fb.Materialize(row, "probe-"+b.Name, b))
		}
	} else {
		for _, b := range profiles.All() {
			probe(tb.AddClient("probe-"+b.Name, b))
		}
	}

	if *churn > 0 {
		for i := 0; i < *churn; i++ {
			tb.Gateway.Reboot()
		}
		fmt.Fprintf(stdout, "\nafter %d gateway reboot(s) — leases, NAT state and the GUA /64 are gone:\n", *churn)
		for _, c := range clients {
			o := core.Evaluate(tb, c)
			fmt.Fprintln(stdout, core.MatrixRow{Outcome: o})
		}
	}

	fmt.Fprintf(stdout, "\ninfrastructure: gateway RAs=%d, snooped DHCP frames=%d, NAT64 sessions=%d, NAT44 log entries=%d\n",
		tb.Gateway.RAsSent, tb.Switch.SnoopedDrops, tb.Gateway.NAT64.SessionCount(), len(tb.Gateway.NAT44.Log))
	fmt.Fprintf(stdout, "healthy DNS64: %d queries (%d synthesized AAAA); poisoned server: %d queries\n",
		tb.HealthyLog.Len(), tb.Healthy64.Synthesized, tb.PoisonLog.Len())

	if tap != nil {
		fmt.Fprintf(stdout, "\nswitch capture (first %d frames):\n", len(tap.Lines))
		for _, l := range tap.Lines {
			fmt.Fprintln(stdout, " ", l)
		}
	}
	return nil
}
