package scenario

import (
	"fmt"
	"time"

	"repro/internal/gateway5g"
	"repro/internal/hoststack"
	"repro/internal/httpsim"
	"repro/internal/metrics"
	"repro/internal/testbed"
)

// This file is the heavy application-traffic layer: after a device's
// connectivity workload succeeds, it streams long-lived CDN flows
// through whatever translation path its class uses (DNS64+NAT64 for
// IPv6-only clients, CLAT+NAT64 for 464XLAT stacks, NAT44 for legacy
// IPv4) with optional connection churn, and every byte is accounted —
// per device, per traffic class, and per gateway translator. The
// accounting is per-device and position-independent, so a sharded run's
// merged TrafficReport equals the serial run's exactly (pinned by
// TestTrafficShardedMatchesSerial).

// TrafficOptions switches the heavy-traffic workload on: each device
// with working internet access streams FlowsPerDevice flows from the
// built-in CDN (testbed.StreamCDNName), plus ChurnFlows more that the
// client deliberately abandons mid-transfer.
type TrafficOptions struct {
	// FlowsPerDevice is the number of full streaming fetches per device.
	FlowsPerDevice int
	// FlowBytes is the body size of each flow (default 64 KiB).
	FlowBytes int
	// Pace is the virtual-time gap between server writes; 0 streams each
	// flow as one synchronous burst.
	Pace time.Duration
	// ChurnFlows adds that many flows per device which the client tears
	// down early (after roughly one paced chunk) — connection churn
	// through the translators. With Pace 0 a flow completes before it
	// can be abandoned, so churn flows simply complete.
	ChurnFlows int
}

// FlowStats accounts streaming flows for one device or one aggregate.
type FlowStats struct {
	// Opened counts connection attempts that reached the request stage;
	// Completed the flows whose full body arrived; Aborted the rest
	// (deliberate churn plus any failures).
	Opened    int
	Completed int
	Aborted   int
	// BytesUp / BytesDown are application-level octets (requests sent,
	// header+body received).
	BytesUp   int64
	BytesDown int64
}

// add folds o into s.
func (s *FlowStats) add(o FlowStats) {
	s.Opened += o.Opened
	s.Completed += o.Completed
	s.Aborted += o.Aborted
	s.BytesUp += o.BytesUp
	s.BytesDown += o.BytesDown
}

// TrafficReport aggregates the heavy-traffic workload across a run:
// flow totals, the same split by traffic class, and the gateway's
// translation counters (summed across worlds in a sharded run).
type TrafficReport struct {
	// Flows is the run-wide flow aggregate.
	Flows FlowStats
	// PerClass splits the aggregate by the device's observed class.
	PerClass map[metrics.Class]FlowStats
	// Gateway sums the per-world translator counters (packets and bytes
	// through NAT64 and NAT44, live sessions, compliance-log length).
	Gateway gateway5g.TrafficStats
}

// runFlows executes the streaming workload for one device and returns
// its flow accounting. Completed flows get a timeout generous enough
// for the whole paced transfer; churn flows get roughly two pace
// intervals and are then torn down by the client.
func runFlows(c *hoststack.Host, t *TrafficOptions) FlowStats {
	var fs FlowStats
	bytes := t.FlowBytes
	if bytes <= 0 {
		bytes = 64 << 10
	}
	const chunk = httpsim.DefaultStreamChunk
	url := fmt.Sprintf("http://%s/flow/%d/%d/%d", testbed.StreamCDNName, bytes, chunk, t.Pace.Milliseconds())

	chunks := (bytes + chunk - 1) / chunk
	fullTimeout := time.Duration(chunks+2)*t.Pace + 10*time.Second
	// The Stream timeout is a quiet-window: a churn flow's window is
	// shorter than the pace gap, so the client goes quiet between two
	// chunks, gives up and tears the connection down mid-transfer. (With
	// Pace 0 the whole flow bursts before the client can abandon it.)
	churnTimeout := t.Pace / 2
	if churnTimeout == 0 {
		churnTimeout = 20 * time.Millisecond
	}

	run := func(n int, timeout time.Duration) {
		for i := 0; i < n; i++ {
			st, err := httpsim.Stream(c, url, timeout)
			if err != nil {
				fs.Aborted++
				continue
			}
			fs.Opened++
			fs.BytesUp += st.BytesUp
			fs.BytesDown += st.BytesDown
			if st.Complete {
				fs.Completed++
			} else {
				fs.Aborted++
			}
		}
	}
	run(t.FlowsPerDevice, fullTimeout)
	run(t.ChurnFlows, churnTimeout)
	return fs
}

// buildTrafficReport assembles the run-wide traffic aggregate from the
// incrementally folded per-device flow stats (the trial runner folds
// them as each device finishes, so the report needs no retained Devices
// slice). The world is drained first so trailing TCP teardown segments
// (ACKs and FINs still in flight when the last flow's pump returned)
// cross the translators: without the drain, how many of them are
// counted would depend on how much pumping later devices happened to do
// — exactly the position dependence the shard-equality contract
// forbids.
func buildTrafficReport(tb *testbed.Testbed, flows FlowStats, perClass map[metrics.Class]FlowStats, t *TrafficOptions) *TrafficReport {
	quiet := 2*t.Pace + 100*time.Millisecond
	tb.Net.Drain(quiet)
	tr := &TrafficReport{Flows: flows, PerClass: make(map[metrics.Class]FlowStats, len(perClass))}
	for cls, cs := range perClass {
		tr.PerClass[cls] = cs
	}
	tr.Gateway = tb.Gateway.TrafficStats()
	if tb.SampleNAT64PerTrial {
		// Expiry-dominated session tables (the nat64-port-exhaustion
		// pathology) make the end-of-run live count a function of when
		// this world's last flow happened to finish — position-dependent
		// state the shard-equality contract forbids. The main report
		// already samples live sessions per trial for such worlds; the
		// traffic snapshot drops the live count rather than publishing a
		// position-dependent one.
		tr.Gateway.NAT64Sessions = 0
	}
	return tr
}

// mergeTraffic folds a shard's traffic report into the aggregate.
func mergeTraffic(out **TrafficReport, p *TrafficReport) {
	if p == nil {
		return
	}
	if *out == nil {
		*out = &TrafficReport{PerClass: make(map[metrics.Class]FlowStats)}
	}
	t := *out
	t.Flows.add(p.Flows)
	for cls, cs := range p.PerClass {
		m := t.PerClass[cls]
		m.add(cs)
		t.PerClass[cls] = m
	}
	t.Gateway.NAT64PktsOut += p.Gateway.NAT64PktsOut
	t.Gateway.NAT64PktsIn += p.Gateway.NAT64PktsIn
	t.Gateway.NAT64BytesOut += p.Gateway.NAT64BytesOut
	t.Gateway.NAT64BytesIn += p.Gateway.NAT64BytesIn
	t.Gateway.NAT44Pkts += p.Gateway.NAT44Pkts
	t.Gateway.NAT44BytesOut += p.Gateway.NAT44BytesOut
	t.Gateway.NAT44BytesIn += p.Gateway.NAT44BytesIn
	t.Gateway.NAT64Sessions += p.Gateway.NAT64Sessions
	t.Gateway.NAT44Sessions += p.Gateway.NAT44Sessions
	t.Gateway.NAT44LogEntries += p.Gateway.NAT44LogEntries
	t.Gateway.NAT64PortsExhausted += p.Gateway.NAT64PortsExhausted
}

// String renders the traffic aggregate with counters only (reproducible
// verbatim across runs).
func (t *TrafficReport) String() string {
	if t == nil {
		return "traffic: off\n"
	}
	return fmt.Sprintf(
		"traffic: flows opened=%d completed=%d aborted=%d up=%d down=%d\n"+
			"gateway: nat64 pkts out/in=%d/%d bytes out/in=%d/%d | nat44 pkts=%d bytes out/in=%d/%d sessions=%d log=%d\n",
		t.Flows.Opened, t.Flows.Completed, t.Flows.Aborted, t.Flows.BytesUp, t.Flows.BytesDown,
		t.Gateway.NAT64PktsOut, t.Gateway.NAT64PktsIn, t.Gateway.NAT64BytesOut, t.Gateway.NAT64BytesIn,
		t.Gateway.NAT44Pkts, t.Gateway.NAT44BytesOut, t.Gateway.NAT44BytesIn,
		t.Gateway.NAT44Sessions, t.Gateway.NAT44LogEntries)
}
