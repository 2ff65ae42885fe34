// Package core is the public facade of ipv6lab: it classifies what a
// client device experiences on the testbed (the paper's primary
// contribution — gracefully informing IPv4-only clients why internet
// access is unavailable, with no impact on RFC 8925 and dual-stack
// clients) and generates the §V device-compatibility matrix.
package core

import (
	"fmt"
	"strings"

	"repro/internal/hoststack"
	"repro/internal/httpsim"
	"repro/internal/portal"
	"repro/internal/profiles"
	"repro/internal/testbed"
)

// OutcomeClass is what a device experiences when it tries to use the
// internet on the testbed.
type OutcomeClass string

// Outcome classes.
const (
	// Informed: the device landed on the intervention page explaining
	// that its lack of IPv6 support is why internet access is unavailable.
	Informed OutcomeClass = "informed"
	// TranslatedInternet: working access over IPv6 (native AAAA or
	// NAT64/DNS64/CLAT translation).
	TranslatedInternet OutcomeClass = "internet-via-ipv6"
	// NativeV4Internet: working access over legacy IPv4.
	NativeV4Internet OutcomeClass = "internet-via-ipv4"
	// Broken: no access and no explanation (the UX failure the paper's
	// intervention exists to prevent).
	Broken OutcomeClass = "broken"
)

// Outcome is the full evaluation of one client.
type Outcome struct {
	Profile string
	Class   OutcomeClass

	HasIPv4    bool
	HasIPv6GUA bool
	IPv6Only   bool // option 108 honored
	CLATActive bool
	UsedAddr   string
	BuggyScore portal.Score
	FixedScore portal.Score
}

// ProbeURL is the representative destination a user would visit.
const ProbeURL = "http://sc24.supercomputing.org/"

// Classify maps one browse of ProbeURL to the outcome class the user
// sees: no connectivity is Broken, the ip6.me intervention page is
// Informed, and real content is internet over IPv6 or IPv4 depending on
// the address the browser used.
func Classify(r *httpsim.FetchResult, err error) OutcomeClass {
	switch {
	case err != nil:
		return Broken
	case strings.Contains(string(r.Response.Body), portal.IP6MeBody):
		return Informed
	case r.UsedAddr.Is6():
		return TranslatedInternet
	default:
		return NativeV4Internet
	}
}

// Evaluate classifies one already-attached client.
func Evaluate(tb *testbed.Testbed, c *hoststack.Host) Outcome {
	o := Outcome{
		Profile:    c.B.Name,
		HasIPv4:    c.IPv4Addr().IsValid(),
		IPv6Only:   c.IPv6OnlyActive(),
		CLATActive: c.CLATActive(),
	}
	for _, a := range c.IPv6GlobalAddrs() {
		if tb.Gateway.CurrentGUAPrefix().Contains(a) {
			o.HasIPv6GUA = true
		}
	}

	r, err := httpsim.Browse(c, ProbeURL)
	o.Class = Classify(r, err)
	if o.Class == TranslatedInternet || o.Class == NativeV4Internet {
		o.UsedAddr = r.UsedAddr.String()
	}

	res := portal.Run(httpsim.Fetcher(c), tb.Mirror)
	o.BuggyScore = portal.ScoreBuggy(res)
	o.FixedScore = portal.ScoreFixed(res)
	return o
}

// MatrixRow is one line of the §V compatibility matrix.
type MatrixRow struct {
	Outcome
}

// String renders the row for reports.
func (r MatrixRow) String() string {
	return fmt.Sprintf("%-24s %-18s v4=%-5v gua=%-5v 8925=%-5v clat=%-5v buggy=%s fixed=%s",
		r.Profile, r.Class, r.HasIPv4, r.HasIPv6GUA, r.IPv6Only, r.CLATActive,
		r.BuggyScore, r.FixedScore)
}

// Matrix evaluates every OS profile on a fresh testbed with the given
// options — the per-device-class outcome table implicit in §V.
func Matrix(opt testbed.Options) []MatrixRow {
	var rows []MatrixRow
	for _, b := range profiles.All() {
		tb := testbed.New(opt)
		c := tb.AddClient("probe", b)
		rows = append(rows, MatrixRow{Outcome: Evaluate(tb, c)})
	}
	return rows
}

// CountClasses tallies a matrix by outcome class.
func CountClasses(rows []MatrixRow) map[OutcomeClass]int {
	out := make(map[OutcomeClass]int)
	for _, r := range rows {
		out[r.Class]++
	}
	return out
}
